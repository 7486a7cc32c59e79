// Package blob implements the flat-namespace blob store the paper proposes
// as the converged HPC/Big-Data storage layer (Section III), modelled on
// Týr and RADOS:
//
//   - a flat key namespace — no hierarchy, no permissions;
//   - exactly the Section III primitive set: create, delete, random read,
//     random write, truncate, size, scan;
//   - consistent-hash data placement over the cluster (package chash),
//     chunked striping, primary-copy replication;
//   - per-server write-ahead logging for durability;
//   - a Týr-style lightweight transaction, and only one: a WriteBlob
//     spanning several chunks commits atomically via a two-phase protocol
//     whose round trips are charged to the virtual clock. There are no
//     multi-blob transactions.
//
// Correctness (read-your-writes, atomic multi-chunk visibility, scan
// completeness) is implemented for real on in-memory data; only durations
// are simulated. A key latch provides the atomic visibility the real system
// gets from versioned chunk sets, while the two-phase commit cost is charged
// explicitly, so benchmarks still see the protocol's latency. The latches are
// a fixed store-level table indexed by the key's descriptor hash (lockKey), as
// RADOS serializes an object's ops on the placement group its name hashes to:
// an op latches its key first and only then looks the descriptor up, so what
// it finds stays current while it holds the latch. Server tables hold
// descriptors by value.
//
// # Data-plane architecture
//
// The per-chunk dispatch path is engineered for throughput and allocation
// discipline, because the paper's thesis — one blob namespace serving both
// HPC and Big-Data traffic — only holds if per-chunk cost is near-free:
//
//   - chunk addressing: chunks are identified by the comparable struct
//     chunkID{key, idx}. Server chunk tables are keyed by chunkID and the
//     placement hash is computed by streaming the key material through
//     chash.KeyHasher, so no "key\x00idx" string is ever built on the
//     read/write path.
//   - placement cache: Store.ownersForHash fronts the consistent-hash ring
//     with an epoch-versioned, sharded lookup cache. Steady-state placement
//     is a shard-local RLock plus one map probe; ring walks happen only on
//     cold keys or after a membership change bumps Ring.Epoch(), which
//     invalidates the cache lazily.
//   - striped server state: each server's chunk table is split across
//     chunkStripes lock-striped shards selected by the chunk's placement
//     hash, so concurrent readers and writers of different chunks do not
//     contend on one RWMutex. The key latch remains the atomic-visibility
//     point for multi-chunk commits.
//   - sharded WAL lanes: each server's write-ahead log is a wal.MultiLog —
//     Config.WALLanes lanes (default: the chunk-stripe count), a chunk's
//     lane derived from the same placement-hash bits as its lock stripe,
//     descriptor records routed by the descriptor's ring hash — so parallel
//     writers to different chunks append under different lane mutexes. A
//     server-scoped order key stamped into every record lets recovery merge
//     the lanes back into exact logical order
//     (wal.MultiLog.RecoverMerged). Records append vectored
//     (AppendVSum/AppendNV): only the small addressing header is staged in a
//     pooled scratch buffer, while chunk data streams from the caller's
//     buffer to the log medium in exactly one copy, and the chunk entry
//     keeps a view of that copy (chunkStripe): a replica copies a write's
//     bytes once, not once into its log and again into its table. A write
//     checksums its payload once (writeChunk) and every replica's record
//     folds that sum in; a chunk whose bytes are exactly one summed payload
//     keeps the sum (chunkStripe), so CheckpointAll re-logs it unread, and
//     relinks instead of copying a whole chunk's log buffer and a small
//     chunk's slab while the lane's chunks fill at least half of it; it
//     copies only the small chunks of sparser slabs (wal.Buffer).
//     CheckpointAll plans every server in one parallel fan-out and sorts
//     and re-logs every lane in a second, each lane as one AppendNV, into
//     plan lists and batches each server keeps across checkpoints, so a
//     warm one allocates a fixed handful whatever the store holds.
//     Recover installs the same views and sums from its replay, so a
//     recovered server's memory is laid out as a live one's. The bytes the
//     store does copy into chunk memory — a partial write's merge, a
//     checkpoint's copy of what it cannot relink — are counted in
//     blob.copy.bytes. Multi-record operations batch same-(server,lane)
//     records through AppendNV.
//   - goroutine fan-out: per-chunk work runs on the goroutine that joins
//     the fan, with idle workers of a bounded pool stealing its tail
//     (dispatch.go), and with resource charges recorded into per-task ledgers
//     and folded into the shared cluster accounting at join, so real
//     parallel execution keeps the sequential implementation's virtual
//     clock semantics bit-for-bit. See dispatch.go for the concurrency
//     contract.
//
// The log is the history (ARIES redo). Recover redoes a server's records into
// emptied tables through the mutators the live ops call, and CheckInvariants
// redoes every live server's log the same way to check that it reproduces
// that server's memory exactly. The store is observed where the log is
// written: Store.Observe installs one subscriber that walAppendLane and
// walAppendBatch, the only two data-plane appenders, call per append, a
// migration sweep per batch and every foreground mutation at its end
// (Event). The crash sweeps and the tests' model use it; the store does not.
//
// # Failure semantics
//
// The store keeps serving through node failures and heals on rejoin. One
// rule decides freshness everywhere (survey.go): chunk versions. A write is
// versioned one past the highest version any non-wiped server holds and
// applies only onto replicas holding exactly the version before it. A delete
// or shrinking truncate is versioned the same way: a dropped chunk leaves a
// tombstone on every owner, a version with no bytes that reads as a hole, and
// a trimmed one takes the new version on the copies at the maximum. Every
// other way a replica changes — repair, rejoin resync, migration — is a
// whole-chunk replace at its source's version (installChunk), tombstones
// included. So chunk versions never go backwards, the highest version of a
// chunk always holds every acknowledged byte, and a replica may serve a read,
// or seed a copy, exactly when it holds that maximum. Soft-down
// servers keep their memory (the stand-in for monitor-layer peering
// metadata) and count toward the maximum, crash-wiped ones do not; a read
// with no live holder at the maximum fails with storage.ErrUnavailable
// rather than return older bytes. Descriptors follow the same rule: a create,
// size change or delete stamps one past the highest version any non-wiped
// server holds and, like a write, leaves crash-wiped owners out (Recover
// catches them up); a delete leaves a tombstone on every other owner, and
// every other descriptor change copies the freshest copy, tombstones included
// (reconcileDesc).
//
// Degraded writes. An owner that is down, or behind, at the write's placement
// survey is EXCLUDED from the write, never partially applied to: its version
// stays frozen below the excluding write. The write proceeds on the rest as
// long as one owner remains, a down chunk primary being promoted past.
//
// Descriptor primaries are not promoted past. A mutation — WriteBlob,
// TruncateBlob, DeleteBlob, RenameBlob (either key), CreateBlob —
// is refused with storage.ErrUnavailable exactly when the descriptor primary
// (descOwners(key)[0]) of a key it names is down: 1/N of the keyspace with
// one of N nodes down. A refusal changes nothing — no bytes, no size, no
// repair debt, no key created — every other key is served degraded as above,
// and refused keys stay readable (TestDescriptorPrimaryDownRefusalSet).
//
// Repair debt is only a work list, and cluster state, not any server's: one
// in-memory table on the Store (debt.go), never logged, checkpointed or
// replayed, so no server's crash takes it along. A degraded write, once the
// version it stamps exists, records the owners it excluded and that version
// as the one they need; every chunk move lists the owners it leaves behind
// the same way. An owner's entry clears once it is seen at that version, or
// once a survey that is not blind finds no copy at it (a torn log took it) —
// a stale or vacuous entry costs a no-op repair and can hide nothing. The
// entry count (RepairPending) and an open migration intent are the "not
// known clean" gate: with neither, every owner of every chunk holds its
// maximum and reads take the first live owner, probing nothing. While a
// survey of a chunk is blind (a crash-wiped server may hold its maximum), a
// replica the table names below its need serves no read (ErrUnavailable if
// no other copy is at the maximum), seeds no copy and takes no write. Recover,
// SetDown(node, false), a writer and a migration's end drain it (repair.go).
//
// One chunk move. Repair, rejoin resync and the migration sweep all move a
// chunk through reconcileChunk: survey once, install the freshest live copy
// on each owner in scope behind it, drop the strays an owner's version
// covers, clear the debt that was paid and list whoever is still behind.
// The three differ only in which owners are in scope.
//
// Rejoin resync. Recover additionally version-syncs the replayed state
// against its peers BEFORE rejoining (resyncNode): a torn lane tail can
// discard acknowledged mutations, so version comparison is the only witness
// left. It pulls what peers hold newer — a tombstone like any copy — and
// lists peers behind the replayed log.
//
// Tombstones, a chunk's and a descriptor's, live until a CheckpointAll finds
// every server up and the store clean with no migration intent open: that
// run rewrites every log without the older incarnations a tombstone exists
// to outrank, so it forgets them.
//
// Fault injection enters at two layers. Media damage is a lane's
// wal.Buffer torn (Truncate) or flipped (Corrupt) before a Recover, which
// replays the damaged log; a log append itself cannot fail. Transient
// faults enter at the cluster layer: seeded per-op faults that the data
// plane absorbs with bounded retry and virtual-clock backoff (fault.go).
// Crashes are simulated by dropping volatile state and replaying the
// (possibly torn) log.
//
// # Membership and elasticity semantics
//
// AddServer/RemoveServer change placement online: foreground reads and
// writes keep succeeding — and stay stale-free — while chunks move
// (rebalance.go). The protocol is ARIES-style intent logging over
// RADOS-style epoch-versioned placement:
//
// Intent before mutation. The membership change appends a durable
// RecMigrateBegin to every live server's log BEFORE the ring mutates, and
// a RecMigrateEnd once the sweep completes and a drained node holds
// nothing. A crash anywhere between the two recovers with the intent open;
// the last Recover that leaves no server wiped rolls the migration forward
// (resumeMigration) by reconciling every held chunk and descriptor against
// the current ring — copy to owners missing a replica, delete from holders
// that lost ownership — so recovery always lands on a placement the system
// could have reached, never a half-remembered sweep position. Checkpoints
// re-log an open intent before resetting the lanes, so compaction cannot
// lose it.
//
// The epoch flip is atomic with respect to foreground ops. Ops hold
// Store.member shared for their duration; the ring mutation takes it
// exclusively for an instant. An in-flight write therefore lands entirely
// on the old owner sets (its chunks are picked up as holders by the sweep)
// or entirely on the new ones — never a mix that could strand an
// acknowledged write on a replica the sweep then deletes.
//
// Every record is self-contained; batches only throttle. The sweep moves a
// chunk the way repair does (reconcileChunk): the freshest copy goes onto
// each owner behind it through installChunk — memory and one RecWrite
// together under the target's stripe lock — and a holder outside the replica
// set logs its RecChunkDelete only after an owner's install has returned. A
// crash after any record therefore leaves every chunk on some server, and
// the roll-forward sweep redoes what is missing. A batch (Config.MigrationBatchChunks, at most 1 MiB
// of payload) is the dispatch and throttle quantum: a token bucket
// (migrationRateBytes per virtual-time tick) debits each batch's bytes
// before dispatch, charging deficits to the migration caller's clock, and at
// most one batch is in flight on the pool.
//
// Live traffic during the sweep. While the intent is open the store is not
// clean, so reads and writes survey versions (survey.go) with the scope
// widened from the current owners to every non-wiped server: a chunk's
// freshest copy may still sit on the drained node or a stray holder the
// sweep has not reached, while a gained owner holds nothing yet. The same
// rule as under failures then applies unchanged — reads serve a live holder
// of the maximum, writes skip owners still behind it and list them. The
// sweep copies the freshest live copy to every up owner behind it, lists
// those it cannot reach (down, faulted, or behind a source that is down) and
// deletes a stray only once an owner holds its bytes.
// A descriptor moves like a chunk, but under its key's read latch
// (reconcileDesc), so a writer, which needs the latch exclusively, logs its
// versions before or after the handover's, never between.
//
// A drained node is just a holder outside the ring. Its descriptors and
// chunks leave through the sweep's logged drops, like any stray's, so its
// log always replays to what it holds; its WAL lanes are reset (ResetAll)
// and their backing recycled once it holds nothing, and the intent closes
// then. A copy no owner can
// take yet keeps the node's state and the intent until Recover or
// SetDown(_, false) rolls it forward, so a drain never resets the last copy
// of a version.
package blob

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chash"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Config is what a caller of New sets; zero values take the defaults named
// per field. The field count may only go down (TestConfigFieldsRatchet).
type Config struct {
	// ChunkSize is the striping granularity in bytes. Defaults to 4 MiB
	// (RADOS' default object size order of magnitude).
	ChunkSize int
	// Replication is the number of copies of every chunk and descriptor,
	// including the primary. Defaults to 3.
	Replication int
	// InlineFanout executes fan-out tasks sequentially on the calling
	// goroutine, at spawn, and never offers them to the worker pool.
	// Virtual-time results are identical by construction (charges fold at
	// join either way); the knob exists as the determinism baseline and
	// for debugging.
	InlineFanout bool
	// WALLanes is the number of sharded write-ahead-log lanes per server
	// (wal.MultiLog): concurrent writers to chunks in different lanes do
	// not contend on a log mutex, and writers that do share a lane
	// serialize on that lane log's mutex. Defaults to the chunk-stripe
	// count, so a chunk's log lane is derived from the same placement-hash
	// bits as its lock stripe. With 1 lane the on-medium layout is
	// byte-identical to the single-log implementation.
	WALLanes int
	// MigrationBatchChunks caps how many chunks one rebalance batch moves:
	// each AddServer/RemoveServer sweep is cut into batches of at most this
	// many chunks (and migrationBatchBytes of payload). A batch is the
	// dispatch and throttle quantum only — crash safety is per record.
	// Defaults to 16.
	MigrationBatchChunks int
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4 << 20
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.WALLanes <= 0 {
		c.WALLanes = chunkStripes
	}
	if c.MigrationBatchChunks <= 0 {
		c.MigrationBatchChunks = 16
	}
	return c
}

// chunkID addresses one chunk of one blob. It is the map key of the server
// chunk tables and the unit of placement: a comparable struct, so the hot
// path never materializes a combined string key.
type chunkID struct {
	key string
	idx int64
}

// cmp orders chunk IDs by (key, idx) — the total order checkpoint
// streaming uses so one seed always writes one log.
func (c chunkID) cmp(o chunkID) int {
	if r := strings.Compare(c.key, o.key); r != 0 {
		return r
	}
	return cmp.Compare(c.idx, o.idx)
}

// ringHash returns the chunk's placement hash, streamed through the ring's
// key hasher. It is bit-identical to hashing the historical string form
// "c:" + key + "\x00" + decimal(idx), so placement is unchanged from the
// string-keyed implementation — but no string is built.
func (c chunkID) ringHash() uint64 {
	return chash.NewKeyHasher().String("c:").String(c.key).Byte(0).Int64Decimal(c.idx).Sum()
}

// descRingHash returns the placement hash of a blob's descriptor,
// equivalent to hashing "d:" + key without the concatenation.
func descRingHash(key string) uint64 {
	return chash.NewKeyHasher().String("d:").String(key).Sum()
}

// placementShards shards the placement cache to keep cache hits from
// serializing on one lock. Must be a power of two.
const placementShards = 16

// placementShardMax bounds one shard's entry count so a long-lived store
// serving a huge key population cannot pin unbounded ring-derivable data.
// Eviction is a whole-shard reset: entries are cheap to re-derive, and a
// reset leaves the other shards untouched.
const placementShardMax = 1 << 14

// placementCache memoizes ring lookups per placement hash. Entries are
// valid for exactly one ring epoch; a membership change bumps the epoch and
// each shard drops its map lazily on next access. Caching by hash is exact,
// not approximate: ring placement is a pure function of the hash.
type placementCache struct {
	shards [placementShards]placementShard
}

type placementShard struct {
	mu    sync.RWMutex
	epoch uint64
	m     map[uint64][]int
}

// ownersForHash returns the replica set (primary first) for a placement
// hash. Steady state is a shard RLock and one map probe — no ring lock, no
// allocation. The returned slice is shared and must not be mutated.
func (s *Store) ownersForHash(h uint64) []int {
	ep := s.ring.Epoch()
	sh := &s.placement.shards[h&(placementShards-1)]
	sh.mu.RLock()
	if sh.epoch == ep {
		if owners, ok := sh.m[h]; ok {
			sh.mu.RUnlock()
			return owners
		}
	}
	sh.mu.RUnlock()

	dst := make([]int, s.cfg.Replication)
	got := s.ring.LocateHashNInto(h, dst)
	owners := dst[:got]

	sh.mu.Lock()
	if sh.epoch != ep {
		if sh.epoch > ep {
			// The shard has already advanced past the epoch we computed
			// under; our result may be stale — serve it to this caller
			// (equivalent to a lookup racing the membership change) but do
			// not cache it.
			sh.mu.Unlock()
			return owners
		}
		sh.epoch = ep
		sh.m = nil
	}
	if sh.m == nil || len(sh.m) >= placementShardMax {
		sh.m = make(map[uint64][]int, 64)
	}
	sh.m[h] = owners
	sh.mu.Unlock()
	return owners
}

// Store is a blob store running on a simulated cluster. It implements
// storage.BlobStore.
type Store struct {
	cfg       Config
	cluster   *cluster.Cluster
	ring      *chash.Ring
	servers   []*server
	placement placementCache
	// debt is the repair work list, one entry per chunk owing repair
	// (debt.go).
	debt debtTable
	// metrics counts failure-domain events: degraded writes, transient
	// retries, repaired chunks/bytes. Only event paths touch it, so the
	// healthy hot path pays nothing, except blob.copy.bytes, which a partial
	// write adds to through the counter each server caches (server.copied).
	metrics *metrics.Registry
	// helpers caps the help tokens one fan posts: GOMAXPROCS, cached because
	// reading it takes the scheduler lock. One more than can run beside the
	// caller, on purpose: a token handed to a parked worker rides it into the
	// poster's own run queue; only the tokens behind it wait in the channel
	// for whichever worker wakes first (one fewer cost two barrier-coupled
	// ranks' 16-chunk restart reads 5–15 % on 2 cores). fanOffered/fanHelped
	// count tokens posted and tasks helpers ran, added once per join.
	helpers               int
	fanOffered, fanHelped *metrics.Counter

	// member gates foreground ops against the instant the ring mutates:
	// every placement-resolving op holds it shared for its whole duration,
	// and AddServer/RemoveServer take it exclusively around the ring
	// mutation alone. That makes the epoch flip atomic with respect to
	// in-flight ops — a write either runs entirely against the old owner
	// sets (and its chunks are then migrated as holders) or entirely
	// against the new ones — without serializing foreground traffic behind
	// the migration sweep itself.
	member sync.RWMutex
	// migrateMu serializes membership changes end to end: at most one
	// migration sweep runs at a time, so the ring epoch is stable for the
	// sweep's whole duration.
	migrateMu sync.Mutex
	// migSeq numbers migrations (under migrateMu) so intent records are
	// totally ordered per store lifetime.
	migSeq uint64
	// migIntent publishes the open migration intent (live, replayed from a
	// RecMigrateBegin without a matching End, or left by a drain whose node
	// still holds a copy) so checkpoints can re-log it and Recover or
	// SetDown can roll the migration forward once no server is left wiped.
	// While it is set the store is not clean, and chunk surveys widen to
	// every non-wiped server (survey.go).
	migIntent atomic.Pointer[migrationIntent]
	// plan is the reconcile plan's fold storage (chunkPlan).
	plan chunkPlanner
	// observe is the one event subscriber (Observe), nil by default.
	observe func(Event)
	// serialRecovery makes Recover decode with the single-threaded merge,
	// the oracle of the equivalence tests (recoverfeed.go); migrationRate is
	// the throttle's refill per tick. Only in-package tests change either.
	serialRecovery bool
	migrationRate  int
	// latch is the key latch table (lockKey): an op holds its key's latch,
	// exclusively to mutate the blob, for as long as it uses the descriptor.
	latch [keyLatches]sync.RWMutex
}

// keyLatches is the size of the key latch table: keys whose descriptor
// hashes share their top keyLatchBits bits share a latch.
const (
	keyLatchBits = 12
	keyLatches   = 1 << keyLatchBits
)

// latchOf returns the index of key's latch in the table.
func latchOf(key string) int {
	return int(descRingHash(key) >> (64 - keyLatchBits))
}

// lockKey takes key's latch, exclusively when write is set. It is the one
// latch take: an op latches its key before it resolves the descriptor.
func (s *Store) lockKey(key string, write bool) {
	if write {
		s.latch[latchOf(key)].Lock()
	} else {
		s.latch[latchOf(key)].RLock()
	}
}

// unlockKey releases what lockKey took.
func (s *Store) unlockKey(key string, write bool) {
	if write {
		s.latch[latchOf(key)].Unlock()
	} else {
		s.latch[latchOf(key)].RUnlock()
	}
}

// migrationIntent is the in-memory form of a RecMigrateBegin record: one
// membership change that has been durably announced but not yet completed.
type migrationIntent struct {
	seq  uint64
	op   uint8 // migOpAdd or migOpRemove
	node int64
}

// chunkStripes is the lock-striping factor of each server's chunk table.
// Must be a power of two.
const chunkStripes = 16

// vnodes is the consistent-hash virtual-node count per server: a constant,
// because benchmark/ predicts placement from outside with a chash.New(64) twin.
const vnodes = 64

// chunkStripe is one lock-striped shard of a server's chunk table.
type chunkStripe struct {
	mu sync.RWMutex
	// m holds the chunk bytes; an entry with none is a tombstone. An
	// entry's bytes are immutable — nothing writes into them, a change
	// replaces the entry — and they are one of two things: a view of the
	// payload this server's own log lane stored for a whole-chunk write,
	// install or checkpoint record (wal.MultiLog.AppendVSum), which Recover
	// finds again as the replayed record's view (wal.Record.Data); or a
	// merged slice built for a partial write. A trim keeps a prefix of
	// either. So each replica copies a write's bytes once, into its log, and
	// a reader may use an entry's bytes after dropping the stripe lock. An
	// entry also remembers the CRC32C of its bytes when they are exactly one
	// payload whose sum the write path already had: a whole-chunk write
	// (applyChunk at offset 0 covering the old length), an install, which
	// carries its source's sum, a checkpoint record, or the replay of any of
	// them, whose decoder summed the payload checking its record. A partial
	// overwrite, a trim and a delete forget it; the zero value means
	// "unknown".
	// CheckpointAll re-logs a remembered sum without reading the bytes
	// again, and CheckInvariants rule 6 checks it against them.
	m map[chunkID]chunkBytes
	// ver holds the replica-comparable version of each chunk this server
	// stores: assigned by a write, delete or truncate as one more than the
	// highest version any server held, installed identically on every
	// replica that applied it, and persisted in the chunk's WAL records. It
	// is the one freshness witness (survey.go).
	ver map[chunkID]uint64
}

// chunkBytes is a chunk's bytes and, when summed, their CRC32C
// (wal.Checksum): a chunk-table entry, or a write's payload with the sum its
// writer computed. Its bytes are immutable (chunkStripe.m): applyChunk keeps
// a whole-chunk payload itself as the chunk's bytes.
type chunkBytes struct {
	b      []byte
	sum    uint32
	summed bool
}

// checksum returns the bytes' CRC32C, reading them only when it is not
// remembered.
func (c chunkBytes) checksum() uint32 {
	if c.summed {
		return c.sum
	}
	return wal.Checksum(c.b)
}

// server is the per-node state: the descriptors this node owns as primary
// or replica, the chunks placed on it (lock-striped by placement hash), and
// its sharded write-ahead log.
type server struct {
	node cluster.NodeID
	mu   sync.RWMutex
	// blobs holds the live descriptors replicated here, primary copies or
	// not, keyed and in key order (desctable.go), and gone the version of
	// each tombstone a delete left, under mu. A key is in one or neither.
	blobs descTable
	gone  map[string]uint64
	// stripes hold the chunk replicas placed on this server, sharded so
	// that concurrent access to different chunks does not contend.
	stripes [chunkStripes]chunkStripe
	// wal is the lane log: chunk records route to the lane derived from
	// their placement hash (the bits that also pick the lock stripe),
	// descriptor records to the lane of the descriptor's ring hash.
	// This is the ONLY append path — there is no per-server single log.
	wal  *wal.MultiLog
	down bool
	// wiped marks a crashed-but-not-yet-recovered server: its volatile
	// state is gone, so — unlike a soft-down (SetDown) server, whose
	// retained memory stays authoritative — its chunk versions must not be
	// consulted. Crash sets it, Recover clears it once the replayed tables
	// are installed.
	wiped bool
	// migIntent points at the store-wide open-migration pointer so the
	// checkpoint planner (which only sees the server) can re-log an open
	// RecMigrateBegin before ResetAll drops it from the lanes.
	migIntent *atomic.Pointer[migrationIntent]
	// copyBytes is the store's blob.copy.bytes counter (copied), cached so
	// no op looks it up.
	copyBytes *metrics.Counter
	// ckpt is the checkpoint plan, one list set per lane, kept across
	// checkpoints so a warm one allocates none (checkpointPlan).
	ckpt []ckptLane
}

// copied counts n bytes the store copied into chunk memory: a partial
// write's merge, a replayed payload the decoder copied, a checkpoint's copy
// of an entry it could not relink.
func (sv *server) copied(n int) {
	if n > 0 {
		sv.copyBytes.Add(int64(n))
	}
}

// chunkLane selects the log lane for a chunk placement hash.
func (sv *server) chunkLane(h uint64) int { return sv.wal.LaneFor(h) }

// metaLane selects the log lane for a descriptor record.
func (sv *server) metaLane(key string) int { return sv.wal.LaneFor(descRingHash(key)) }

// stripe selects the lock stripe for a chunk placement hash. It uses a
// different bit range than the placement-cache shard selector so the two
// shardings decorrelate.
func (sv *server) stripe(h uint64) *chunkStripe {
	return &sv.stripes[(h>>32)&(chunkStripes-1)]
}

// chunkEntry returns the chunk's entry, bytes and remembered sum, and its
// version, read together under the stripe RLock. The bytes are immutable, so
// the caller may read them after the lock is gone without a copy; an install
// copies them once, into the target's log (installChunk).
func (sv *server) chunkEntry(h uint64, id chunkID) (chunkBytes, uint64, bool) {
	st := sv.stripe(h)
	st.mu.RLock()
	defer st.mu.RUnlock()
	c, ok := st.m[id]
	return c, st.ver[id], ok
}

// chunkVer reads the chunk's version (0 when the server does not hold it).
func (sv *server) chunkVer(h uint64, id chunkID) uint64 {
	st := sv.stripe(h)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.ver[id]
}

// deleteChunk applies a RecChunkDelete at ver to memory, live and at redo: ver
// 0 removes the copy outright (a stray's drop), any other ver leaves a
// tombstone at that version.
func (sv *server) deleteChunk(h uint64, id chunkID, ver uint64) {
	st := sv.stripe(h)
	st.mu.Lock()
	sv.deleteChunkLocked(st, id, ver)
	st.mu.Unlock()
}

func (sv *server) deleteChunkLocked(st *chunkStripe, id chunkID, ver uint64) {
	if ver == 0 {
		delete(st.m, id)
		delete(st.ver, id)
	} else {
		st.m[id] = chunkBytes{}
		st.ver[id] = max(st.ver[id], ver)
	}
}

// trimChunk applies a RecChunkTruncate to memory, live and at redo: a held
// chunk is cut to keep bytes and raised to ver, forgetting its sum.
func (sv *server) trimChunk(h uint64, id chunkID, keep int64, ver uint64) {
	st := sv.stripe(h)
	st.mu.Lock()
	if c, ok := st.m[id]; ok {
		st.m[id] = chunkBytes{b: c.b[:min(int64(len(c.b)), keep)]}
		st.ver[id] = max(st.ver[id], ver)
	}
	st.mu.Unlock()
}

// chunkCount sums the chunks holding bytes; tombstones do not count.
func (sv *server) chunkCount() int {
	n := 0
	sv.forEachChunk(func(_ chunkID, data []byte, _ uint64) {
		if len(data) > 0 {
			n++
		}
	})
	return n
}

// forEachChunk calls fn for every chunk replica on the server, holding each
// stripe's read lock for the duration of its visits; fn must not mutate the
// data or call back into the stripe.
func (sv *server) forEachChunk(fn func(id chunkID, data []byte, ver uint64)) {
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.RLock()
		for id, c := range st.m {
			fn(id, c.b, st.ver[id])
		}
		st.mu.RUnlock()
	}
}

// holdsNothing reports whether sv is neither crash-wiped nor holding a
// descriptor, chunk or tombstone: a drained node's log may be reset only
// then.
func (sv *server) holdsNothing() bool {
	n := 0
	sv.forEachChunk(func(chunkID, []byte, uint64) { n++ })
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return n == 0 && sv.blobs.len() == 0 && len(sv.gone) == 0 && !sv.wiped
}

// reset empties sv's descriptor, chunk and version tables (new server,
// crash).
func (sv *server) reset() {
	sv.mu.Lock()
	sv.blobs, sv.gone = descTable{}, make(map[string]uint64)
	sv.mu.Unlock()
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.Lock()
		st.m, st.ver = make(map[chunkID]chunkBytes), make(map[chunkID]uint64)
		st.mu.Unlock()
	}
}

// keys returns the keys of every descriptor copy sv holds, tombstones
// included, in ascending order.
func (sv *server) keys() []string {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	keys := make([]string, 0, sv.blobs.len()+len(sv.gone))
	sv.blobs.ascend("", func(key string, _ descriptor) { keys = append(keys, key) })
	for key := range sv.gone {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// descCopy returns sv's copy of key's descriptor, a tombstone included, and
// whether a non-wiped sv holds one. A live copy costs one map probe.
func (sv *server) descCopy(key string) (descriptor, bool) {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	if sv.wiped {
		return descriptor{}, false
	}
	if d, ok := sv.blobs.get(key); ok {
		return d, true
	}
	ver, ok := sv.gone[key]
	return descriptor{ver: ver, dead: true}, ok
}

// putDesc installs d as sv's copy of key's descriptor, a tombstone when d is
// dead, unless sv holds that version or a newer one, and reports whether it
// did. With dropDesc it is the one table write, the same live and at redo.
func (sv *server) putDesc(key string, d descriptor) bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if cur, ok := sv.blobs.get(key); ok && cur.ver >= d.ver || sv.gone[key] >= d.ver {
		return false
	}
	if d.dead {
		sv.blobs.del(key)
		sv.gone[key] = d.ver
	} else {
		delete(sv.gone, key)
		sv.blobs.put(key, d)
	}
	return true
}

// dropDesc removes sv's copy of key's descriptor, leaving no tombstone (a
// stray's drop), and reports whether it held one.
func (sv *server) dropDesc(key string) bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	_, dead := sv.gone[key]
	delete(sv.gone, key)
	return sv.blobs.del(key) || dead
}

// descriptor is a blob's metadata, held by value in every owner's table. Its
// version orders every create, size change and delete of the key the way a
// chunk's orders its mutations; a dead one is a delete's tombstone.
type descriptor struct {
	size int64
	ver  uint64
	dead bool
}

// recType is the record that logs d: RecMeta for a live copy, RecDelete for
// a tombstone or, at version 0, a stray's drop.
func (d descriptor) recType() wal.RecordType {
	if d.dead || d.ver == 0 {
		return wal.RecDelete
	}
	return wal.RecMeta
}

// New builds a blob store spanning every node of the cluster.
func New(c *cluster.Cluster, cfg Config) *Store {
	return NewOnNodes(c, cfg, nil)
}

// NewOnNodes builds a blob store that initially serves from the given
// subset of cluster nodes (nil means all). Per-server state exists for
// every cluster node so that AddServer can later join the rest.
func NewOnNodes(c *cluster.Cluster, cfg Config, serving []cluster.NodeID) *Store {
	cfg = cfg.withDefaults()
	if c.Size() > maxServers {
		panic(fmt.Sprintf("blob: %d nodes: repair-debt masks address at most %d", c.Size(), maxServers))
	}
	if cfg.Replication > c.Size() {
		cfg.Replication = c.Size()
	}
	inRing := make(map[cluster.NodeID]bool, len(serving))
	if serving == nil {
		for _, n := range c.Nodes() {
			inRing[n.ID] = true
		}
	} else {
		for _, id := range serving {
			inRing[id] = true
		}
	}
	s := &Store{cfg: cfg, cluster: c, ring: chash.New(vnodes), metrics: metrics.NewRegistry(),
		helpers: runtime.GOMAXPROCS(0), migrationRate: migrationRateBytes}
	s.fanOffered, s.fanHelped = s.metrics.Counter("blob.fan.offered"), s.metrics.Counter("blob.fan.helped")
	for _, n := range c.Nodes() {
		sv := &server{
			node:      n.ID,
			wal:       wal.NewMultiLog(cfg.WALLanes),
			migIntent: &s.migIntent,
			copyBytes: s.metrics.Counter("blob.copy.bytes"),
		}
		sv.reset()
		s.servers = append(s.servers, sv)
		if inRing[n.ID] {
			s.ring.Add(int(n.ID))
		}
	}
	return s
}

// Config returns the effective configuration after defaulting.
func (s *Store) Config() Config { return s.cfg }

// ChunkSize reports the store's placement granularity, implementing the
// storage.ChunkSizer extension so front-ends (mpiio collective writes,
// blobfs) can align their accesses to whole chunks.
func (s *Store) ChunkSize() int { return s.cfg.ChunkSize }

// Cluster returns the underlying simulated cluster.
func (s *Store) Cluster() *cluster.Cluster { return s.cluster }

// Metrics returns the store's failure-domain event counters (degraded
// writes, transient retries, repair traffic) and blob.copy.bytes, the bytes
// the store copied into chunk memory.
func (s *Store) Metrics() *metrics.Registry { return s.metrics }

// RepairPending reports how many chunks currently owe repair to at least one
// replica (0 in the healthy steady state). The count lives in memory only:
// no log records it, so a crash of any server leaves it as it was.
func (s *Store) RepairPending() int64 { return s.debt.n.Load() }

// SetDown marks a server as failed (true) or recovered (false). Reads fall
// back to replicas of a down server; writes whose replica sets contain it
// proceed degraded on the owners that are left. Flipping a server back up
// runs the repair work list: the node is both a target (the writes it
// missed) and a source (writes only it holds, owed to peers that rejoined
// while it was away), then rolls forward an open migration intent — a drain
// that had to wait for the node's copies or for it as a target. Until a
// chunk's copy catches up, reads keep passing it over by version, so rejoin
// never serves stale bytes.
//
// An up-flip of a crash-wiped server is ignored: it stays down until Recover,
// the only thing that can make its emptied tables authoritative again (the
// clean read path asks only isDown).
func (s *Store) SetDown(node cluster.NodeID, down bool) {
	sv := s.servers[int(node)]
	sv.mu.Lock()
	was := sv.down
	if !down && sv.wiped {
		down = true
	}
	sv.down = down
	sv.mu.Unlock()
	if was && !down {
		// Mark up first so racing writes stop excluding this node, then
		// drain what accumulated.
		ctx := storage.NewContext()
		s.Repair(ctx)
		s.resumeMigration(ctx)
	}
}

func (sv *server) isDown() bool {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return sv.down
}

func (sv *server) isWiped() bool {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return sv.wiped
}

// descOwners returns the descriptor replica set for key, primary first.
// The result is shared with the placement cache: callers must not mutate.
func (s *Store) descOwners(key string) []int {
	return s.ownersForHash(descRingHash(key))
}

// chunkOwners returns the replica set for one chunk, primary first. The
// result is shared with the placement cache: callers must not mutate. Hot
// paths that already computed id.ringHash() call ownersForHash directly so
// the hash also selects the lock stripe.
func (s *Store) chunkOwners(id chunkID) []int {
	return s.ownersForHash(id.ringHash())
}

// primaryDesc returns the primary descriptor server and its descriptor for
// key, or storage.ErrNotFound — storage.ErrUnavailable while the primary is
// crash-wiped, whose table cannot say the key is absent. Called under key's
// latch, what it returns stays current until the latch is released.
//
// While a migration is in flight the new primary may not have received its
// descriptor yet; the lookup then reads the freshest copy (freshestDesc)
// instead of failing, so foreground ops keep succeeding throughout a live
// join/leave.
func (s *Store) primaryDesc(key string) (*server, descriptor, error) {
	sv, d, ok, wiped := s.lookupDesc(key)
	if wiped {
		return nil, descriptor{}, fmt.Errorf("blob %q: primary crashed: %w", key, storage.ErrUnavailable)
	}
	if !ok {
		return nil, descriptor{}, fmt.Errorf("blob %q: %w", key, storage.ErrNotFound)
	}
	return sv, d, nil
}

// lookupDesc is primaryDesc's lookup without the error it formats: ok
// reports a live descriptor, and on a miss wiped a crash-wiped primary.
func (s *Store) lookupDesc(key string) (sv *server, d descriptor, ok, wiped bool) {
	sv = s.servers[s.descOwners(key)[0]]
	if d, ok = sv.descCopy(key); !ok && sv.isWiped() {
		return sv, d, false, true
	}
	if !ok && s.migIntent.Load() != nil {
		d, ok = s.freshestDesc(key)
	}
	return sv, d, ok && !d.dead, false
}

// latchDesc is how an op reaches a blob: it takes key's latch, exclusively
// when write is set, and resolves the descriptor (primaryDesc). A write is
// refused while the descriptor primary is down; meta charges the size lookup,
// one metadata op on the primary. On success the caller holds the latch and
// releases it with unlockKey; on an error it is released.
func (s *Store) latchDesc(ctx *storage.Context, key string, write, meta bool) (*server, descriptor, error) {
	s.lockKey(key, write)
	primary, d, err := s.primaryDesc(key)
	if err == nil && write && primary.isDown() {
		err = fmt.Errorf("blob %q: primary down: %w", key, storage.ErrUnavailable)
	}
	if err != nil {
		s.unlockKey(key, write)
		return nil, descriptor{}, err
	}
	if meta {
		s.cluster.MetaOp(ctx.Clock, primary.node, 1)
	}
	return primary, d, nil
}

// freshestDesc returns the freshest copy of key's descriptor, the highest
// version any non-wiped server holds, tombstones and soft-down tables
// included, and whether one exists. The scope is surveyChunk's: the owners
// while the store is clean, every server otherwise.
func (s *Store) freshestDesc(key string) (descriptor, bool) {
	var best descriptor
	owners, clean := s.descOwners(key), s.clean()
	for i, sv := range s.servers {
		if clean && !containsNode(owners, i) {
			continue
		}
		if d, ok := sv.descCopy(key); ok && d.ver > best.ver {
			best = d
		}
	}
	return best, best.ver > 0
}

// hdrPool stages the small record headers of vectored WAL appends (chunk
// addressing, descriptor metadata). Chunk data never enters it: wal.AppendV
// streams the data segment from the caller's buffer straight to the log
// medium, so the only staged bytes are the header's few dozen.
var hdrPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// EventKind says what an Event reports: a WAL append call that returned, a
// migration batch boundary, a chunk version an op stamped, or an op's end.
type EventKind uint8

const (
	EventAppend EventKind = iota
	EventBatch
	EventChunk
	EventOp
)

// OpKind names the foreground mutation an EventOp reports.
type OpKind uint8

const (
	OpCreate OpKind = iota + 1 // CreateBlob, CreateBlobVersion
	OpWrite
	OpTruncate
	OpDelete // DeleteBlob, DeleteBlobVersion
	OpRename
)

// Event is one observation, passed by value and built without allocation.
// An EventAppend names the append: its node and lane, the type and order key
// of its first record, and how many records (keys Key … Key+Records-1, all on
// Lane) and encoded bytes it added. An EventBatch carries Batch: -1 once the
// migration intent is durable and before any batch, then 0, 1, … after each.
//
// Every create, write, truncate, delete and rename ends with one EventOp,
// failed or not, after its last append and under its key latch, so one key's
// EventOps arrive in effect order: Op, Blob (To: a rename's new key), Err,
// the input (a write's Off and Data, valid only during the call; a truncate's
// new size in Off) and the descriptor Ver and Size it left on the primary
// (To's for a rename). Before it, one EventChunk per chunk stamped gives
// Blob, the index in Off, Ver, and in Type what it left: RecWrite bytes,
// RecChunkDelete a tombstone, RecChunkTruncate a trim; a failed op's void.
type Event struct {
	Kind                  EventKind
	Node                  cluster.NodeID
	Lane                  int
	Type                  wal.RecordType
	Key, Ver              uint64
	Records, Bytes, Batch int
	Op                    OpKind
	Blob, To              string
	Off, Size             int64
	Data                  []byte
	Err                   error
}

// Observe installs fn (nil: none) as the one event subscriber; call it while
// the store is quiescent. An append, chunk or op event fires on the op's
// goroutine, possibly under a stripe lock or a key latch, so fn must not call
// into the Store there. A batch event fires on the migration caller with no
// data-plane lock held, so fn may run foreground ops there, whose events it
// sees too. Checkpoint rewrites are not reported.
func (s *Store) Observe(fn func(Event)) { s.observe = fn }

// opEnd reports an op's end, *errp its outcome, to a subscriber (EventOp).
func (s *Store) opEnd(op OpKind, key, to string, off int64, data []byte, errp *error) {
	if s.observe != nil {
		d, _ := s.servers[s.descOwners(cmp.Or(to, key))[0]].descCopy(cmp.Or(to, key))
		s.observe(Event{Kind: EventOp, Op: op, Blob: key, To: to, Off: off, Data: data, Err: *errp, Ver: d.ver, Size: d.size})
	}
}

// opFailed reports an op that failed before taking its latch and returns err.
func (s *Store) opFailed(op OpKind, key, to string, off int64, data []byte, err error) error {
	s.opEnd(op, key, to, off, data, &err)
	return err
}

// walAppendLane records a durable mutation on one of sv's log lanes — the
// record payload being header||data, appended vectored so data is copied
// exactly once, with sum = wal.Checksum(data) (0 for no data) folded into
// the record CRC instead of reading data again — and charges the log
// persistence on sv's disk through cg (directly on the caller's clock, or
// into a fan task's ledger). It returns data as the lane stored it.
func (s *Store) walAppendLane(cg *charge, sv *server, lane int, t wal.RecordType, header, data []byte, sum uint32) []byte {
	key, n, stored := sv.wal.AppendVSum(lane, t, header, data, sum)
	cg.diskAppend(sv.node, n)
	if s.observe != nil {
		s.observe(Event{Kind: EventAppend, Node: sv.node, Lane: lane, Type: t, Key: key, Records: 1, Bytes: n})
	}
	return stored
}

// walAppendChunk logs a chunk mutation on the chunk's lane: the addressing
// header is staged in a pooled buffer, the chunk bytes stream through the
// vectored append. h is the chunk's placement hash, which callers on the
// hot path have already computed — it selects the lane exactly as it
// selects the lock stripe. sum is wal.Checksum(data), 0 for no data. It
// returns data as the lane stored it, the view a chunk entry keeps.
func (s *Store) walAppendChunk(cg *charge, sv *server, t wal.RecordType, h uint64, id chunkID, within int64, ver uint64, data []byte, sum uint32) []byte {
	bp := hdrPool.Get().(*[]byte)
	*bp = appendChunkHeader((*bp)[:0], id, within, ver)
	stored := s.walAppendLane(cg, sv, sv.chunkLane(h), t, *bp, data, sum)
	hdrPool.Put(bp)
	return stored
}

// walAppendMeta logs d as sv's copy of key's descriptor on the descriptor's
// lane through the same pooled staging (meta payloads are all header, no data
// segment): a RecMeta for a live copy, a RecDelete for a tombstone, and a
// RecDelete at version 0 for a stray's drop (the zero descriptor).
func (s *Store) walAppendMeta(cg *charge, sv *server, key string, d descriptor) {
	bp := hdrPool.Get().(*[]byte)
	*bp = appendMetaPayload((*bp)[:0], key, d.size, d.ver)
	s.walAppendLane(cg, sv, sv.metaLane(key), d.recType(), *bp, nil, 0)
	hdrPool.Put(bp)
}

// CreateBlob registers a new, empty blob. The descriptor is written to its
// primary and replicated synchronously under the key's latch, so an op that
// finds the key waits until every replica holds it.
func (s *Store) CreateBlob(ctx *storage.Context, key string) error {
	_, err := s.CreateBlobVersion(ctx, key)
	return err
}

// CreateBlobVersion is CreateBlob that also returns the version it stamped
// on the descriptor, for DeleteBlobVersion (storage.BlobCreateUndoer).
func (s *Store) CreateBlobVersion(ctx *storage.Context, key string) (ver uint64, err error) {
	if key == "" || strings.ContainsRune(key, '\x00') {
		return 0, s.opFailed(OpCreate, key, "", 0, nil, fmt.Errorf("blob key %q: %w", key, storage.ErrInvalidArg))
	}
	s.member.RLock()
	defer s.member.RUnlock()
	s.lockKey(key, true)
	defer s.unlockKey(key, true)
	defer s.opEnd(OpCreate, key, "", 0, nil, &err)
	_, ver, err = s.createLocked(ctx, key)
	return ver, err
}

// createLocked creates key with its latch held exclusively and returns the
// descriptor primary and the version stamped. RenameBlob calls it while
// holding both keys' latches.
func (s *Store) createLocked(ctx *storage.Context, key string) (*server, uint64, error) {
	primary := s.servers[s.descOwners(key)[0]]
	if primary.isDown() {
		return nil, 0, fmt.Errorf("blob %q: primary down: %w", key, storage.ErrUnavailable)
	}
	// One metadata RPC to the primary: flat-namespace single lookup — this
	// is the cost asymmetry against hierarchical path resolution.
	s.cluster.MetaOp(ctx.Clock, primary.node, 1)
	// A lookup, because mid-migration the key may still live only on its old
	// holders.
	if _, _, ok, _ := s.lookupDesc(key); ok {
		return nil, 0, fmt.Errorf("blob %q: %w", key, storage.ErrExists)
	}
	return primary, s.setSize(ctx, key, primary, 0), nil
}

// setSize is the one way a blob's size changes, with key latched exclusively
// by the caller: it stamps the size one version past the freshest copy, sets
// and logs it on the primary, then on every replica in parallel (putDesc plus
// a metadata op and a RecMeta each) but a crash-wiped one, which Recover
// catches up: no log may carry a version stamped without seeing it. It
// returns the version stamped.
func (s *Store) setSize(ctx *storage.Context, key string, primary *server, size int64) uint64 {
	d, _ := s.freshestDesc(key)
	d = descriptor{size: size, ver: d.ver + 1}
	primary.putDesc(key, d)
	cg := s.directCharge(ctx)
	s.walAppendMeta(&cg, primary, key, d)
	fan := s.newFan()
	for _, o := range s.descOwners(key)[1:] {
		if s.servers[o].isWiped() {
			continue
		}
		t := fan.task(taskDescReplicate)
		t.sv = s.servers[o]
		t.key = key
		t.desc = d
		fan.spawn(t)
	}
	fan.join(ctx)
	return d.ver
}

// DeleteBlob removes the blob's descriptor and drops every chunk to a
// tombstone. Chunk deletion records bound for the same server are batched
// into one WAL append.
func (s *Store) DeleteBlob(ctx *storage.Context, key string) error {
	return s.deleteVersion(ctx, key, 0, false)
}

// DeleteBlobVersion is DeleteBlob for a blob whose descriptor is still at
// ver, the one CreateBlobVersion returned; a blob at any other version is
// left as it is (storage.BlobCreateUndoer).
func (s *Store) DeleteBlobVersion(ctx *storage.Context, key string, ver uint64) error {
	return s.deleteVersion(ctx, key, ver, true)
}

// deleteVersion deletes key, when match is set only if its descriptor is at ver.
func (s *Store) deleteVersion(ctx *storage.Context, key string, ver uint64, match bool) (err error) {
	s.member.RLock()
	defer s.member.RUnlock()
	primary, d, err := s.latchDesc(ctx, key, true, false)
	if err != nil {
		return s.opFailed(OpDelete, key, "", 0, nil, err)
	}
	defer s.unlockKey(key, true)
	defer s.opEnd(OpDelete, key, "", 0, nil, &err)
	if match && d.ver != ver {
		return fmt.Errorf("blob %q at version %d, not %d: %w", key, d.ver, ver, storage.ErrExists)
	}
	s.deleteLocked(ctx, key, primary, d.size)
	return nil
}

// deleteLocked performs the deletion of a blob of the given size with its
// key latched exclusively. RenameBlob calls it while also holding the other
// key's latch.
func (s *Store) deleteLocked(ctx *storage.Context, key string, primary *server, size int64) {
	s.cluster.MetaOp(ctx.Clock, primary.node, 1)
	nChunks := (size + int64(s.cfg.ChunkSize) - 1) / int64(s.cfg.ChunkSize)

	// Drop chunk replicas, recording each removal durably; records are
	// grouped per server and logged with one batched append each.
	batch := newWalBatch(s)
	s.tombstoneChunks(batch, key, 0, nChunks)
	batch.flush(ctx)
	// Every owner keeps a tombstone one version past the freshest copy, so a
	// copy a torn log replays, or a stray the handover has not reached yet,
	// is older. A crash-wiped owner is left out, as setSize leaves it out.
	d, _ := s.freshestDesc(key)
	d = descriptor{ver: d.ver + 1, dead: true}
	cg := s.directCharge(ctx)
	owners := s.descOwners(key)
	for i := len(owners) - 1; i >= 0; i-- {
		if sv := s.servers[owners[i]]; !sv.isWiped() {
			sv.putDesc(key, d)
			s.walAppendMeta(&cg, sv, key, d)
		}
	}
}

// tombstoneChunks drops chunks [from, to) of key on every owner, staging the
// records into batch. Each chunk is surveyed like a write and dropped at one
// past the highest version any non-wiped server holds, so what every owner
// keeps is a tombstone that outranks any older copy — one a torn log replays,
// or a stray's still in flight — and is itself what a behind replica pulls.
func (s *Store) tombstoneChunks(batch *walBatch, key string, from, to int64) {
	for idx := from; idx < to; idx++ {
		id := chunkID{key, idx}
		h := id.ringHash()
		var buf [8]replica
		ver := s.surveyChunk(h, id, buf[:]).max + 1
		for _, o := range s.ownersForHash(h) {
			sv := s.servers[o]
			sv.deleteChunk(h, id, ver)
			batch.addChunk(sv, wal.RecChunkDelete, h, id, 0, ver, nil)
		}
		if s.observe != nil {
			s.observe(Event{Kind: EventChunk, Type: wal.RecChunkDelete, Blob: key, Off: idx, Ver: ver})
		}
	}
}

// BlobSize reports the blob's size from its primary descriptor.
func (s *Store) BlobSize(ctx *storage.Context, key string) (int64, error) {
	s.member.RLock()
	defer s.member.RUnlock()
	_, d, err := s.latchDesc(ctx, key, false, true)
	if err != nil {
		return 0, err
	}
	s.unlockKey(key, false)
	return d.size, nil
}

// Scan lists blobs with the given key prefix in key order. The request is
// broadcast to every server's descriptor table, and the simulated cost is the
// paper's flat scan: each server is charged for examining every descriptor it
// holds, whatever the prefix, the reason the paper calls scan-based
// namespace emulation "far from optimized". The wall-clock path walks only
// the prefix, because each table keeps its keys in order (desctable.go).
//
// A key is listed exactly when BlobSize would find it: every key a table
// holds, primary copy or not, resolves through primaryDesc under its latch, so
// a blob whose new primary has not received its descriptor yet during a live
// join or drain is still listed, and a deleted one is not.
func (s *Store) Scan(ctx *storage.Context, prefix string) ([]storage.BlobInfo, error) {
	s.member.RLock()
	defer s.member.RUnlock()
	// Tasks collect keys only: a worker must never block on a key latch
	// (writers hold it across their own fan joins, see the dispatch.go
	// contract), so keys are resolved on the caller after the join.
	results := make([][]string, len(s.servers))
	fan := s.newFan()
	for i, sv := range s.servers {
		t := fan.task(taskFunc)
		t.fn = func(cg *charge) error {
			cg.metaOp(sv.node, 1)
			sv.mu.RLock()
			examined := sv.blobs.len()
			sv.blobs.ascend(prefix, func(key string, _ descriptor) {
				results[i] = append(results[i], key)
			})
			sv.mu.RUnlock()
			// One metadata unit per four descriptors examined approximates
			// RADOS-style pool listing cost.
			cg.localCompute(s.cluster.Cost().MetaTime(1 + examined/4))
			return nil
		}
		fan.spawn(t)
	}
	if _, err := fan.join(ctx); err != nil {
		return nil, err
	}
	var out []storage.BlobInfo
	for _, key := range mergeKeys(results) {
		// On the caller with no other latch held, so it cannot deadlock
		// against a writer's fan.
		s.lockKey(key, false)
		_, d, err := s.primaryDesc(key)
		s.unlockKey(key, false)
		if err == nil {
			out = append(out, storage.BlobInfo{Key: key, Size: d.size})
		}
	}
	return out, nil
}

// walBatch accumulates per-(server,lane) WAL records so a multi-record
// operation (chunk drops of a delete, commit markers of a 2PC write)
// issues one wal.MultiLog.AppendNV per lane touched instead of one append
// per record. Only the small record headers are staged (in one pooled
// buffer; spec headers point into it) — data segments, when present, ride
// through the vectored append straight from the caller's bytes. Batches
// are pooled, and the per-lane spec slices keep their capacity across
// recycling, so a steady-state commit phase allocates nothing.
type walBatch struct {
	s       *Store
	servers []*server
	lanes   []int // parallel to servers: the lane of each group
	specs   [][]wal.AppendVSpec
	extents [][][2]int // staged header extents, parallel to specs
	buf     *[]byte
}

var walBatchPool = sync.Pool{New: func() any { return new(walBatch) }}

func newWalBatch(s *Store) *walBatch {
	b := walBatchPool.Get().(*walBatch)
	b.s = s
	b.buf = hdrPool.Get().(*[]byte)
	*b.buf = (*b.buf)[:0] // pooled buffers keep their stale length; start clean
	return b
}

// release returns the staging buffer and the batch to their pools. The
// specs/extents backing arrays are kept (truncated on slot reuse in add)
// with their spec entries zeroed so no caller data buffer stays reachable
// from the pool; the servers slice is what bounds the live slot count.
func (b *walBatch) release() {
	hdrPool.Put(b.buf)
	b.buf = nil
	for i := range b.servers {
		b.servers[i] = nil
		for j := range b.specs[i] {
			b.specs[i][j] = wal.AppendVSpec{}
		}
	}
	b.servers = b.servers[:0]
	b.lanes = b.lanes[:0]
	b.s = nil
	walBatchPool.Put(b)
}

// addChunk stages one chunk record for sv, grouped under the chunk's log
// lane (h is its placement hash). data (may be nil for the marker records)
// is carried by reference into the vectored append; the caller must keep
// it unchanged until the batch flushes.
func (b *walBatch) addChunk(sv *server, t wal.RecordType, h uint64, id chunkID, within int64, ver uint64, data []byte) {
	start := len(*b.buf)
	*b.buf = appendChunkHeader(*b.buf, id, within, ver)
	b.add(sv, sv.chunkLane(h), t, start, len(*b.buf), data)
}

// add records the spec under the (sv, lane) group. Header extents are
// resolved into slices only at flush time, because the staging buffer may
// still be reallocated by later appends; the data segment is stable and
// stored now.
func (b *walBatch) add(sv *server, lane int, t wal.RecordType, start, end int, data []byte) {
	i := -1
	for j, known := range b.servers {
		if known == sv && b.lanes[j] == lane {
			i = j
			break
		}
	}
	if i < 0 {
		i = len(b.servers)
		b.servers = append(b.servers, sv)
		b.lanes = append(b.lanes, lane)
		if len(b.specs) <= i {
			b.specs = append(b.specs, nil)
			b.extents = append(b.extents, nil)
		} else {
			// Recycled slot: keep the backing arrays, drop stale entries.
			b.specs[i] = b.specs[i][:0]
			b.extents[i] = b.extents[i][:0]
		}
	}
	b.specs[i] = append(b.specs[i], wal.AppendVSpec{Type: t, Payload: data})
	b.extents[i] = append(b.extents[i], [2]int{start, end})
}

// resolve turns the staged header extents into slices, once the staging
// buffer has stopped growing.
func (b *walBatch) resolve() {
	for i := range b.servers {
		for j := range b.specs[i] {
			ext := b.extents[i][j]
			b.specs[i][j].Header = (*b.buf)[ext[0]:ext[1]]
		}
	}
}

// walAppendBatch logs specs to one of sv's lanes with a single AppendNV
// (atomic within the lane) and charges the disk append through cg. Shared
// by walBatch.flush (direct charging) and the dispatcher's taskWalFlush
// (ledger charging), so the append invariant and the cost shape cannot
// diverge between the two.
func (s *Store) walAppendBatch(cg *charge, sv *server, lane int, specs []wal.AppendVSpec) {
	key, n := sv.wal.AppendNV(lane, specs)
	cg.diskAppend(sv.node, n)
	if s.observe != nil {
		s.observe(Event{Kind: EventAppend, Node: sv.node, Lane: lane, Type: specs[0].Type, Key: key, Records: len(specs), Bytes: n})
	}
}

// flush logs every (server,lane) batch, charging the disk appends
// sequentially on ctx's clock — the cost shape of a client walking replica
// sets one record at a time (deletes, truncates).
func (b *walBatch) flush(ctx *storage.Context) {
	b.resolve()
	cg := b.s.directCharge(ctx)
	for i := range b.servers {
		b.s.walAppendBatch(&cg, b.servers[i], b.lanes[i], b.specs[i])
	}
	b.release()
}

// flushParallel logs each (server,lane) batch as a worker-pool task on its
// own forked clock and joins on the slowest — the cost shape of the 2PC
// commit phase, where every participant persists its commit records
// concurrently, each after one commit round trip per record on the
// participant's clock.
func (b *walBatch) flushParallel(ctx *storage.Context) {
	b.resolve()
	fan := b.s.newFan()
	for i := range b.servers {
		t := fan.task(taskWalFlush)
		t.sv = b.servers[i]
		t.lane = b.lanes[i]
		t.specs = b.specs[i]
		fan.spawn(t)
	}
	// join waits for every append before the staging buffer is recycled.
	fan.join(ctx)
	b.release()
}
