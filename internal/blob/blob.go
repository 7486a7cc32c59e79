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
//   - Týr-style lightweight transactions: a write spanning several chunks
//     commits atomically via a two-phase protocol whose round trips are
//     charged to the virtual clock.
//
// Correctness (read-your-writes, atomic multi-chunk visibility, scan
// completeness) is implemented for real on in-memory data; only durations
// are simulated. A per-blob latch provides the atomic visibility the real
// system gets from versioned chunk sets, while the two-phase commit cost is
// charged explicitly, so benchmarks still see the protocol's latency.
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
//     contend on one RWMutex. The per-blob descriptor latch remains the
//     atomic-visibility point for multi-chunk commits.
//   - sharded WAL lanes: each server's write-ahead log is a wal.MultiLog —
//     Config.WALLanes lanes (default: the chunk-stripe count), a chunk's
//     lane derived from the same placement-hash bits as its lock stripe,
//     descriptor records routed by the descriptor's ring hash — so parallel
//     writers to different chunks append under different lane mutexes. A
//     server-scoped order key stamped into every record lets recovery merge
//     the lanes back into exact logical order
//     (wal.MultiLog.RecoverMerged). Records append vectored
//     (AppendV/AppendNV): only the small addressing header is staged in a
//     pooled scratch buffer, while chunk data streams from the caller's
//     buffer to the log medium in exactly one copy.
//     Multi-record operations batch same-(server,lane) records through
//     AppendNV.
//   - goroutine fan-out: per-chunk work runs on the goroutine that joins
//     the fan, with idle workers of a bounded pool stealing its tail
//     (dispatch.go), and with resource charges recorded into per-task ledgers
//     and folded into the shared cluster accounting at join, so real
//     parallel execution keeps the sequential implementation's virtual
//     clock semantics bit-for-bit. See dispatch.go for the concurrency
//     contract.
//
// # Failure semantics
//
// The store keeps serving through node failures and heals on rejoin. One
// rule decides freshness everywhere (survey.go): chunk versions. A write is
// versioned one past the highest version any non-wiped server holds and
// applies only onto replicas holding exactly the version before it; every
// other way a replica changes — repair, rejoin resync, migration — is a
// whole-chunk replace at its source's version (installChunk). So the highest
// version of a chunk always holds every acknowledged byte, and a replica may
// serve a read, or seed a copy, exactly when it holds that maximum. Soft-down
// servers keep their memory (the stand-in for monitor-layer peering
// metadata) and count toward the maximum, crash-wiped ones do not; a read
// with no live holder at the maximum fails with storage.ErrUnavailable
// rather than return older bytes.
//
// Degraded writes. An owner that is down, or behind, at the write's placement
// survey is EXCLUDED from the write, never partially applied to: its version
// stays frozen below the excluding write. The write proceeds on the rest as
// long as one owner remains, a down chunk primary being promoted past.
//
// Descriptor primaries are not promoted past. A mutation — WriteBlob,
// TruncateBlob, DeleteBlob, Txn.Commit, RenameBlob (either key), CreateBlob —
// is refused with storage.ErrUnavailable exactly when the descriptor primary
// (descOwners(key)[0]) of a key it names is down: 1/N of the keyspace with
// one of N nodes down. A refusal changes nothing — no bytes, no size, no
// repair debt, no key created — every other key is served degraded as above,
// and refused keys stay readable (TestDescriptorPrimaryDownRefusalSet).
//
// Repair debt is only a work list. Every replica that applied a degraded
// write durably logs a RecRepairNeeded record naming the excluded owners
// (full-mask overwrite semantics in the record's version slot; mask 0
// deletes the entry); rejoin resync and the migration sweep list the owners
// they leave behind the same way. An entry for target T on holder H clears
// once ver(T) ≥ ver(H) — a stale or vacuous entry costs one no-op repair and
// can hide nothing. The store-wide entry count (RepairPending) and the
// migrating flag are the "not known clean" gate: while both are zero every
// owner of every chunk holds its maximum, and reads take the first live
// owner with no probing at all. SetDown(node, false), Recover, the writer's
// own epilogue (an excluded owner that flapped back up mid-write) and the
// end of a migration drain the list (repair.go).
//
// Rejoin resync. Recover additionally version-syncs the replayed state
// against live peers BEFORE rejoining (resyncNode): a torn lane tail can
// discard acknowledged writes together with the very debt records that
// named them, so version comparison is the only witness left. It pulls what
// peers hold newer, lists peers behind the replayed log, and drops replayed
// chunks that live desc-owner peers say were deleted or truncated away
// rather than spreading the resurrection back.
//
// Fault injection enters at two layers: wal.FaultMedium injects clean
// errors, torn writes, and slow writes under the log (WAL-layer tests),
// and the cluster layer injects seeded transient per-op faults that the
// data plane absorbs with bounded retry and virtual-clock backoff
// (fault.go); crashes are simulated by dropping volatile state and
// replaying the (possibly torn) log.
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
// a RecMigrateEnd once the sweep completes. A crash anywhere between the
// two recovers with the intent open; the last Recover that leaves no
// server wiped rolls the migration forward (resumeMigration) by
// reconciling every held chunk and descriptor against the current ring —
// copy to owners missing a replica, delete from holders that lost
// ownership — so recovery always lands on a placement the system could
// have reached, never a half-remembered sweep position. Checkpoints re-log
// an open intent before resetting the lanes, so compaction cannot lose it.
//
// The epoch flip is atomic with respect to foreground ops. Ops hold
// Store.member shared for their duration; the ring mutation takes it
// exclusively for an instant. An in-flight write therefore lands entirely
// on the old owner sets (its chunks are picked up as holders by the sweep)
// or entirely on the new ones — never a mix that could strand an
// acknowledged write on a replica the sweep then deletes.
//
// Every record is self-contained; batches only throttle. The sweep moves a
// chunk the way repair does: the freshest copy goes onto each owner behind it
// through installChunk — memory and one RecWrite together under the target's
// stripe lock — and a holder outside the replica set logs its RecChunkDelete
// only after an owner's install has returned. A crash after any record
// therefore leaves every chunk on some server, and the roll-forward sweep
// redoes what is missing. A batch (Config.MigrationBatchChunks, at most 1 MiB
// of payload) is the dispatch and throttle quantum: a token bucket
// (Config.MigrationRateBytes per virtual-time tick) debits each batch's bytes
// before dispatch, charging deficits to the migration caller's clock, and at
// most one batch is in flight on the pool.
//
// Live traffic during the sweep. While Store.migrating is nonzero the store
// is not clean, so reads and writes survey versions (survey.go) with the
// scope widened from the current owners to every non-wiped server: a
// chunk's freshest copy may still sit on the drained node or a stray holder
// the sweep has not reached, while a gained owner holds nothing yet. The
// same rule as under failures then applies unchanged — reads serve a live
// holder of the maximum, writes skip owners still behind it and list them.
// The sweep copies the maximum to every reachable owner behind it (a
// soft-down owner receives it like a foreground write; a crash-wiped one
// resyncs at its own Recover) and deletes a stray only once an owner holds
// its bytes.
// Descriptors move by sharing the canonical *descriptor pointer with
// gained owners under the blob's latch, so writers racing the handover
// still serialize on a single latch and log sizes in a replayable order.
//
// Draining a node resets its logs. RemoveServer clears the drained node's
// memory AND its WAL lanes (ResetAll) once the sweep completes, so a later
// Crash/Recover of that node — or a rejoin via AddServer — cannot
// resurrect pre-drain state from stale records.
package blob

import (
	"fmt"
	"runtime"
	"sort"
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
	// SerialRecovery makes Store.Recover decode the WAL lanes with the
	// single-threaded merge instead of the parallel lane-decode pipeline
	// (recoverfeed.go). Recovered state is identical by construction — the
	// merge engine is shared and only the decode staging differs — which
	// the equivalence property tests pin byte-for-byte; the knob exists as
	// that oracle and for debugging.
	SerialRecovery bool
	// MigrationBatchChunks caps how many chunks one rebalance batch moves:
	// each AddServer/RemoveServer sweep is cut into batches of at most this
	// many chunks (and migrationBatchBytes of payload). A batch is the
	// dispatch and throttle quantum only — crash safety is per record.
	// Defaults to 16.
	MigrationBatchChunks int
	// MigrationRateBytes throttles the rebalance sweep against foreground
	// traffic: a token bucket holding one migrationTick's worth of budget
	// refills MigrationRateBytes per virtual-time tick, and a batch's bytes
	// are debited before it dispatches — deficits charge idle ticks to the
	// migration caller's virtual clock, never to foreground ops. Defaults
	// to 8 MiB per tick. Set to a huge value to effectively disable
	// throttling (tests do).
	MigrationRateBytes int
	// MigrationBatchHook, when set, is called on the migration caller's
	// goroutine at every batch boundary of a rebalance sweep: once with -1
	// after the intent is durable but before any batch dispatches, then
	// once after each batch. Benchmarks and tests use it to
	// interleave foreground work with a live migration at deterministic
	// points; production configs leave it nil.
	MigrationBatchHook func(batch int)
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
	if c.MigrationRateBytes <= 0 {
		c.MigrationRateBytes = 8 << 20
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

// less orders chunk IDs by (key, idx) — the total order checkpoint
// streaming uses so one seed always writes one log.
func (c chunkID) less(o chunkID) bool {
	return c.key < o.key || (c.key == o.key && c.idx < o.idx)
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
	// repairPending counts debt entries (chunks owing repair to at least
	// one replica) across every server. While it and migrating are zero —
	// the steady state — reads take the fast path with no version probing.
	repairPending atomic.Int64
	// metrics counts failure-domain events: degraded writes, transient
	// retries, repaired chunks/bytes. Only event paths touch it, so the
	// healthy hot path pays nothing.
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
	// migrating is nonzero while a migration sweep (or crash roll-forward)
	// is in flight: the store is then not clean, and chunk surveys widen
	// to every non-wiped server (survey.go).
	migrating atomic.Int64
	// migIntent publishes the open migration intent (live, or replayed
	// from a RecMigrateBegin without a matching End) so checkpoints can
	// re-log it and Recover can roll the migration forward once no server
	// is left wiped.
	migIntent atomic.Pointer[migrationIntent]
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
	m  map[chunkID][]byte
	// ver holds the replica-comparable version of each chunk this server
	// stores: assigned by the writer as one more than the highest version
	// any server held, installed identically on every replica that applied
	// the write, and persisted in the chunk's WAL records. It is the one
	// freshness witness (survey.go).
	ver map[chunkID]uint64
	// debt maps a chunk to the bitmask of node IDs known to be behind this
	// holder's copy — the repair work list (repair.go). Every mutation is
	// mirrored by a RecRepairNeeded record carrying the full new mask, so
	// the list survives crashes.
	debt map[chunkID]uint64
}

// server is the per-node state: the descriptors this node owns as primary
// or replica, the chunks placed on it (lock-striped by placement hash), and
// its sharded write-ahead log.
type server struct {
	node cluster.NodeID
	mu   sync.RWMutex
	// blobs maps key -> descriptor for descriptors replicated here.
	blobs map[string]*descriptor
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
	// retained memory stays authoritative — its chunk versions and debt
	// masks must not be consulted. Crash sets it, Recover clears it once
	// the replayed tables are installed.
	wiped bool
	// repairPending points at the store-wide debt-entry counter so stripe
	// helpers can maintain it without a back-pointer to the Store.
	repairPending *atomic.Int64
	// migIntent points at the store-wide open-migration pointer so the
	// checkpoint planner (which only sees the server) can re-log an open
	// RecMigrateBegin before ResetAll drops it from the lanes.
	migIntent *atomic.Pointer[migrationIntent]
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

// copyChunk returns a copy of the chunk's bytes and its version, made
// while holding the stripe lock, so callers can use them without racing
// concurrent writers that mutate the live slice in place.
func (sv *server) copyChunk(h uint64, id chunkID) ([]byte, uint64, bool) {
	st := sv.stripe(h)
	st.mu.RLock()
	defer st.mu.RUnlock()
	data, ok := st.m[id]
	if !ok {
		return nil, 0, false
	}
	return append([]byte(nil), data...), st.ver[id], true
}

// chunkVer reads the chunk's version (0 when the server does not hold it).
func (sv *server) chunkVer(h uint64, id chunkID) uint64 {
	st := sv.stripe(h)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.ver[id]
}

func (sv *server) setChunk(h uint64, id chunkID, data []byte, ver uint64) {
	st := sv.stripe(h)
	st.mu.Lock()
	st.m[id] = data
	st.ver[id] = ver
	st.mu.Unlock()
}

// setDebtLocked installs the debt mask for id, maintaining the store-wide
// pending counter. The caller must hold st's write lock.
func (sv *server) setDebtLocked(st *chunkStripe, id chunkID, mask uint64) {
	if mask == 0 {
		if _, ok := st.debt[id]; ok {
			delete(st.debt, id)
			sv.repairPending.Add(-1)
		}
		return
	}
	if _, ok := st.debt[id]; !ok {
		sv.repairPending.Add(1)
	}
	st.debt[id] = mask
}

func (sv *server) deleteChunk(h uint64, id chunkID) {
	st := sv.stripe(h)
	st.mu.Lock()
	delete(st.m, id)
	delete(st.ver, id)
	sv.setDebtLocked(st, id, 0)
	st.mu.Unlock()
}

// trimChunk shortens the chunk to keep bytes if it is longer.
func (sv *server) trimChunk(h uint64, id chunkID, keep int64) {
	st := sv.stripe(h)
	st.mu.Lock()
	if c, ok := st.m[id]; ok && int64(len(c)) > keep {
		st.m[id] = c[:keep]
	}
	st.mu.Unlock()
}

// chunkCount sums the stripes.
func (sv *server) chunkCount() int {
	n := 0
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.RLock()
		n += len(st.m)
		st.mu.RUnlock()
	}
	return n
}

// forEachChunk calls fn for every chunk replica on the server, holding each
// stripe's read lock for the duration of its visits; fn must not mutate the
// data or call back into the stripe.
func (sv *server) forEachChunk(fn func(id chunkID, data []byte, ver uint64)) {
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.RLock()
		for id, data := range st.m {
			fn(id, data, st.ver[id])
		}
		st.mu.RUnlock()
	}
}

// forEachDebt calls fn for every debt entry on the server, under each
// stripe's read lock; fn must not call back into the stripe.
func (sv *server) forEachDebt(fn func(id chunkID, mask uint64)) {
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.RLock()
		for id, mask := range st.debt {
			fn(id, mask)
		}
		st.mu.RUnlock()
	}
}

// resetChunks drops every chunk replica and the version/debt tables
// (crash / drain), releasing the dropped debt from the pending counter.
func (sv *server) resetChunks() {
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.Lock()
		st.m = make(map[chunkID][]byte)
		st.ver = make(map[chunkID]uint64)
		if n := len(st.debt); n > 0 {
			sv.repairPending.Add(-int64(n))
			st.debt = make(map[chunkID]uint64)
		}
		st.mu.Unlock()
	}
}

// descriptor is a blob's metadata. The authoritative copy lives on the
// blob's primary descriptor server; replicas hold copies.
type descriptor struct {
	size    int64
	version uint64
	// latch serializes writes and makes multi-chunk commits atomically
	// visible. Only the primary's latch is used.
	latch sync.RWMutex
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
		helpers: runtime.GOMAXPROCS(0)}
	s.fanOffered, s.fanHelped = s.metrics.Counter("blob.fan.offered"), s.metrics.Counter("blob.fan.helped")
	for _, n := range c.Nodes() {
		sv := &server{
			node:          n.ID,
			blobs:         make(map[string]*descriptor),
			wal:           wal.NewMultiLog(cfg.WALLanes),
			repairPending: &s.repairPending,
			migIntent:     &s.migIntent,
		}
		for i := range sv.stripes {
			sv.stripes[i].m = make(map[chunkID][]byte)
			sv.stripes[i].ver = make(map[chunkID]uint64)
			sv.stripes[i].debt = make(map[chunkID]uint64)
		}
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
// writes, transient retries, repair traffic).
func (s *Store) Metrics() *metrics.Registry { return s.metrics }

// RepairPending reports how many chunk debt entries currently await repair
// across the store (0 in the healthy steady state).
func (s *Store) RepairPending() int64 { return s.repairPending.Load() }

// SetDown marks a server as failed (true) or recovered (false). Reads fall
// back to replicas of a down server; writes whose replica sets contain it
// proceed degraded on the owners that are left. Flipping a server back up
// runs the repair work list: the node is both a target (the writes it
// missed) and a source (writes only it holds, owed to peers that rejoined
// while it was away). Until a chunk's copy catches up, reads keep passing it
// over by version, so rejoin never serves stale bytes.
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
	traceStep(traceEvent{what: "setDown", node: node, on: down, was: was})
	if was && !down {
		// Mark up first so racing writes stop excluding this node, then
		// drain what accumulated.
		s.Repair(storage.NewContext())
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

// primaryDesc returns the primary descriptor server and the live descriptor
// for key, or storage.ErrNotFound.
//
// While a migration is in flight the new primary may not have received its
// descriptor copy yet; the lookup then falls back to the canonical holder
// (canonicalDesc) instead of failing, so foreground ops keep succeeding
// throughout a live join/leave. The fallback resolves to the same
// *descriptor object the migration sweep installs onto gained owners, so
// every op serializes on one latch per blob even mid-handover.
func (s *Store) primaryDesc(key string) (*server, *descriptor, error) {
	owners := s.descOwners(key)
	if len(owners) == 0 {
		return nil, nil, storage.ErrNotFound
	}
	sv := s.servers[owners[0]]
	sv.mu.RLock()
	d, ok := sv.blobs[key]
	sv.mu.RUnlock()
	if !ok {
		if s.migrating.Load() != 0 {
			if sv, d := s.canonicalDesc(key, owners); d != nil {
				return sv, d, nil
			}
		}
		return nil, nil, fmt.Errorf("blob %q: %w", key, storage.ErrNotFound)
	}
	return sv, d, nil
}

// canonicalDesc returns the canonical copy of a descriptor during a
// migration: the first current owner holding it, else the first holder in
// node order. Deterministic — concurrent callers resolve the same object,
// and the migration desc sweep installs exactly this object's pointer onto
// gained owners (install before delete, per key), so the canonical object
// is stable across the whole handover.
func (s *Store) canonicalDesc(key string, owners []int) (*server, *descriptor) {
	for _, o := range owners {
		sv := s.servers[o]
		sv.mu.RLock()
		d, ok := sv.blobs[key]
		sv.mu.RUnlock()
		if ok {
			return sv, d
		}
	}
	for _, sv := range s.servers {
		if sv.isWiped() {
			continue
		}
		sv.mu.RLock()
		d, ok := sv.blobs[key]
		sv.mu.RUnlock()
		if ok {
			return sv, d
		}
	}
	return nil, nil
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

// walAppendLane records a durable mutation on one of sv's log lanes — the
// record payload being header||data, appended vectored so data is copied
// exactly once — and charges the log persistence on sv's disk through cg
// (directly on the caller's clock, or into a fan task's ledger).
func (s *Store) walAppendLane(cg *charge, sv *server, lane int, t wal.RecordType, header, data []byte) {
	_, n, err := sv.wal.AppendV(lane, t, header, data)
	if err != nil {
		// The in-memory buffer cannot fail; a failure here is a bug.
		panic(fmt.Sprintf("blob: wal append: %v", err))
	}
	cg.diskAppend(sv.node, n)
}

// walAppendChunk logs a chunk mutation on the chunk's lane: the addressing
// header is staged in a pooled buffer, the chunk bytes stream through the
// vectored append. h is the chunk's placement hash, which callers on the
// hot path have already computed — it selects the lane exactly as it
// selects the lock stripe.
func (s *Store) walAppendChunk(cg *charge, sv *server, t wal.RecordType, h uint64, id chunkID, within int64, ver uint64, data []byte) {
	bp := hdrPool.Get().(*[]byte)
	*bp = appendChunkHeader((*bp)[:0], id, within, ver)
	s.walAppendLane(cg, sv, sv.chunkLane(h), t, *bp, data)
	hdrPool.Put(bp)
}

// walAppendMeta logs a descriptor mutation on the descriptor's lane through
// the same pooled staging (meta payloads are all header, no data segment).
func (s *Store) walAppendMeta(cg *charge, sv *server, t wal.RecordType, key string, size int64) {
	bp := hdrPool.Get().(*[]byte)
	*bp = appendMetaPayload((*bp)[:0], key, size)
	s.walAppendLane(cg, sv, sv.metaLane(key), t, *bp, nil)
	hdrPool.Put(bp)
}

// CreateBlob registers a new, empty blob. The descriptor is written to its
// primary and replicated synchronously.
func (s *Store) CreateBlob(ctx *storage.Context, key string) error {
	s.member.RLock()
	defer s.member.RUnlock()
	return s.createBlob(ctx, key)
}

// createBlob is CreateBlob without the member gate, for callers already
// holding it (RenameBlob): RLock does not nest — a writer queued between
// two read acquisitions deadlocks both.
func (s *Store) createBlob(ctx *storage.Context, key string) error {
	if key == "" || strings.ContainsRune(key, '\x00') {
		return fmt.Errorf("blob key %q: %w", key, storage.ErrInvalidArg)
	}
	owners := s.descOwners(key)
	primary := s.servers[owners[0]]
	if primary.isDown() {
		return fmt.Errorf("blob %q: primary down: %w", key, storage.ErrUnavailable)
	}
	// One metadata RPC to the primary: flat-namespace single lookup — this
	// is the cost asymmetry against hierarchical path resolution.
	s.cluster.MetaOp(ctx.Clock, primary.node, 1)

	primary.mu.Lock()
	if _, exists := primary.blobs[key]; exists {
		primary.mu.Unlock()
		return fmt.Errorf("blob %q: %w", key, storage.ErrExists)
	}
	primary.blobs[key] = &descriptor{}
	primary.mu.Unlock()
	cg := s.directCharge(ctx)
	s.walAppendMeta(&cg, primary, wal.RecCreate, key, 0)

	// Synchronous descriptor replication, replicas updated in parallel.
	s.replicateDesc(ctx, key, owners[1:], 0)
	return nil
}

// replicateDesc copies the descriptor (with the given size) to replicas,
// charging parallel RPC+WAL costs.
func (s *Store) replicateDesc(ctx *storage.Context, key string, replicas []int, size int64) {
	fan := s.newFan()
	for _, r := range replicas {
		t := fan.task(taskDescReplicate)
		t.sv = s.servers[r]
		t.key = key
		t.size = size
		t.rec = wal.RecCreate
		t.meta = true // upsert: the replica may not hold the descriptor yet
		fan.spawn(t)
	}
	fan.join(ctx)
}

// DeleteBlob removes the blob's descriptor and all chunk replicas. Chunk
// deletion records bound for the same server are batched into one WAL
// append.
func (s *Store) DeleteBlob(ctx *storage.Context, key string) error {
	s.member.RLock()
	defer s.member.RUnlock()
	primary, d, err := s.primaryDesc(key)
	if err != nil {
		return err
	}
	if primary.isDown() {
		return fmt.Errorf("blob %q: primary down: %w", key, storage.ErrUnavailable)
	}
	d.latch.Lock()
	defer d.latch.Unlock()
	return s.deleteLocked(ctx, key, primary, d)
}

// deleteLocked performs the deletion with the descriptor latch already held.
// RenameBlob (rename.go) calls it while additionally holding the target
// blob's latch, matching the multi-latch discipline of txn.go.
func (s *Store) deleteLocked(ctx *storage.Context, key string, primary *server, d *descriptor) error {
	s.cluster.MetaOp(ctx.Clock, primary.node, 1)
	size := d.size
	nChunks := (size + int64(s.cfg.ChunkSize) - 1) / int64(s.cfg.ChunkSize)

	// Drop chunk replicas, recording each removal durably; records are
	// grouped per server and logged with one batched append each.
	batch := newWalBatch(s)
	for idx := int64(0); idx < nChunks; idx++ {
		id := chunkID{key, idx}
		h := id.ringHash()
		for _, o := range s.ownersForHash(h) {
			sv := s.servers[o]
			sv.deleteChunk(h, id)
			batch.addChunk(sv, wal.RecChunkDelete, h, id, 0, 0, nil)
		}
	}
	batch.flush(ctx)
	// Drop descriptor replicas, then the primary copy.
	cg := s.directCharge(ctx)
	for _, o := range s.descOwners(key) {
		sv := s.servers[o]
		sv.mu.Lock()
		delete(sv.blobs, key)
		sv.mu.Unlock()
		s.walAppendMeta(&cg, sv, wal.RecDelete, key, 0)
	}
	return nil
}

// BlobSize reports the blob's size from its primary descriptor.
func (s *Store) BlobSize(ctx *storage.Context, key string) (int64, error) {
	s.member.RLock()
	defer s.member.RUnlock()
	primary, d, err := s.primaryDesc(key)
	if err != nil {
		return 0, err
	}
	s.cluster.MetaOp(ctx.Clock, primary.node, 1)
	d.latch.RLock()
	defer d.latch.RUnlock()
	return d.size, nil
}

// Scan lists blobs with the given key prefix in key order. The request is
// broadcast to every server's descriptor table (the flat namespace has no
// index), mirroring the paper's note that scan-based emulation is
// "far from optimized".
func (s *Store) Scan(ctx *storage.Context, prefix string) ([]storage.BlobInfo, error) {
	// Per-server hit slices: each key is reported only by its primary, so
	// the slices are disjoint and merge without deduplication. Tasks only
	// collect descriptor pointers — a worker must never block on the
	// descriptor latch (writers hold it across their own fan joins, see
	// the dispatch.go contract); sizes are read on the caller after join.
	type hit struct {
		key string
		d   *descriptor
	}
	results := make([][]hit, len(s.servers))
	fan := s.newFan()
	for i, sv := range s.servers {
		i, sv := i, sv
		t := fan.task(taskFunc)
		t.fn = func(cg *charge) error {
			cg.metaOp(sv.node, 1)
			sv.mu.RLock()
			examined := len(sv.blobs)
			for key, d := range sv.blobs {
				if !strings.HasPrefix(key, prefix) {
					continue
				}
				// Only the primary's answer is authoritative for size.
				if owners := s.descOwners(key); len(owners) > 0 && owners[0] == i {
					//blobvet:allow virtualtime per-server hit slices are disjoint scratch; the merged result is sorted by key after the join
					results[i] = append(results[i], hit{key, d})
				}
			}
			sv.mu.RUnlock()
			// The flat namespace has no index: every descriptor on the
			// server is examined regardless of the prefix — the reason the
			// paper calls scan-based directory emulation "far from
			// optimized". One metadata unit per four descriptors examined
			// approximates RADOS-style pool listing cost.
			cg.localCompute(s.cluster.Cost().MetaTime(1 + examined/4))
			return nil
		}
		fan.spawn(t)
	}
	if _, err := fan.join(ctx); err != nil {
		return nil, err
	}
	var out []storage.BlobInfo
	for _, part := range results {
		for _, h := range part {
			// The latch is the writers' lock for primary descriptor sizes;
			// taking it here, on the caller with no other lock held, cannot
			// deadlock against a writer's fan.
			h.d.latch.RLock()
			size := h.d.size
			h.d.latch.RUnlock()
			out = append(out, storage.BlobInfo{Key: h.key, Size: size})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
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

// addMeta stages one descriptor record for sv on the descriptor's lane.
func (b *walBatch) addMeta(sv *server, t wal.RecordType, key string, size int64) {
	start := len(*b.buf)
	*b.buf = appendMetaPayload(*b.buf, key, size)
	b.add(sv, sv.metaLane(key), t, start, len(*b.buf), nil)
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
	_, n, err := sv.wal.AppendNV(lane, specs)
	if err != nil {
		panic(fmt.Sprintf("blob: wal batch append: %v", err))
	}
	cg.diskAppend(sv.node, n)
}

// flush logs every (server,lane) batch, charging the disk appends
// sequentially on ctx's clock — the cost shape of a client walking replica
// sets one record at a time (deletes, truncates, transaction commit
// markers).
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
// concurrently. metaPerRecord additionally charges one commit round trip
// per record on the participant's clock before the append.
func (b *walBatch) flushParallel(ctx *storage.Context, metaPerRecord bool) {
	b.resolve()
	fan := b.s.newFan()
	for i := range b.servers {
		t := fan.task(taskWalFlush)
		t.sv = b.servers[i]
		t.lane = b.lanes[i]
		t.specs = b.specs[i]
		t.meta = metaPerRecord
		fan.spawn(t)
	}
	// join waits for every append before the staging buffer is recycled.
	fan.join(ctx)
	b.release()
}
