package blob

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wal"
)

// LogRecords replays a server's write-ahead log — all lanes, merged into
// logical append order by the records' order keys — and returns its
// records. Tests use this to assert that every namespace mutation was made
// durable before being acknowledged.
func (s *Store) LogRecords(node cluster.NodeID) ([]wal.Record, error) {
	sv := s.servers[int(node)]
	var recs []wal.Record
	err := sv.wal.ReplayMerged(func(rec wal.Record) error {
		recs = append(recs, rec) // each payload is fresh (wal.Decoder)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blob: replay node %d: %w", node, err)
	}
	return recs, nil
}

// Crash simulates a server losing its volatile state: the in-memory
// descriptor and chunk tables are wiped (the WAL, being durable, survives)
// and the server is marked down.
func (s *Store) Crash(node cluster.NodeID) {
	sv := s.servers[int(node)]
	sv.mu.Lock()
	sv.down = true
	sv.wiped = true
	sv.mu.Unlock()
	sv.reset()
}

// prepWrite is the buffered 2PC chunk write awaiting its commit record
// during replay. At most one is pending per chunk: the key latch
// serializes transactions and each transaction prepares a chunk exactly
// once, so a newer prepare supersedes any dangling one a torn transaction
// left behind — which is also what keeps a later commit from resurrecting
// stale prepared bytes.
type prepWrite struct {
	within int64
	ver    uint64
	data   []byte
}

// redo replays log records into one server's tables through the mutators
// live ops use (applyChunk, deleteChunk, trimChunk, setDebtLocked, putDesc
// and dropDesc), so what a record does is written down once. Recover
// runs it on the recovering server, CheckInvariants on a scratch one.
type redo struct {
	sv      *server
	pending map[chunkID]prepWrite
	// intent is the open migration intent, a Begin without its End; maxSeq
	// is the highest migration sequence number seen.
	intent *migrationIntent
	maxSeq uint64
}

func (r *redo) record(rec wal.Record) error {
	sv := r.sv
	switch rec.Type {
	case wal.RecMeta, wal.RecDelete:
		key, size, err := decMeta(rec.Payload)
		if err != nil {
			return err
		}
		if rec.Type == wal.RecDelete {
			sv.dropDesc(key)
		} else {
			sv.putDesc(key, size)
		}
	case wal.RecMigrateBegin, wal.RecMigrateEnd:
		seq, op, node, err := decMigrateIntent(rec.Payload)
		if err != nil {
			return err
		}
		r.maxSeq = max(r.maxSeq, seq)
		if rec.Type == wal.RecMigrateBegin {
			r.intent = &migrationIntent{seq: seq, op: op, node: node}
		} else if r.intent != nil && r.intent.seq == seq {
			r.intent = nil
		}
	case wal.RecWrite, wal.RecPrepWrite, wal.RecChunkCommit, wal.RecChunkDelete, wal.RecChunkTruncate, wal.RecRepairNeeded:
		id, within, ver, data, err := decChunkPayload(rec.Payload)
		if err != nil {
			return err
		}
		h := id.ringHash()
		switch rec.Type {
		case wal.RecWrite:
			// rec.Payload is a fresh per-record buffer (wal.Decoder), so a
			// whole-chunk payload becomes the chunk's bytes uncopied.
			applyChunk(sv, h, id, within, chunkBytes{b: data}, ver)
		case wal.RecPrepWrite:
			// The fresh buffer may be kept until the commit, too.
			// Overwrite, never accumulate: only the latest prepare belongs
			// to the transaction whose commit may follow.
			if r.pending == nil {
				r.pending = make(map[chunkID]prepWrite)
			}
			r.pending[id] = prepWrite{within: within, ver: ver, data: data}
		case wal.RecChunkCommit:
			if p, ok := r.pending[id]; ok {
				applyChunk(sv, h, id, p.within, chunkBytes{b: p.data}, p.ver)
				delete(r.pending, id)
			}
		case wal.RecChunkDelete:
			sv.deleteChunk(h, id, ver)
		case wal.RecChunkTruncate:
			sv.trimChunk(h, id, within, ver)
		case wal.RecRepairNeeded:
			// The full debt mask rides in the version slot, so the last
			// record wins; mask 0 clears the entry.
			st := sv.stripe(h)
			st.mu.Lock()
			sv.setDebtLocked(st, id, ver)
			st.mu.Unlock()
		}
	default:
		return fmt.Errorf("unknown record type %v", rec.Type)
	}
	return nil
}

// Recover rebuilds a server's volatile state by redoing its write-ahead log
// into emptied tables, then marks the server up again. Every mutation path
// appends a self-describing record (codec.go) whose payload shape is
// determined by its type — meta records carry (key, size), chunk records
// carry (chunkID, within, ver, data) — and redo applies each one through the
// same mutator the live op used, so replay reconstructs descriptors, chunk
// bytes and versions, tombstones and debt exactly. A failed replay leaves
// the server crashed.
//
// Multi-chunk (2PC) writes replay all-or-nothing: RecPrepWrite records are
// buffered per chunk and materialize only when that chunk's RecChunkCommit
// arrives; a prepare whose write failed is overwritten by the chunk's next
// prepare, and prepares still pending when the log ends (a failed write, a
// crash mid-transaction) are dropped.
//
// The log is a sharded lane log (wal.MultiLog): replay merges the lanes by
// the server-scoped order key stamped into every record, yielding exactly
// the logical append order — and exactly an order-key PREFIX of it. A torn
// lane tail creates a key gap, and every record logically after the gap,
// on any lane, is discarded with it; since the key order respects the
// order mutations were issued, the recovered state is always a state the
// live server actually passed through (a delete can never survive the
// chunk drops that preceded it, a commit never its prepares).
//
// Recovery also repairs the media: wal.MultiLog.RecoverMerged truncates
// each lane past its last record inside the merged prefix — torn garbage
// AND clean-but-after-gap records — and re-bases the order-key counter, so
// appends accepted after recovery extend the prefix instead of hiding
// behind bytes a later replay would trip over or stop before.
//
// By default the lanes are DECODED in parallel: one prefetching feed per
// lane rides the worker pool (recoverfeed.go) while this goroutine runs
// the order-key merge over the pre-decoded heads. The merge engine, the
// prefix contract, and the media repair are the same code either way —
// Config.SerialRecovery selects the single-threaded decode as the oracle
// the equivalence tests pin the pipeline against, byte for byte.
func (s *Store) Recover(node cluster.NodeID) error {
	sv := s.servers[int(node)]
	// Redo starts from empty tables on a server nobody consults (wiped). It
	// takes sv.mu and stripe locks per record and holds none across the
	// merge's wait on a decode job (dispatch.go contract); recovery's
	// quiescence requirement is what makes the lock-free read of the lane
	// media safe.
	s.Crash(node)
	r := redo{sv: sv}
	var err error
	if s.cfg.SerialRecovery {
		err = sv.wal.RecoverMerged(r.record)
	} else {
		err = recoverLanes(sv.wal, r.record)
	}
	if err != nil {
		s.Crash(node) // nothing half-replayed stays behind, its debt included
		return fmt.Errorf("blob: recover node %d: %w", node, err)
	}
	// Keep the migration sequence monotonic past everything the log has
	// seen, and publish a replayed open intent store-wide (monotonically:
	// several recovering servers may each replay one). Recovery requires
	// store quiescence, so no live migration races these.
	s.migSeq = max(s.migSeq, r.maxSeq)
	if r.intent != nil {
		if cur := s.migIntent.Load(); cur == nil || cur.seq < r.intent.seq {
			s.migIntent.Store(r.intent)
		}
	}
	// The replayed tables are in place: sv's memory is authoritative again
	// (though possibly behind), so the resync below may consult it — and
	// peers' resyncs may consult sv — even while sv is still marked down.
	sv.mu.Lock()
	sv.wiped = false
	sv.mu.Unlock()
	// Resync from live peers BEFORE serving: the merged-replay prefix
	// contract can drop acknowledged writes behind a torn lane tail, and
	// this node's own debt records only cover what its log survived. A
	// version sweep against the peers catches both that loss and every
	// write the node missed while down.
	s.resyncNode(sv)
	sv.mu.Lock()
	sv.down = false
	sv.mu.Unlock()
	// Now that the node serves again, drain the debt peers accumulated
	// against it (and any stale debt record naming an already-fresh copy).
	// The full drain, not the node-scoped one: the bidirectional resync
	// sweep may just have recorded debt naming LIVE peers that missed
	// writes this node's replayed log proves were acknowledged.
	s.Repair(storage.NewContext())
	// Roll an interrupted migration forward once the whole store is back:
	// the reconcile sweep re-runs from the replayed intent (idempotent —
	// placement already consistent means an empty plan) and the intent is
	// durably closed. While any server is still wiped, its unreplayed state
	// must not be reconciled around, so the roll-forward waits for the last
	// Recover of the crash.
	if s.migIntent.Load() != nil && !s.anyWiped() {
		s.resumeMigration(storage.NewContext())
	}
	return nil
}

// anyWiped reports whether any server is crashed-but-not-yet-recovered.
func (s *Store) anyWiped() bool {
	for _, sv := range s.servers {
		if sv.isWiped() {
			return true
		}
	}
	return false
}

// ckptLane is one lane's share of a checkpoint snapshot: the descriptor
// and chunk records whose natural lane (descriptor ring hash, chunk
// placement hash) is this lane, collected so the lane can be re-encoded
// against its own medium independently of every other lane.
type ckptLane struct {
	metas  []ckptMeta
	chunks []ckptChunk
	debts  []ckptDebt
	// intent, set only on the migration lane, re-logs an open migration
	// intent: the checkpoint's ResetAll would otherwise drop the
	// RecMigrateBegin record, and a crash after the checkpoint could no
	// longer roll the interrupted migration forward.
	intent *migrationIntent
}

func (l *ckptLane) empty() bool {
	return len(l.metas) == 0 && len(l.chunks) == 0 && len(l.debts) == 0 && l.intent == nil
}

type ckptMeta struct {
	key  string
	size int64
}

type ckptChunk struct {
	id   chunkID
	h    uint64 // placement hash
	ver  uint64
	data chunkBytes
}

type ckptDebt struct {
	id   chunkID
	mask uint64
}

// checkpointPlan snapshots sv's volatile state into per-lane record lists
// and resets the lane log (content dropped, order keys restarted at 1 —
// the snapshot is a fresh logical history, and merged replay's
// consecutive-from-1 invariant is what detects a wholly-torn lane).
// Returns nil for a down server: its volatile state is empty and its WAL
// is the only recovery source — checkpointing it would snapshot nothing
// and discard that source, silent data loss.
//
// The plan holds the entries' immutable bytes by reference — views of the
// lanes ResetAll just retired, which stay valid until checkpointLane has
// re-pointed the entries and recycles them; the quiescence the checkpoint
// requires (no concurrent mutations, the Crash/Recover discipline) keeps the
// entries themselves stable until then. With forget set, tombstones leave
// memory instead of entering the plan.
func (sv *server) checkpointPlan(forget bool) []ckptLane {
	sv.mu.Lock()
	if sv.down {
		sv.mu.Unlock()
		return nil
	}
	plan := make([]ckptLane, sv.wal.Lanes())
	// Descriptors go in key order: checkpoint records are an ordered WAL
	// history, so two runs of one seed must write the same logs.
	sv.blobs.ascend("", func(key string, d descriptor) {
		lane := sv.metaLane(key)
		plan[lane].metas = append(plan[lane].metas, ckptMeta{key, d.size})
	})
	sv.mu.Unlock()
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.Lock()
		for id, c := range st.m {
			if forget && len(c.b) == 0 {
				sv.deleteChunkLocked(st, id, 0)
				continue
			}
			h := id.ringHash()
			lane := sv.chunkLane(h)
			//blobvet:allow virtualtime each lane's chunk list is sorted by chunk ID below, before any record streams
			plan[lane].chunks = append(plan[lane].chunks, ckptChunk{id, h, st.ver[id], c})
		}
		st.mu.Unlock()
	}
	// Outstanding repair debt must survive the compaction: re-log each
	// chunk's current mask so a crash between checkpoint and repair still
	// recovers knowing which replicas owe copies.
	sv.forEachDebt(func(id chunkID, mask uint64) {
		lane := sv.chunkLane(id.ringHash())
		plan[lane].debts = append(plan[lane].debts, ckptDebt{id, mask})
	})
	// An open migration intent is part of the durable state the snapshot
	// must carry forward.
	if intent := sv.migIntent.Load(); intent != nil {
		plan[migLane].intent = intent
	}
	// The stripe walks above run in map order; restore a total order so
	// the streamed lane records are byte-identical across runs.
	for i := range plan {
		l := &plan[i]
		sort.Slice(l.chunks, func(a, b int) bool { return l.chunks[a].id.less(l.chunks[b].id) })
		sort.Slice(l.debts, func(a, b int) bool { return l.debts[a].id.less(l.debts[b].id) })
	}
	sv.wal.ResetAll()
	return plan
}

// checkpointLane re-encodes one lane's surviving records against that
// lane's own medium. Records go through the vectored append: only the
// few-dozen-byte header is staged (in a pooled buffer private to this
// lane job), and each chunk's bytes stream from its entry to the
// compacted lane in one copy. Each chunk entry is then pointed at its new
// record, under its stripe lock, so no entry is left in the lane's old
// backing, and the job hands that backing to the free list all lanes of the
// server share (wal.MultiLog.Recycle): a steady checkpoint cycle allocates
// nothing, and the lanes re-logged later refill from those re-logged
// earlier instead of each holding an old and a new copy of the snapshot.
// Every lane appends to a private Log/Buffer, so lane jobs run concurrently
// without sharing a single lock or medium (dispatch contract: the job takes
// no latch-class lock and never waits on the pool). A chunk whose sum its
// entry remembers is re-logged without reading its bytes for the record
// CRC; only the copy to the medium reads them.
func (sv *server) checkpointLane(lane int, plan *ckptLane) {
	bp := hdrPool.Get().(*[]byte)
	appendOne := func(t wal.RecordType, data []byte, sum uint32) []byte {
		_, _, stored, err := sv.wal.AppendVSum(lane, t, *bp, data, sum)
		if err != nil {
			panic(fmt.Sprintf("blob: checkpoint node %d: %v", sv.node, err))
		}
		return stored
	}
	if plan.intent != nil {
		// First record of the compacted migration lane, so replay reopens
		// the intent before anything else.
		*bp = appendMigrateIntent((*bp)[:0], plan.intent.seq, plan.intent.op, plan.intent.node)
		appendOne(wal.RecMigrateBegin, nil, 0)
	}
	for _, m := range plan.metas {
		*bp = appendMetaPayload((*bp)[:0], m.key, m.size)
		appendOne(wal.RecMeta, nil, 0)
	}
	for _, c := range plan.chunks {
		*bp = appendChunkHeader((*bp)[:0], c.id, 0, c.ver)
		if len(c.data.b) == 0 {
			appendOne(wal.RecChunkDelete, nil, 0) // a tombstone
			continue
		}
		sum := c.data.checksum()
		stored := appendOne(wal.RecWrite, c.data.b, sum)
		st := sv.stripe(c.h)
		st.mu.Lock()
		st.m[c.id] = chunkBytes{b: stored, sum: sum, summed: true}
		st.mu.Unlock()
	}
	for _, d := range plan.debts {
		// RecRepairNeeded reuses the chunk header with the mask in the
		// version slot (codec.go); overwrite-replay makes one record per
		// chunk sufficient.
		*bp = appendChunkHeader((*bp)[:0], d.id, 0, d.mask)
		appendOne(wal.RecRepairNeeded, nil, 0)
	}
	hdrPool.Put(bp)
	sv.wal.Recycle(lane)
}

// CheckpointAll rewrites every live server's write-ahead log as a snapshot of
// its volatile state — one record per descriptor, chunk replica, tombstone and
// debt entry — and drops the old content, bounding log growth the way object
// stores compact their journals; recovery replays the snapshot exactly. Down
// servers are skipped (their WAL is their only state). The store must be
// quiescent, the discipline Crash and Recover require. Each lane's records
// are re-encoded against that lane's own medium, and the fan-out is flat —
// every (server, lane) pair is one pool job — rather than nesting per-server
// parallelDo calls inside pool workers, which the dispatch contract forbids
// (a worker blocking on a nested pool wait can deadlock a saturated pool).
//
// A tombstone exists to outrank older copies of its chunk, in memory or in a
// log. When every server is up, the store is clean and no migration intent is
// open, every owner holds the tombstone and this run rewrites every log
// without the older copies, so the tombstones are forgotten, not re-logged.
func (s *Store) CheckpointAll() {
	type laneJob struct {
		sv   *server
		plan *ckptLane
		lane int
	}
	forget := s.clean() && s.migIntent.Load() == nil
	for _, sv := range s.servers {
		forget = forget && !sv.isDown()
	}
	var jobs []laneJob
	for _, sv := range s.servers {
		plan := sv.checkpointPlan(forget)
		for lane := range plan {
			if plan[lane].empty() {
				sv.wal.Recycle(lane) // no entry is a view of this lane
				continue
			}
			jobs = append(jobs, laneJob{sv, &plan[lane], lane})
		}
	}
	parallelDo(len(jobs), func(i int) {
		jobs[i].sv.checkpointLane(jobs[i].lane, jobs[i].plan)
	})
}

// DescriptorCount reports how many blob descriptors (primary or replica
// copies) the server currently holds.
func (s *Store) DescriptorCount(node cluster.NodeID) int {
	sv := s.servers[int(node)]
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return sv.blobs.len()
}

// ChunkCount reports how many chunk replicas the server currently holds.
func (s *Store) ChunkCount(node cluster.NodeID) int {
	return s.servers[int(node)].chunkCount()
}

// WALSize reports the encoded bytes currently held across all of the
// server's log lanes — the volume a crash recovery of that server decodes.
// Exact only while the server is quiescent.
func (s *Store) WALSize(node cluster.NodeID) int64 {
	return s.servers[int(node)].wal.Size()
}

// CheckInvariants validates cross-server consistency:
//
//  1. every descriptor on a primary is present on all of its replicas with
//     the same size, and a replica's copy has one on its primary (unless
//     the primary is wiped);
//  2. every chunk an owner holds belongs to a live blob and lies within its
//     size, unless the chunk's maximum version is a tombstone, which has no
//     extent;
//  3. version honesty: all holders of a chunk's maximum version (strays
//     included, a tombstone counting as a version) hold identical bytes;
//  4. work-list completeness: an owner may sit behind that maximum — a
//     tombstone's too — only while some repair-debt entry names it: a behind
//     owner nobody lists would look clean to the read path;
//  5. the log is the state: each server's lanes, redone as Recover redoes
//     them but without damage, reproduce exactly its memory — descriptor
//     sizes, every chunk's version and bytes (tombstones included) and the
//     debt masks — so a crash at this instant loses nothing;
//  6. remembered sums are honest: every chunk entry that remembers the
//     CRC32C of its bytes (so CheckpointAll can re-log it unread) holds
//     bytes with exactly that CRC32C.
//
// Crash-wiped servers are skipped: nothing can be said about them until they
// recover. The store must be quiescent. It returns a description of the
// first violation found, or "".
// After every node has rejoined and repair drained (RepairPending() == 0),
// rule 4 has no exemption left and every owner must hold the maximum.
func (s *Store) CheckInvariants() string {
	for i, sv := range s.servers {
		// Key order, so "first violation found" names the same violation
		// on every run of one seed.
		var descs []ckptMeta
		sv.mu.RLock()
		sv.blobs.ascend("", func(key string, d descriptor) {
			descs = append(descs, ckptMeta{key, d.size})
		})
		sv.mu.RUnlock()
		for _, m := range descs {
			owners := s.descOwners(m.key)
			if primary := s.servers[owners[0]]; owners[0] != i {
				if _, ok := primary.desc(m.key); containsNode(owners, i) && !primary.isWiped() && !ok {
					return fmt.Sprintf("descriptor %q on replica node %d but not on its primary node %d", m.key, i, owners[0])
				}
				continue
			}
			for _, o := range owners[1:] {
				rd, ok := s.servers[o].desc(m.key)
				if !ok {
					return fmt.Sprintf("descriptor %q missing on replica node %d", m.key, o)
				}
				if rd.size != m.size {
					return fmt.Sprintf("descriptor %q size mismatch: primary %d, replica node %d has %d",
						m.key, m.size, o, rd.size)
				}
			}
		}
	}

	// Chunk-level checks, once per chunk any server holds.
	listed := make(map[chunkID]uint64)
	held := make(map[chunkID]bool)
	for _, sv := range s.servers {
		sv.forEachDebt(func(id chunkID, mask uint64) { listed[id] |= mask })
		sv.forEachChunk(func(id chunkID, _ []byte, _ uint64) { held[id] = true })
	}
	ids := make([]chunkID, 0, len(held))
	for id := range held {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].less(ids[j]) })
	for _, id := range ids {
		h := id.ringHash()
		owners := s.ownersForHash(h)
		var maxVer uint64
		var ref *server
		var refData []byte
		ownerHeld := false
		for i, sv := range s.servers {
			if sv.isWiped() {
				continue
			}
			c, ver, ok := sv.chunkEntry(h, id)
			data := c.b
			ownerHeld = ownerHeld || ok && containsNode(owners, i)
			if ok && (ref == nil || ver > maxVer) {
				maxVer, ref, refData = ver, sv, data
			} else if ok && ver == maxVer && string(data) != string(refData) {
				return fmt.Sprintf("chunk %d of %q diverges at v%d between node %d and node %d", id.idx, id.key, ver, ref.node, i)
			}
		}
		if !ownerHeld {
			continue // strays only: the next sweep reconciles them
		}
		if len(refData) > 0 {
			_, d, err := s.primaryDesc(id.key)
			if err != nil {
				return fmt.Sprintf("chunk %d of %q has no live blob", id.idx, id.key)
			}
			if id.idx*int64(s.cfg.ChunkSize) >= d.size {
				return fmt.Sprintf("chunk %d of %q lies beyond blob size %d", id.idx, id.key, d.size)
			}
		}
		for _, o := range owners {
			sv := s.servers[o]
			if sv.isWiped() || listed[id]&(1<<uint(o)) != 0 {
				continue
			}
			if ver := sv.chunkVer(h, id); ver < maxVer {
				return fmt.Sprintf("chunk %d of %q: node %d holds v%d behind v%d on node %d and no debt entry names it",
					id.idx, id.key, o, ver, maxVer, ref.node)
			}
		}
	}
	for _, sv := range s.servers {
		if sv.isWiped() {
			continue
		}
		if msg := sv.sumDiff(); msg != "" {
			return msg
		}
		if sv.wal.Size() >= replayGCBytes {
			runtime.GC()
		}
		if msg := sv.replayDiff(); msg != "" {
			return msg
		}
	}
	return ""
}

// replayGCBytes is the log size from which rule 5 collects before redoing a
// server. The replay reads the lanes in place, but the decoded record bodies
// it allocates, kept as the scratch server's chunks, still come to about the
// log's size; left to the GC's pacing, that volume over every server of a
// large store lifts the heap to its goal, about twice the live data and far
// above what the store's own work peaks at. Collected per server, the check
// costs the heap one server's replay.
const replayGCBytes = 1 << 20

// sumDiff names the lowest chunk on sv whose remembered sum is not the CRC32C
// of its bytes (rule 6), or returns "".
func (sv *server) sumDiff() string {
	var bad chunkID
	found := false
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.RLock()
		for id, c := range st.m {
			if c.summed && c.sum != wal.Checksum(c.b) && (!found || id.less(bad)) {
				bad, found = id, true
			}
		}
		st.mu.RUnlock()
	}
	if !found {
		return ""
	}
	return fmt.Sprintf("node %d: chunk %d of %q remembers a checksum its bytes do not have", sv.node, bad.idx, bad.key)
}

// replayDiff redoes sv's lanes into a scratch server, with its own debt
// counter, and returns the first line on which that server's tables and sv's
// differ, or "".
func (sv *server) replayDiff() string {
	scratch := &server{node: sv.node, repairPending: new(atomic.Int64)}
	scratch.reset()
	r := redo{sv: scratch}
	if err := sv.wal.ReplayMerged(r.record); err != nil {
		return fmt.Sprintf("node %d: log does not replay: %v", sv.node, err)
	}
	got, want := scratch.tables(), sv.tables()
	for i := range max(len(got), len(want)) {
		g, w := "nothing", "nothing"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("node %d: its log replays to %s where its memory holds %s", sv.node, g, w)
		}
	}
	return ""
}

// tables renders sv's descriptors, chunks and debt masks as sorted lines, a
// chunk's bytes as their length and CRC (a tombstone has none). Descriptors
// render through the table's order, so a key the order lacks shows up as a
// difference.
func (sv *server) tables() []string {
	var out []string
	sv.mu.RLock()
	sv.blobs.ascend("", func(key string, d descriptor) {
		out = append(out, fmt.Sprintf("descriptor %q size %d", key, d.size))
	})
	sv.mu.RUnlock()
	sv.forEachChunk(func(id chunkID, data []byte, ver uint64) {
		out = append(out, fmt.Sprintf("chunk %d of %q v%d %d bytes crc %08x", id.idx, id.key, ver, len(data), crc32.ChecksumIEEE(data)))
	})
	sv.forEachDebt(func(id chunkID, mask uint64) {
		out = append(out, fmt.Sprintf("chunk %d of %q debt %b", id.idx, id.key, mask))
	})
	sort.Strings(out)
	return out
}
