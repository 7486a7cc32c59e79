package blob

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/wal"
)

// LogRecords replays a server's write-ahead log — all lanes, merged into
// logical append order by the records' order keys — and returns its
// records. Tests use this to assert that every namespace mutation was made
// durable before being acknowledged. A record's Data is a view of its lane
// (wal.Record), valid until a CheckpointAll recycles the lane.
func (s *Store) LogRecords(node cluster.NodeID) ([]wal.Record, error) {
	sv := s.servers[int(node)]
	var recs []wal.Record
	err := sv.wal.ReplayMerged(func(rec wal.Record) error {
		recs = append(recs, rec)
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

// redo replays log records into one server's tables through the mutators
// live ops use (applyChunk, deleteChunk, trimChunk, putDesc and dropDesc), so
// what a record does is written down once. Recover runs it on the recovering
// server, CheckInvariants on a scratch one.
type redo struct {
	sv *server
	// pending holds each chunk's buffered 2PC prepare awaiting its commit
	// record. At most one is pending per chunk: the key latch serializes
	// transactions and each transaction prepares a chunk exactly once, so a
	// newer prepare supersedes any dangling one a torn transaction left
	// behind — which is also what keeps a later commit from resurrecting
	// stale prepared bytes.
	pending map[chunkID]chunkRec
	// intent is the open migration intent, a Begin without its End; maxSeq
	// is the highest migration sequence number seen.
	intent *migrationIntent
	maxSeq uint64
}

func (r *redo) record(rec wal.Record) error {
	sv := r.sv
	switch rec.Type {
	case wal.RecMeta, wal.RecDelete:
		key, size, ver, err := decMeta(rec.Bytes())
		if err != nil {
			return err
		}
		if rec.Type == wal.RecDelete && ver == 0 {
			sv.dropDesc(key)
		} else {
			sv.putDesc(key, descriptor{size: size, ver: ver, dead: rec.Type == wal.RecDelete})
		}
	case wal.RecMigrateBegin, wal.RecMigrateEnd:
		seq, op, node, err := decMigrateIntent(rec.Bytes())
		if err != nil {
			return err
		}
		r.maxSeq = max(r.maxSeq, seq)
		if rec.Type == wal.RecMigrateBegin {
			r.intent = &migrationIntent{seq: seq, op: op, node: node}
		} else if r.intent != nil && r.intent.seq == seq {
			r.intent = nil
		}
	case wal.RecWrite, wal.RecPrepWrite, wal.RecChunkCommit, wal.RecChunkDelete, wal.RecChunkTruncate:
		c, err := decChunkRecord(rec)
		if err != nil {
			return err
		}
		id, h := c.id, c.id.ringHash()
		switch rec.Type {
		case wal.RecWrite:
			// c.data is a view of the lane, with its sum (decChunkRecord),
			// so a whole-chunk payload becomes the chunk's bytes uncopied,
			// as a live write's does.
			sv.copied(c.copied)
			applyChunk(sv, h, id, c.within, c.data, c.ver)
		case wal.RecPrepWrite:
			// The view may be kept until the commit, too. Overwrite, never
			// accumulate: only the latest prepare belongs to the
			// transaction whose commit may follow.
			if r.pending == nil {
				r.pending = make(map[chunkID]chunkRec)
			}
			r.pending[id] = c
		case wal.RecChunkCommit:
			if p, ok := r.pending[id]; ok {
				sv.copied(p.copied)
				applyChunk(sv, h, id, p.within, p.data, p.ver)
				delete(r.pending, id)
			}
		case wal.RecChunkDelete:
			sv.deleteChunk(h, id, c.ver)
		case wal.RecChunkTruncate:
			sv.trimChunk(h, id, c.within, c.ver)
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
// bytes and versions and tombstones exactly. A failed replay leaves
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
// Replay copies no logged chunk byte: the lanes are read in place, and a
// replayed whole-chunk payload is installed as the view of its own lane the
// decoder yields, with the sum it computed checking the record
// (decChunkRecord). Memory after Recover is therefore laid out as after the
// live ops, and the next checkpoint relinks it.
//
// By default the lanes are DECODED in parallel: one prefetching feed per
// lane rides the worker pool (recoverfeed.go) while this goroutine runs
// the order-key merge over the pre-decoded heads. The merge engine, the
// prefix contract, and the media repair are the same code either way —
// Store.serialRecovery selects the single-threaded decode as the oracle
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
	if s.serialRecovery {
		err = sv.wal.RecoverMerged(r.record)
	} else {
		err = recoverLanes(sv.wal, r.record)
	}
	if err != nil {
		s.Crash(node) // nothing half-replayed stays behind
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
	// contract can drop acknowledged writes behind a torn lane tail. A
	// version sweep against the peers catches both that loss and every
	// write the node missed while down.
	s.resyncNode(sv)
	sv.mu.Lock()
	sv.down = false
	sv.mu.Unlock()
	// Now that the node serves again, drain the debt that names it (and any
	// stale entry naming an already-fresh copy). The full drain, not the
	// node-scoped one: the bidirectional resync sweep may just have
	// recorded debt naming LIVE peers that missed writes this node's
	// replayed log proves were acknowledged, and entries this node's crash
	// kept from clearing may now clear.
	s.Repair(storage.NewContext())
	// Roll an open intent forward once the whole store is back: the
	// reconcile sweep re-runs from the replayed intent (idempotent —
	// placement already consistent means an empty plan) and the intent is
	// durably closed. While any server is still wiped, its unreplayed state
	// must not be reconciled around, so the roll-forward waits for the last
	// Recover of the crash.
	s.resumeMigration(storage.NewContext())
	return nil
}

// ckptLane is one lane's share of a checkpoint snapshot: the descriptor
// and chunk records whose natural lane (descriptor ring hash, chunk
// placement hash) is this lane, collected so the lane can be re-encoded
// against its own medium independently of every other lane. hdr and specs
// are the lane's one AppendNV batch, its record headers back to back.
type ckptLane struct {
	metas  []ckptMeta
	chunks []ckptChunk
	hdr    []byte
	specs  []wal.AppendVSpec
	// intent, set only on the migration lane, re-logs an open migration
	// intent: the checkpoint's ResetAll would otherwise drop the
	// RecMigrateBegin record, and a crash after the checkpoint could no
	// longer roll the interrupted migration forward.
	intent *migrationIntent
}

func (l *ckptLane) empty() bool {
	return len(l.metas) == 0 && len(l.chunks) == 0 && l.intent == nil
}

type ckptMeta struct {
	key string
	d   descriptor
}

type ckptChunk struct {
	id   chunkID
	h    uint64 // placement hash
	ver  uint64
	data chunkBytes
}

// checkpointPlan snapshots sv's volatile state into per-lane record lists
// and resets the lane log (content dropped, order keys restarted at 1 —
// the snapshot is a fresh logical history, and merged replay's
// consecutive-from-1 invariant is what detects a wholly-torn lane).
// Returns nil for a down server: its volatile state is empty and its WAL
// is the only recovery source — checkpointing it would snapshot nothing
// and discard that source, silent data loss.
//
// The lists come out in map order; checkpointLane sorts each before it
// streams a record. They live in sv.ckpt, truncated here and kept across
// checkpoints, so a warm plan reuses the storage the last one grew. It
// touches only sv's own state, so the plans of different servers run
// concurrently.
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
	if sv.ckpt == nil {
		sv.ckpt = make([]ckptLane, sv.wal.Lanes())
	}
	plan := sv.ckpt
	for i := range plan {
		l := &plan[i]
		l.metas, l.chunks, l.intent = l.metas[:0], l.chunks[:0], nil
	}
	sv.blobs.ascend("", func(key string, d descriptor) {
		lane := sv.metaLane(key)
		plan[lane].metas = append(plan[lane].metas, ckptMeta{key, d})
	})
	if forget {
		clear(sv.gone)
	}
	for key, ver := range sv.gone {
		lane := sv.metaLane(key)
		//blobvet:allow virtualtime checkpointLane sorts each lane's descriptor list by key before any record streams
		plan[lane].metas = append(plan[lane].metas, ckptMeta{key, descriptor{ver: ver, dead: true}})
	}
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
			//blobvet:allow virtualtime checkpointLane sorts each lane's chunk list by chunk ID before any record streams
			plan[lane].chunks = append(plan[lane].chunks, ckptChunk{id, h, st.ver[id], c})
		}
		st.mu.Unlock()
	}
	// An open migration intent is part of the durable state the snapshot
	// must carry forward.
	if intent := sv.migIntent.Load(); intent != nil {
		plan[migLane].intent = intent
	}
	sv.wal.ResetAll()
	return plan
}

// checkpointLane sorts one lane's surviving records back into the total
// order the plan's map walks lost — descriptors by key, chunks by chunk ID —
// so every run streams the same records, then re-logs them to that lane's
// own medium in one AppendNV: the intent, the descriptors and the chunks, in
// that order, under one lock pair and one range of
// order keys. The headers are encoded back to back into the plan's hdr and
// the batch built in its specs, both kept across checkpoints. The medium
// relinks what it can (wal.Buffer): a whole chunk's entry is a buffer of its
// own the lane's reset retired — after a live write or its replay alike —
// and a small chunk lies in a retired slab the batch keeps when its chunks
// still cover half of it. The chunks it copies instead — those of sparser
// slabs and merged partial writes — are counted (blob.copy.bytes). Each entry
// is then pointed at its new record, under its stripe lock, and the job hands
// the rest of the old backing to the free list all lanes of the server share
// (wal.MultiLog.Recycle): a steady checkpoint cycle allocates nothing, and
// lanes re-logged later refill from those re-logged earlier. Every lane
// appends to a private Log/Buffer, so lane jobs run concurrently without
// sharing a single lock or medium (dispatch contract: the job takes no
// latch-class lock and never waits on the pool). A chunk whose sum its entry
// remembers is re-logged without reading its bytes. Last, the job clears its
// chunk list and batch, so the plan storage kept for the next checkpoint
// pins no retired lane view.
func (sv *server) checkpointLane(lane int, plan *ckptLane) {
	slices.SortFunc(plan.metas, func(a, b ckptMeta) int { return strings.Compare(a.key, b.key) })
	slices.SortFunc(plan.chunks, func(a, b ckptChunk) int { return a.id.cmp(b.id) })
	hdr, specs, end := plan.hdr[:0], plan.specs[:0], 0
	// add appends the spec of the record whose header was appended to hdr
	// last; its Header points into hdr as it grew so far and is re-pointed
	// at the final hdr below.
	add := func(t wal.RecordType, data []byte, sum uint32) {
		specs = append(specs, wal.AppendVSpec{Type: t, Header: hdr[end:], Payload: data, Sum: sum})
		end = len(hdr)
	}
	if plan.intent != nil {
		// First record of the compacted migration lane, so replay reopens
		// the intent before anything else.
		hdr = appendMigrateIntent(hdr, plan.intent.seq, plan.intent.op, plan.intent.node)
		add(wal.RecMigrateBegin, nil, 0)
	}
	for _, m := range plan.metas {
		hdr = appendMetaPayload(hdr, m.key, m.d.size, m.d.ver)
		add(m.d.recType(), nil, 0)
	}
	first := len(specs)
	for _, c := range plan.chunks {
		hdr = appendChunkHeader(hdr, c.id, 0, c.ver)
		if len(c.data.b) == 0 {
			add(wal.RecChunkDelete, nil, 0) // a tombstone
		} else {
			add(wal.RecWrite, c.data.b, c.data.checksum())
		}
	}
	at := 0
	for i := range specs {
		n := len(specs[i].Header)
		specs[i].Header = hdr[at : at+n : at+n]
		at += n
	}
	sv.wal.AppendNV(lane, specs)
	copied := 0
	for k, c := range plan.chunks {
		sp := &specs[first+k]
		if len(sp.Stored) == 0 {
			continue // a tombstone
		}
		if &sp.Stored[0] != &c.data.b[0] {
			copied += len(sp.Stored) // not relinked
		}
		st := sv.stripe(c.h)
		st.mu.Lock()
		st.m[c.id] = chunkBytes{b: sp.Stored, sum: sp.Sum, summed: true}
		st.mu.Unlock()
	}
	sv.copied(copied)
	clear(plan.chunks)
	clear(specs)
	plan.hdr, plan.specs = hdr[:0], specs[:0]
	sv.wal.Recycle(lane)
}

// CheckpointAll rewrites every live server's write-ahead log as a snapshot of
// its volatile state — one record per descriptor, chunk replica and
// tombstone — and drops the old content, bounding log growth the way object
// stores compact their journals; recovery replays the snapshot exactly. Down
// servers are skipped (their WAL is their only state). The store must be
// quiescent, the discipline Crash and Recover require. Each lane's records
// are re-encoded against its own medium in one vectored append, a whole
// chunk's log buffer relinked, not copied, whether a live write or a Recover
// left it there, and so is a small chunk whose slab the lane's chunks still
// fill at least half; only the chunks of sparser slabs are copied, compacted
// into fresh ones.
//
// It runs as two flat fan-outs from the caller, with nothing serial between
// them: one pool job per server plans that server's snapshot
// (checkpointPlan), then one per (server, lane) pair sorts and re-logs that
// lane (checkpointLane). Neither nests a parallelDo in a pool worker, which
// the dispatch contract forbids (a worker waiting on a nested pool can
// deadlock it).
//
// A tombstone exists to outrank older copies of its chunk, in memory or in a
// log. When every server is up, the store is clean and no migration intent is
// open, every owner holds the tombstone and this run rewrites every log
// without the older copies, so the tombstones are forgotten, not re-logged.
func (s *Store) CheckpointAll() {
	forget := s.clean()
	for _, sv := range s.servers {
		forget = forget && !sv.isDown()
	}
	plans := make([][]ckptLane, len(s.servers))
	parallelDo(len(s.servers), func(i int) {
		plans[i] = s.servers[i].checkpointPlan(forget)
	})
	lanes := s.cfg.WALLanes
	parallelDo(len(s.servers)*lanes, func(i int) {
		sv, plan, lane := s.servers[i/lanes], plans[i/lanes], i%lanes
		switch {
		case plan == nil: // down: its log was left as it is
		case plan[lane].empty():
			sv.wal.Recycle(lane) // no entry is a view of this lane
		default:
			sv.checkpointLane(lane, &plan[lane])
		}
	})
}

// DescriptorCount reports how many live blob descriptors (primary or replica
// copies) the server currently holds; tombstones do not count.
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
//  1. every owner of a key holds its freshest descriptor copy, the highest
//     version any server holds, a tombstone like any copy;
//  2. every chunk an owner holds belongs to a live blob and lies within its
//     size, unless the chunk's maximum version is a tombstone, which has no
//     extent;
//  3. version honesty: all holders of a chunk's maximum version (strays
//     included, a tombstone counting as a version) hold identical bytes;
//  4. work-list completeness: an owner may sit behind that maximum — a
//     tombstone's too — only while the store's debt table names it: a
//     behind owner nobody lists would look clean to the read path;
//  5. the log is the state: each server's lanes, redone as Recover redoes
//     them but without damage, reproduce exactly its memory — descriptor
//     versions and sizes, every chunk's version and bytes, tombstones of
//     both included — so a crash at this instant loses nothing (the debt
//     table is no server's state and is in no log);
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
	// Key order, so "first violation found" names the same violation on
	// every run of one seed.
	lists := make([][]string, len(s.servers))
	for i, sv := range s.servers {
		if !sv.isWiped() {
			lists[i] = sv.keys()
		}
	}
	for _, key := range mergeKeys(lists) {
		var fresh descriptor
		at := 0
		for i, sv := range s.servers {
			if d, ok := sv.descCopy(key); ok && d.ver > fresh.ver {
				fresh, at = d, i
			}
		}
		for _, o := range s.descOwners(key) {
			if d, _ := s.servers[o].descCopy(key); !s.servers[o].isWiped() && d != fresh {
				return fmt.Sprintf("descriptor %q: owner node %d holds %+v where node %d holds %+v", key, o, d, at, fresh)
			}
		}
	}

	// Chunk-level checks, once per chunk any server holds.
	held := make(map[chunkID]bool)
	for _, sv := range s.servers {
		sv.forEachChunk(func(id chunkID, _ []byte, _ uint64) { held[id] = true })
	}
	ids := make([]chunkID, 0, len(held))
	for id := range held {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, chunkID.cmp)
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
			if sv.isWiped() || s.debt.entry(h, id).mask&(1<<uint(o)) != 0 {
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
		if msg := sv.replayDiff(); msg != "" {
			return msg
		}
	}
	return ""
}

// sumDiff names the lowest chunk on sv whose remembered sum is not the CRC32C
// of its bytes (rule 6), or returns "".
func (sv *server) sumDiff() string {
	var bad chunkID
	found := false
	for i := range sv.stripes {
		st := &sv.stripes[i]
		st.mu.RLock()
		for id, c := range st.m {
			if c.summed && c.sum != wal.Checksum(c.b) && (!found || id.cmp(bad) < 0) {
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

// replayDiff redoes sv's lanes into a scratch server, with its own copy
// counter, and returns the first line on which that server's tables and sv's
// differ, or "". The redo reads the lanes in place and the scratch server's
// whole chunks are views of them, so the check copies no logged byte.
func (sv *server) replayDiff() string {
	scratch := &server{node: sv.node, copyBytes: new(metrics.Counter)}
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

// tables renders sv's descriptors with their versions and chunks as sorted
// lines, a chunk's bytes as their length and CRC (a tombstone
// has none). Descriptors render through the table's order, so a key the
// order lacks shows up as a difference.
func (sv *server) tables() []string {
	var out []string
	for _, key := range sv.keys() {
		d, _ := sv.descCopy(key)
		out = append(out, fmt.Sprintf("descriptor %q %+v", key, d))
	}
	sv.forEachChunk(func(id chunkID, data []byte, ver uint64) {
		out = append(out, fmt.Sprintf("chunk %d of %q v%d %d bytes crc %08x", id.idx, id.key, ver, len(data), crc32.ChecksumIEEE(data)))
	})
	sort.Strings(out)
	return out
}
