package blob

import (
	"fmt"
	"sort"

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
		p := make([]byte, len(rec.Payload))
		copy(p, rec.Payload)
		rec.Payload = p
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
	sv.blobs = make(map[string]*descriptor)
	sv.down = true
	sv.wiped = true
	sv.mu.Unlock()
	sv.resetChunks()
	traceStep(traceEvent{what: "crash", node: node})
}

// prepWrite is the buffered 2PC chunk write awaiting its commit record
// during replay. At most one is pending per chunk: the per-blob latch
// serializes transactions and each transaction prepares a chunk exactly
// once, so a newer prepare supersedes any dangling one a torn transaction
// left behind — which is also what keeps a later commit from resurrecting
// stale prepared bytes.
type prepWrite struct {
	within int64
	ver    uint64
	data   []byte
}

// applyRecovered merges one chunk write into the replayed chunk table and
// installs the write's persisted version.
func applyRecovered(chunks map[chunkID][]byte, vers map[chunkID]uint64, id chunkID, within int64, ver uint64, data []byte) {
	chunk := chunks[id]
	need := within + int64(len(data))
	if int64(len(chunk)) < need {
		grown := make([]byte, need)
		copy(grown, chunk)
		chunk = grown
	}
	copy(chunk[within:], data)
	chunks[id] = chunk
	if ver > vers[id] {
		vers[id] = ver
	}
}

// Recover rebuilds a server's volatile state by replaying its write-ahead
// log, then marks the server up again. Every mutation path appends a
// self-describing record (codec.go) whose payload shape is determined by
// its type — meta records carry (key, size), chunk records carry
// (chunkID, within, data) — so replay reconstructs descriptors and chunk
// bytes exactly without parsing string keys.
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
	// The replay below builds into local maps and — on the parallel path —
	// waits on pool-executed decode jobs, so no latch-class lock may be
	// held across it (dispatch.go contract); recovery's quiescence
	// requirement is what makes the lock-free read of the lane media safe.
	// sv.mu is taken only to install the rebuilt tables.
	blobs := make(map[string]*descriptor)
	chunks := make(map[chunkID][]byte)
	vers := make(map[chunkID]uint64)
	debt := make(map[chunkID]uint64)
	var pending map[chunkID]prepWrite
	// The open migration intent (a Begin without a matching End) is published
	// after replay so Recover can roll the migration forward.
	var openIntent *migrationIntent
	var maxMigSeq uint64
	replay := func(fn func(wal.Record) error) error {
		if s.cfg.SerialRecovery {
			return sv.wal.RecoverMerged(fn)
		}
		return sv.wal.RecoverMergedFeeds(newRecoveryFeeds(sv.wal), fn)
	}
	err := replay(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecCreate, wal.RecMeta:
			key, size, err := decMeta(rec.Payload)
			if err != nil {
				return err
			}
			d, ok := blobs[key]
			if !ok {
				d = &descriptor{}
				blobs[key] = d
			}
			d.size = size
			return nil
		case wal.RecWrite:
			id, within, ver, data, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			applyRecovered(chunks, vers, id, within, ver, data)
			return nil
		case wal.RecPrepWrite:
			id, within, ver, data, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if pending == nil {
				pending = make(map[chunkID]prepWrite)
			}
			// rec.Payload is a fresh per-record buffer; retaining data is
			// safe. Overwrite, never accumulate: only the latest prepare
			// belongs to the transaction whose commit may follow.
			pending[id] = prepWrite{within: within, ver: ver, data: data}
			return nil
		case wal.RecChunkCommit:
			id, _, _, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if p, ok := pending[id]; ok {
				applyRecovered(chunks, vers, id, p.within, p.ver, p.data)
				delete(pending, id)
			}
			return nil
		case wal.RecRepairNeeded:
			// Overwrite semantics: the record carries the chunk's full debt
			// mask (in the version slot) as of its append, so the last
			// record in logical order wins — a zero mask clears the entry.
			id, _, mask, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if mask == 0 {
				delete(debt, id)
			} else {
				debt[id] = mask
			}
			return nil
		case wal.RecDelete:
			key, _, err := decMeta(rec.Payload)
			if err != nil {
				return err
			}
			delete(blobs, key)
			return nil
		case wal.RecChunkDelete:
			id, _, _, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			delete(chunks, id)
			delete(vers, id)
			delete(debt, id)
			return nil
		case wal.RecTruncate:
			key, size, err := decMeta(rec.Payload)
			if err != nil {
				return err
			}
			if d, ok := blobs[key]; ok {
				d.size = size
			}
			return nil
		case wal.RecChunkTruncate:
			id, keep, _, _, err := decChunkPayload(rec.Payload)
			if err != nil {
				return err
			}
			if c, ok := chunks[id]; ok && int64(len(c)) > keep {
				chunks[id] = c[:keep]
			}
			return nil
		case wal.RecCommit:
			return nil // transaction-level marker; state is in the chunk records
		case wal.RecMigrateBegin:
			seq, op, mnode, err := decMigrateIntent(rec.Payload)
			if err != nil {
				return err
			}
			openIntent = &migrationIntent{seq: seq, op: op, node: mnode}
			if seq > maxMigSeq {
				maxMigSeq = seq
			}
			return nil
		case wal.RecMigrateEnd:
			seq, _, _, err := decMigrateIntent(rec.Payload)
			if err != nil {
				return err
			}
			if seq > maxMigSeq {
				maxMigSeq = seq
			}
			if openIntent != nil && openIntent.seq == seq {
				openIntent = nil
			}
			return nil
		default:
			return fmt.Errorf("blob: recover node %d: unknown record type %v", node, rec.Type)
		}
	})
	if err != nil {
		return fmt.Errorf("blob: recover node %d: %w", node, err)
	}
	// Keep the migration sequence monotonic past everything the log has
	// seen, and publish a replayed open intent store-wide (monotonically:
	// several recovering servers may each replay one). Recovery requires
	// store quiescence, so no live migration races these.
	if maxMigSeq > s.migSeq {
		s.migSeq = maxMigSeq
	}
	if openIntent != nil {
		if cur := s.migIntent.Load(); cur == nil || cur.seq < openIntent.seq {
			s.migIntent.Store(openIntent)
		}
	}
	sv.mu.Lock()
	sv.blobs = blobs
	sv.mu.Unlock()
	// Scatter the rebuilt chunks across the worker pool; insertions into
	// distinct lock stripes proceed in parallel and the map is read-only
	// here, so order does not matter. sv.mu is deliberately NOT held
	// across this wait: a worker must never block on a lock whose holder
	// is waiting on the pool (see the dispatch.go contract).
	sv.resetChunks()
	ids := make([]chunkID, 0, len(chunks))
	for id := range chunks {
		//blobvet:allow virtualtime chunk installs commute: distinct stripes, read-only source map, no observable order after the join
		ids = append(ids, id)
	}
	parallelDo(len(ids), func(i int) {
		id := ids[i]
		sv.setChunk(id.ringHash(), id, chunks[id], vers[id])
	})
	// Install surviving repair debt serially: a crash leaves a handful of
	// debt entries at most, not a chunk table's worth.
	for id, mask := range debt {
		st := sv.stripe(id.ringHash())
		st.mu.Lock()
		sv.setDebtLocked(st, id, mask)
		st.mu.Unlock()
	}
	// The replayed tables are in place: sv's memory is authoritative again
	// (though possibly behind), so the resync below may consult it — and
	// peers' resyncs may consult sv — even while sv is still marked down.
	sv.mu.Lock()
	sv.wiped = false
	sv.mu.Unlock()
	traceStep(traceEvent{what: "recover", node: node, n: int64(len(chunks)), m: int64(len(debt))})
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
	ver  uint64
	data []byte
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
// The plan holds live chunk slices by reference; the quiescence the
// checkpoint requires (no concurrent mutations, the Crash/Recover
// discipline) is what keeps them stable until the lane writers have
// streamed them out.
func (sv *server) checkpointPlan() []ckptLane {
	sv.mu.Lock()
	if sv.down {
		sv.mu.Unlock()
		return nil
	}
	plan := make([]ckptLane, sv.wal.Lanes())
	// Iterate descriptors in sorted key order: checkpoint records are an
	// ordered WAL history, so letting map order pick the record sequence
	// would make two runs of one seed write different logs.
	keys := make([]string, 0, len(sv.blobs))
	for key := range sv.blobs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		lane := sv.metaLane(key)
		plan[lane].metas = append(plan[lane].metas, ckptMeta{key, sv.blobs[key].size})
	}
	sv.mu.Unlock()
	sv.forEachChunk(func(id chunkID, data []byte, ver uint64) {
		lane := sv.chunkLane(id.ringHash())
		plan[lane].chunks = append(plan[lane].chunks, ckptChunk{id, ver, data})
	})
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
// lane job), and each chunk's bytes stream from the live chunk slice to
// the compacted lane in one copy. The lane's slab-backed Buffer reuses
// the slabs ResetAll just freed, so a steady checkpoint cycle allocates
// nothing — and because every lane appends to a private Log/Buffer, lane
// jobs run concurrently without sharing a single lock or medium
// (dispatch contract: the job takes no latch-class lock and never waits
// on the pool).
func (sv *server) checkpointLane(lane int, plan *ckptLane) {
	bp := hdrPool.Get().(*[]byte)
	appendOne := func(t wal.RecordType, data []byte) {
		if _, _, err := sv.wal.AppendV(lane, t, *bp, data); err != nil {
			panic(fmt.Sprintf("blob: checkpoint node %d: %v", sv.node, err))
		}
	}
	if plan.intent != nil {
		// First record of the compacted migration lane, so replay reopens
		// the intent before anything else.
		*bp = appendMigrateIntent((*bp)[:0], plan.intent.seq, plan.intent.op, plan.intent.node)
		appendOne(wal.RecMigrateBegin, nil)
	}
	for _, m := range plan.metas {
		*bp = appendMetaPayload((*bp)[:0], m.key, m.size)
		appendOne(wal.RecCreate, nil)
	}
	for _, c := range plan.chunks {
		*bp = appendChunkHeader((*bp)[:0], c.id, 0, c.ver)
		appendOne(wal.RecWrite, c.data)
	}
	for _, d := range plan.debts {
		// RecRepairNeeded reuses the chunk header with the mask in the
		// version slot (codec.go); overwrite-replay makes one record per
		// chunk sufficient.
		*bp = appendChunkHeader((*bp)[:0], d.id, 0, d.mask)
		appendOne(wal.RecRepairNeeded, nil)
	}
	hdrPool.Put(bp)
}

// CheckpointAll rewrites every live server's write-ahead log as a snapshot of
// its volatile state — one record per descriptor, chunk replica and debt
// entry — and drops the old content, bounding log growth the way object
// stores compact their journals; recovery replays the snapshot exactly. Down
// servers are skipped (their WAL is their only state). The store must be
// quiescent, the discipline Crash and Recover require. Each lane's records
// are re-encoded against that lane's own medium, and the fan-out is flat —
// every (server, lane) pair is one pool job — rather than nesting per-server
// parallelDo calls inside pool workers, which the dispatch contract forbids
// (a worker blocking on a nested pool wait can deadlock a saturated pool).
func (s *Store) CheckpointAll() {
	type laneJob struct {
		sv   *server
		plan *ckptLane
		lane int
	}
	var jobs []laneJob
	for _, sv := range s.servers {
		plan := sv.checkpointPlan()
		for lane := range plan {
			if plan[lane].empty() {
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
	return len(sv.blobs)
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
//     the same size;
//  2. every chunk replica an owner holds belongs to a live blob and lies
//     within its size;
//  3. version honesty: all holders of a chunk's maximum version (strays
//     included) hold identical bytes;
//  4. work-list completeness: an owner may sit behind that maximum only
//     while some repair-debt entry names it — a behind owner nobody lists
//     would look clean to the read path.
//
// Crash-wiped servers are skipped: nothing can be said about them until they
// recover. It returns a description of the first violation found, or "".
// After every node has rejoined and repair drained (RepairPending() == 0),
// rule 4 has no exemption left and every owner must hold the maximum.
func (s *Store) CheckInvariants() string {
	for i, sv := range s.servers {
		sv.mu.RLock()
		keys := make([]string, 0, len(sv.blobs))
		sizes := make(map[string]int64, len(sv.blobs))
		for k, d := range sv.blobs {
			keys = append(keys, k)
			sizes[k] = d.size
		}
		sv.mu.RUnlock()
		// "First violation found" should name the same violation on
		// every run of one seed.
		sort.Strings(keys)
		for _, key := range keys {
			owners := s.descOwners(key)
			if owners[0] != i {
				continue // only validate from the primary's view
			}
			for _, o := range owners[1:] {
				rs := s.servers[o]
				rs.mu.RLock()
				rd, ok := rs.blobs[key]
				var rsize int64
				if ok {
					rsize = rd.size
				}
				rs.mu.RUnlock()
				if !ok {
					return fmt.Sprintf("descriptor %q missing on replica node %d", key, o)
				}
				if rsize != sizes[key] {
					return fmt.Sprintf("descriptor %q size mismatch: primary %d, replica node %d has %d",
						key, sizes[key], o, rsize)
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
			data, ver, ok := sv.copyChunk(h, id)
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
		_, d, err := s.primaryDesc(id.key)
		if err != nil {
			return fmt.Sprintf("chunk %d of %q has no live blob", id.idx, id.key)
		}
		d.latch.RLock()
		size := d.size
		d.latch.RUnlock()
		if id.idx*int64(s.cfg.ChunkSize) >= size {
			return fmt.Sprintf("chunk %d of %q lies beyond blob size %d", id.idx, id.key, size)
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
	return ""
}
