package blob

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ReadBlob reads up to len(p) bytes at off. Short reads happen at EOF;
// reading at or beyond EOF returns 0, nil. If a chunk's primary is down the
// read falls back to the next replica.
func (s *Store) ReadBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("read %q at %d: %w", key, off, storage.ErrInvalidArg)
	}
	s.member.RLock()
	defer s.member.RUnlock()
	primary, d, err := s.primaryDesc(key)
	if err != nil {
		return 0, err
	}
	// Size lookup: one flat-namespace metadata op on the descriptor primary.
	s.cluster.MetaOp(ctx.Clock, primary.node, 1)

	d.latch.RLock()
	defer d.latch.RUnlock()
	size := d.size
	if off >= size {
		return 0, nil
	}
	want := int64(len(p))
	if off+want > size {
		want = size - off
	}

	// Fan out per-chunk reads; join on the slowest — parallel striped reads
	// are the throughput story of object storage. The fan runs on this
	// goroutine with idle pool workers taking chunks off its tail, so a
	// one-chunk read never touches the pool. Every exit joins the fan, so no
	// pooled context leaks and completed chunks' charged time is never lost.
	cs := int64(s.cfg.ChunkSize)
	fan := s.newFan()
	forEachSpan(off, want, cs, func(idx, within, start, take int64) {
		t := fan.task(taskReadChunk)
		t.pl.id = chunkID{key, idx}
		t.within = within
		t.data = p[start : start+take]
		fan.spawn(t)
	})
	errIdx, err := fan.join(ctx)
	if err != nil {
		// Chunks before the first failed one are fully read; later chunks
		// may or may not have landed in p, which pread semantics allow.
		return int(fanPrefixBytes(off, want, cs, errIdx)), err
	}
	return int(want), nil
}

// readChunk reads the chunk from the replica the freshness rule selects
// (serveChunk). Missing chunk data within the blob's size reads as zeros
// (sparse blob semantics). The healthy dispatch is allocation-free.
func (s *Store) readChunk(cg *charge, id chunkID, within int64, dst []byte) error {
	return s.serveChunk(cg, id, func(sv *server, h, want uint64) bool {
		return s.readReplica(cg, sv, h, id, within, dst, want)
	})
}

// readReplica copies the chunk's bytes out of one replica and charges the
// transfer, unless the replica no longer holds version want (anyVer skips the
// check). Only the bytes the replica actually held are charged as disk read;
// the sparse zero-filled tail costs nothing on the disk (the RPC still
// carries the full response).
func (s *Store) readReplica(cg *charge, sv *server, h uint64, id chunkID, within int64, dst []byte, want uint64) bool {
	var copied int
	st := sv.stripe(h)
	st.mu.RLock()
	if want != anyVer && st.ver[id] != want {
		st.mu.RUnlock()
		return false
	}
	if data, ok := st.m[id]; ok && within < int64(len(data)) {
		copied = copy(dst, data[within:])
	}
	st.mu.RUnlock()
	// Sparse tail: anything the replica did not cover reads as zeros.
	clear(dst[copied:])
	cg.diskRead(sv.node, copied)
	cg.rpc(sv.node, 64, len(dst), 0)
	return true
}

// WriteBlob writes p at off, extending the blob as needed. A write that
// spans a single chunk commits directly on that chunk's replica set; a
// multi-chunk write runs the Týr-style lightweight transaction: prepare on
// every participant chunk, then commit, with the descriptor version bumped
// once — the paper's "blob manipulation" primitive with built-in atomicity.
func (s *Store) WriteBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("write %q at %d: %w", key, off, storage.ErrInvalidArg)
	}
	s.member.RLock()
	defer s.member.RUnlock()
	primary, d, err := s.primaryDesc(key)
	if err != nil {
		return 0, err
	}
	if primary.isDown() {
		return 0, fmt.Errorf("blob %q: primary down: %w", key, storage.ErrUnavailable)
	}
	if len(p) == 0 {
		return 0, nil
	}
	// No descriptor round trip here: placement is client-side (the hash
	// ring), so a write contacts only the chunk servers it touches. The
	// descriptor primary is involved only for multi-chunk transactions and
	// size extensions below — the flat-namespace advantage the paper's
	// future-work experiment measures.
	d.latch.Lock()
	defer d.latch.Unlock()
	return s.writeLocked(ctx, key, primary, d, off, p)
}

// chunkPlace is one participant chunk's resolved placement, computed once
// per write and shared by the prepare, data, and commit phases. ver is the
// version this write installs on every replica it reaches: assigned by the
// caller under the descriptor latch (one more than the highest version any
// owner holds), so all replicas of the chunk stay version-comparable.
type chunkPlace struct {
	id     chunkID
	h      uint64
	ver    uint64
	owners []int
	// excl is the owner set excluded from this write: down at the placement
	// survey, or not holding ver-1. Every phase consults it so prepare, data,
	// apply and commit cover EXACTLY the same replicas — a write applies only
	// onto the base it was versioned against, which is what keeps "the
	// highest version holds every acknowledged byte" true; the excluded
	// owners become the write's repair debt.
	excl uint64
}

// placePool recycles the per-write placement scratch.
var placePool = sync.Pool{
	New: func() any {
		s := make([]chunkPlace, 0, 8)
		return &s
	},
}

// writeLocked performs the write with the descriptor latch already held.
// Multi-blob transactions (txn.go) call it while holding several latches.
//
// Multi-chunk writes log 2PC-style: the data phase appends RecPrepWrite to
// every replica of every participant, the commit phase appends
// RecChunkCommit to the same set, and a data-phase failure appends nothing
// more — so crash replay applies a multi-chunk write all-or-nothing
// (recovery.go buffers prepares and materializes them only on commit; a
// prepare whose commit never comes is overwritten by the chunk's next
// prepare or dropped at the end of the log).
func (s *Store) writeLocked(ctx *storage.Context, key string, primary *server, d *descriptor, off int64, p []byte) (int, error) {
	return s.writeLockedRec(ctx, key, primary, d, off, p, false)
}

// writeLockedRec is writeLocked with the commit protocol selectable.
// direct=true commits every chunk with RecWrite and skips the prepare and
// commit phases even for a multi-chunk span. That is sound ONLY when the
// caller needs no write-level crash atomicity: RenameBlob's copy-in
// qualifies — the target key is freshly created and both descriptor
// latches are held (no reader or writer can observe a partial span), and
// the rename's own crash story is "never acked, source intact until the
// final logged delete", not chunk-transactionality (a sparse rename
// flushes multiple spans, so 2PC per span never provided rename-level
// atomicity anyway). Per-chunk RecWrite records replay independently,
// exactly like ordinary single-chunk writes.
func (s *Store) writeLockedRec(ctx *storage.Context, key string, primary *server, d *descriptor, off int64, p []byte, direct bool) (int, error) {
	cs := int64(s.cfg.ChunkSize)
	firstChunk := off / cs
	lastChunk := (off + int64(len(p)) - 1) / cs
	multi := (lastChunk > firstChunk) && !direct

	// Resolve every participant chunk's placement once; the prepare, data,
	// and commit phases all dispatch from this scratch instead of
	// re-hashing and re-probing per phase.
	pp := placePool.Get().(*[]chunkPlace)
	places := (*pp)[:0]
	defer func() {
		*pp = places[:0]
		placePool.Put(pp)
	}()
	for idx := firstChunk; idx <= lastChunk; idx++ {
		id := chunkID{key, idx}
		h := id.ringHash()
		// One survey per chunk versions the write and partitions its owners.
		// It is a snapshot — an owner flapping down after it still gets the
		// write (retained memory and log keep it consistent), equivalent to
		// delivery just before the flap.
		var buf [8]replica
		sy := s.surveyChunk(h, id, buf[:])
		behind, down := sy.behind()
		places = append(places, chunkPlace{id: id, h: h, ver: sy.max + 1, owners: s.ownersForHash(h), excl: behind | down})
	}

	recType := wal.RecWrite
	if multi {
		recType = wal.RecPrepWrite

		// Prepare phase: one metadata round trip per participant chunk
		// primary, charged in parallel.
		fan := s.newFan()
		for i := range places {
			t := fan.task(taskPrepare)
			t.pl = places[i]
			fan.spawn(t)
		}
		if _, err := fan.join(ctx); err != nil {
			// Nothing durable was prepared (the prepare is a round trip,
			// not a log record), so there is nothing to abort.
			return 0, err
		}
	}

	// Data phase: write each chunk to its full replica set, in parallel
	// across chunks. A single-chunk write's one task runs right here at
	// join; its replica sub-fan is what an idle worker may take.
	fan := s.newFan()
	forEachSpan(off, int64(len(p)), cs, func(idx, within, start, take int64) {
		t := fan.task(taskWriteChunk)
		t.pl = places[idx-firstChunk]
		t.plp = &places[idx-firstChunk] // a faulted replica joins excl here
		t.within = within
		t.data = p[start : start+take]
		t.rec = recType
		fan.spawn(t)
	})
	if _, err := fan.join(ctx); err != nil {
		// Nothing is readable or durable from the failed write — a
		// single-chunk write validates its replica set before mutating,
		// and a multi-chunk write's prepares never materialize without the
		// commit records this return skips — so the reported count is zero,
		// not the completed-task prefix.
		return 0, err
	}

	if multi {
		// Commit phase, step 1: materialize the prepared writes in memory,
		// one task per chunk covering exactly the replicas the data phase
		// reached (excluded replicas hold no prepare, and a partial apply
		// would corrupt their version history — repair re-installs them
		// whole instead). Pure memory work (no charges fold), deferred to
		// here so an aborted data phase leaves live replicas untouched.
		// Readers cannot observe the window: the descriptor latch is held
		// until the write returns.
		applyFan := s.newFan()
		forEachSpan(off, int64(len(p)), cs, func(idx, within, start, take int64) {
			t := applyFan.task(taskApplyChunk)
			t.pl = places[idx-firstChunk]
			t.within = within
			t.data = p[start : start+take]
			applyFan.spawn(t)
		})
		applyFan.join(ctx)

		// Commit phase, step 2: one commit round trip per participant
		// replica plus the commit record's log append, charged in parallel
		// across the participant servers; records bound for the same
		// server's log are batched into one append. Every replica that
		// holds a prepare must also log the commit, or its own crash
		// replay would discard the data; a replica the data phase excluded
		// holds none, so it gets no commit marker either.
		batch := newWalBatch(s)
		for i := range places {
			pl := &places[i]
			for _, o := range pl.owners {
				if pl.excl&(1<<uint(o)) != 0 {
					continue
				}
				batch.addChunk(s.servers[o], wal.RecChunkCommit, pl.h, pl.id, 0, 0, nil)
			}
		}
		batch.flushParallel(ctx, true)
	}

	// Descriptor update: bump version, extend size if needed, replicate.
	d.version++
	if off+int64(len(p)) > d.size {
		d.size = off + int64(len(p))
		s.cluster.MetaOp(ctx.Clock, primary.node, 1)
		cg := s.directCharge(ctx)
		s.walAppendMeta(&cg, primary, wal.RecMeta, key, d.size)
		s.replicateDescSize(ctx, key, d, d.size)
	}

	// Degraded-write epilogue: drain the debt owed to any excluded owner that
	// is up by now. The rejoin drain (SetDown) may have run BEFORE this write
	// recorded its debt and found nothing, and nothing else services debt
	// naming an already-live node. The handoff is race-free because the debt
	// is durable before this check: a rejoin before it is seen here, a rejoin
	// after it sees the debt.
	var excl uint64
	for i := range places {
		excl |= places[i].excl
	}
	for node := 0; node < len(s.servers) && excl != 0; node++ {
		if excl&(1<<uint(node)) != 0 && !s.servers[node].isDown() {
			s.repairDrain(ctx, cluster.NodeID(node))
		}
	}
	return len(p), nil
}

// writeChunk applies data to the chunk at the given intra-chunk offset on
// the live subset of its replica set, first live owner first (primary
// promotion) then the other live owners in parallel. It runs as a fan
// task: the replica copies are a nested fan recorded into this task's
// ledger, so simulated time keeps the primary-then-parallel-replicas shape
// whichever goroutines run the actual copies.
//
// Excluded owners (pl.excl) do not fail the write (degraded mode): as long
// as one owner is left to take it, each included owner applies the write
// and records the excluded owners as repair debt — a RecRepairNeeded record
// carrying the full debt mask, logged under the stripe lock so the mask
// history in the log matches memory. An injected permanent fault at the
// promoted primary fails the write before anything durable lands
// (fail-atomic); the same fault at a non-primary live replica degrades
// instead, with the failed replica added to the debt the survivors record.
func (s *Store) writeChunk(t *fanTask, pl chunkPlace, within int64, data []byte, rec wal.RecordType) error {
	cg := &t.cg
	downMask := pl.excl
	live, promoted := 0, -1
	for _, o := range pl.owners {
		if downMask&(1<<uint(o)) != 0 {
			continue
		}
		live++
		if promoted < 0 {
			promoted = o
		}
	}
	if downMask != 0 {
		traceStep(traceEvent{what: "writeChunk", node: cluster.NodeID(promoted), key: pl.id.key, idx: pl.id.idx, chunk: true, ver: pl.ver, mask: downMask, n: int64(rec)})
	}
	if promoted < 0 {
		return fmt.Errorf("chunk %d of %q: all replicas down or behind: %w", pl.id.idx, pl.id.key, storage.ErrUnavailable)
	}
	primary := s.servers[promoted]
	// A permanent fault on the primary's write path fails the chunk write
	// before anything lands — nothing durable, nothing applied, so the
	// single-chunk direct-commit path stays failure-atomic and the
	// multi-chunk path never commits its prepares.
	if err := s.faultCheck(cg, primary.node, cluster.FaultDiskWrite); err != nil {
		return fmt.Errorf("chunk %d of %q: %w", pl.id.idx, pl.id.key, err)
	}
	// Client -> promoted primary carries the payload. A prepared
	// (multi-chunk) write logs now but materializes in memory only at the
	// commit phase, so a transaction that dies mid-data-phase leaves live
	// replicas exactly as consistent as crash-recovered ones. The log
	// append is vectored: data streams from the caller's buffer to the log
	// medium in one copy, with only the chunk-addressing header staged.
	apply := rec == wal.RecWrite
	cg.rpc(primary.node, len(data), 64, 0)
	if apply {
		applyChunk(primary, pl.h, pl.id, within, data, pl.ver)
	}
	s.walAppendChunk(cg, primary, rec, pl.h, pl.id, within, pl.ver, data)
	cg.diskWrite(primary.node, len(data))
	// Exclusion debt rides with the APPLY, never ahead of it: the direct
	// path records it here, the prepared path at commit materialization
	// (taskApplyChunk). A holder's version advances before it lists anyone,
	// so clearDebt's guard (target caught up with THIS holder) cannot erase
	// an entry the write is about to depend on.
	if downMask != 0 && apply {
		s.recordDebt(cg, primary, pl.h, pl.id, downMask)
	}

	// Primary -> the other live owners in parallel; the client waits for
	// every copy.
	if live > 1 {
		sf := t.subFan()
		for _, o := range pl.owners {
			// The placement survey decides, NOT a fresh down probe: an owner
			// that flapped down since was counted in and nobody lists it, so
			// it must still receive the write.
			if o == promoted || downMask&(1<<uint(o)) != 0 {
				continue
			}
			rt := sf.task(taskReplicaWrite)
			rt.sv = s.servers[o]
			rt.pl = pl
			rt.plp = t.plp
			rt.within = within
			rt.data = data
			rt.rec = rec
			rt.mask = downMask
			sf.spawn(rt)
		}
		t.joinSubs(&sf)
	}
	if downMask != 0 {
		s.metrics.Counter("blob.write.degraded").Inc()
	}
	return nil
}

// replicaWrite is the per-replica body of writeChunk's nested fan. owed is
// the debt mask of the write's excluded owners, recorded by every included
// owner alongside its copy. A permanent injected fault here does NOT fail the
// write: the primary already holds the bytes durably, so the failed replica
// simply joins the excluded set (plp.excl, shared with the later phases) —
// RADOS-style "primary acks, marks the peer missing, recovery backfills". A
// prepared write then skips it at apply and commit, where the survivors list
// it with the other excluded owners: it logged no prepare, so applying there
// would leave its log unable to reproduce the version its memory claims. A
// direct write has no later phase, so the other owners list it right here.
func (s *Store) replicaWrite(cg *charge, sv *server, plp *chunkPlace, pl chunkPlace, within int64, data []byte, rec wal.RecordType, owed uint64) error {
	if err := s.faultCheck(cg, sv.node, cluster.FaultDiskWrite); err != nil {
		bit := uint64(1) << uint(sv.node)
		atomic.OrUint64(&plp.excl, bit)
		if rec == wal.RecWrite {
			for _, o := range pl.owners {
				// Including owners that flapped down meanwhile: retained
				// memory and log stay mutable.
				if o != int(sv.node) {
					s.recordDebt(cg, s.servers[o], pl.h, pl.id, bit)
				}
			}
		}
		s.metrics.Counter("blob.write.replica-faulted").Inc()
		return nil
	}
	cg.rpc(sv.node, len(data), 64, 0)
	if rec == wal.RecWrite {
		applyChunk(sv, pl.h, pl.id, within, data, pl.ver)
	}
	s.walAppendChunk(cg, sv, rec, pl.h, pl.id, within, pl.ver, data)
	cg.diskWrite(sv.node, len(data))
	// Same apply-before-record rule as the primary: prepared writes defer
	// the exclusion debt to the commit apply.
	if owed != 0 && rec == wal.RecWrite {
		s.recordDebt(cg, sv, pl.h, pl.id, owed)
	}
	return nil
}

// traceEvent is one data-plane step as the chaos battery's event trace sees
// it: the union of what the sites report, passed by value so that building it
// allocates nothing. key/idx name a chunk when chunk is set, else key (when
// non-empty) names a descriptor.
type traceEvent struct {
	what                  string
	node                  cluster.NodeID
	key                   string
	idx                   int64
	chunk, on, was        bool
	ver, mask, owed, upTo uint64
	n, m                  int64
}

// traceStep feeds the chaos battery's event trace when a test installs one;
// production runs leave chaosTrace nil and pay only a nil check.
var chaosTrace func(traceEvent)

func traceStep(ev traceEvent) {
	if chaosTrace != nil {
		chaosTrace(ev)
	}
}

// applyChunk writes data into sv's copy of the chunk, growing it as
// needed, and installs the write's version. Growth doubles capacity so
// sequential small appends stay amortized O(1) instead of quadratic.
func applyChunk(sv *server, h uint64, id chunkID, within int64, data []byte, ver uint64) {
	st := sv.stripe(h)
	st.mu.Lock()
	defer st.mu.Unlock()
	chunk := st.m[id]
	need := within + int64(len(data))
	switch {
	case int64(len(chunk)) >= need:
		// In-place overwrite, no growth.
	case int64(cap(chunk)) >= need:
		// Reused capacity may hold stale bytes from an earlier truncate;
		// the gap before the write must read as zeros (sparse semantics).
		old := int64(len(chunk))
		chunk = chunk[:need]
		if old < within {
			clear(chunk[old:within])
		}
	default:
		newCap := int64(cap(chunk))
		if newCap < 1024 {
			newCap = 1024
		}
		for newCap < need {
			newCap *= 2
		}
		grown := make([]byte, need, newCap)
		copy(grown, chunk)
		chunk = grown
	}
	copy(chunk[within:], data)
	st.m[id] = chunk
	if ver > st.ver[id] {
		st.ver[id] = ver
	}
}

// TruncateBlob sets the blob's size. Shrinking drops whole chunks past the
// new end and trims the boundary chunk; growing is sparse (reads return
// zeros). Truncating to the current size is a pure metadata probe: after
// the lookup charge it changes nothing — no version bump, no WAL record,
// no descriptor replication.
func (s *Store) TruncateBlob(ctx *storage.Context, key string, size int64) error {
	if size < 0 {
		return fmt.Errorf("truncate %q to %d: %w", key, size, storage.ErrInvalidArg)
	}
	s.member.RLock()
	defer s.member.RUnlock()
	primary, d, err := s.primaryDesc(key)
	if err != nil {
		return err
	}
	if primary.isDown() {
		return fmt.Errorf("blob %q: primary down: %w", key, storage.ErrUnavailable)
	}
	s.cluster.MetaOp(ctx.Clock, primary.node, 1)

	d.latch.Lock()
	defer d.latch.Unlock()

	if size == d.size {
		return nil
	}
	cs := int64(s.cfg.ChunkSize)
	if size < d.size {
		oldChunks := (d.size + cs - 1) / cs
		keepChunks := (size + cs - 1) / cs
		batch := newWalBatch(s)
		for idx := keepChunks; idx < oldChunks; idx++ {
			id := chunkID{key, idx}
			h := id.ringHash()
			for _, o := range s.ownersForHash(h) {
				sv := s.servers[o]
				sv.deleteChunk(h, id)
				batch.addChunk(sv, wal.RecChunkDelete, h, id, 0, 0, nil)
			}
		}
		// Trim the boundary chunk.
		if keepChunks > 0 {
			idx := keepChunks - 1
			keep := size - idx*cs
			id := chunkID{key, idx}
			h := id.ringHash()
			for _, o := range s.ownersForHash(h) {
				sv := s.servers[o]
				sv.trimChunk(h, id, keep)
				batch.addChunk(sv, wal.RecChunkTruncate, h, id, keep, 0, nil)
			}
		}
		batch.flush(ctx)
	}
	d.version++
	d.size = size
	cg := s.directCharge(ctx)
	s.walAppendMeta(&cg, primary, wal.RecTruncate, key, size)
	s.replicateDescSize(ctx, key, d, size)
	return nil
}

// replicateDescSize pushes the new size to descriptor replicas in parallel.
// Caller holds the primary descriptor latch. d is the primary's descriptor
// object: after a migration's handover a replica may map the key to that
// very object (pointer-shared canonical descriptor), and the task must then
// skip its store — the size is already in place, and two replica tasks
// writing the shared field would race.
func (s *Store) replicateDescSize(ctx *storage.Context, key string, d *descriptor, size int64) {
	owners := s.descOwners(key)
	fan := s.newFan()
	for _, o := range owners[1:] {
		t := fan.task(taskDescReplicate)
		t.sv = s.servers[o]
		t.key = key
		t.size = size
		t.rec = wal.RecMeta
		t.desc = d
		fan.spawn(t)
	}
	fan.join(ctx)
}
