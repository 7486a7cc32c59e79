package blob

import (
	"fmt"
	"slices"
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
	// Size lookup: one flat-namespace metadata op on the descriptor primary.
	_, d, err := s.latchDesc(ctx, key, false, true)
	if err != nil {
		return 0, err
	}
	defer s.unlockKey(key, false)
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
	if c, ok := st.m[id]; ok && within < int64(len(c.b)) {
		copied = copy(dst, c.b[within:])
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
// every participant chunk, then commit — the paper's "blob manipulation"
// primitive with built-in atomicity.
func (s *Store) WriteBlob(ctx *storage.Context, key string, off int64, p []byte) (n int, err error) {
	if off < 0 {
		return 0, s.opFailed(OpWrite, key, "", off, p, fmt.Errorf("write %q at %d: %w", key, off, storage.ErrInvalidArg))
	}
	s.member.RLock()
	defer s.member.RUnlock()
	// No descriptor round trip here: placement is client-side (the hash
	// ring), so a write contacts only the chunk servers it touches. The
	// descriptor primary is involved only for multi-chunk transactions and
	// size extensions below — the flat-namespace advantage the paper's
	// future-work experiment measures.
	primary, d, err := s.latchDesc(ctx, key, true, false)
	if err != nil {
		return 0, s.opFailed(OpWrite, key, "", off, p, err)
	}
	defer s.unlockKey(key, true)
	defer s.opEnd(OpWrite, key, "", off, p, &err)
	if len(p) == 0 {
		return 0, nil
	}
	return s.writeLocked(ctx, key, primary, d.size, off, p, false)
}

// chunkPlace is one participant chunk's resolved placement, computed once
// per write and shared by the prepare, data, and commit phases. ver is the
// version this write installs on every replica it reaches: assigned by the
// caller under the key latch (one more than the highest version any
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
	// sum is the CRC32C of this write's bytes for the chunk, computed once by
	// the data phase (writeChunk) for every replica's record and apply.
	sum uint32
	// stored, for a multi-chunk write, holds per owner (indexed like owners)
	// the payload that owner's prepare stored in its log; the commit apply
	// keeps it as the owner's chunk bytes (taskApplyChunk).
	stored [][]byte
}

// writeScratch is one write's pooled placement scratch: the participant
// chunks, and the views every chunkPlace.stored slices.
type writeScratch struct {
	places []chunkPlace
	views  [][]byte
}

// placePool recycles the per-write placement scratch.
var placePool = sync.Pool{
	New: func() any {
		return &writeScratch{places: make([]chunkPlace, 0, 8)}
	},
}

// writeLocked performs the write with key latched exclusively, onto a blob
// of the given size. WriteBlob calls it with direct=false, RenameBlob with
// direct=true.
//
// Multi-chunk writes log 2PC-style: the data phase appends RecPrepWrite to
// every replica of every participant, the commit phase appends
// RecChunkCommit to the same set, and a data-phase failure appends nothing
// more — so crash replay applies a multi-chunk write all-or-nothing
// (recovery.go buffers prepares and materializes them only on commit; a
// prepare whose commit never comes is overwritten by the chunk's next
// prepare or dropped at the end of the log).
//
// direct=true commits every chunk with RecWrite and skips the prepare and
// commit phases even for a multi-chunk span. That is sound ONLY when the
// caller needs no write-level crash atomicity: RenameBlob's copy-in
// qualifies — the target key is freshly created and both keys' latches
// are held (no reader or writer can observe a partial span), and
// the rename's own crash story is "never acked, source intact until the
// final logged delete", not chunk-transactionality (a sparse rename
// flushes multiple spans, so 2PC per span never provided rename-level
// atomicity anyway). Per-chunk RecWrite records replay independently,
// exactly like ordinary single-chunk writes.
func (s *Store) writeLocked(ctx *storage.Context, key string, primary *server, size, off int64, p []byte, direct bool) (int, error) {
	cs := int64(s.cfg.ChunkSize)
	firstChunk := off / cs
	lastChunk := (off + int64(len(p)) - 1) / cs
	multi := (lastChunk > firstChunk) && !direct

	// Resolve every participant chunk's placement once; the prepare, data,
	// and commit phases all dispatch from this scratch instead of
	// re-hashing and re-probing per phase.
	ws := placePool.Get().(*writeScratch)
	places := ws.places[:0]
	defer func() {
		clear(ws.views) // drop the views of the owners' log lanes
		ws.places, ws.views = places[:0], ws.views[:0]
		placePool.Put(ws)
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
		n := 0
		for i := range places {
			n += len(places[i].owners)
		}
		ws.views = slices.Grow(ws.views[:0], n)[:n]
		n = 0
		for i := range places {
			k := len(places[i].owners)
			places[i].stored = ws.views[n : n+k : n+k]
			n += k
		}

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
		// Readers cannot observe the window: the key latch is held
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
		batch.flushParallel(ctx)
	}

	// Descriptor update: extend size if needed, replicate.
	if end := off + int64(len(p)); end > size {
		s.cluster.MetaOp(ctx.Clock, primary.node, 1)
		s.setSize(ctx, key, primary, end)
	}

	// Degraded-write epilogue: drain the debt owed to any excluded owner that
	// is up by now. The rejoin drain (SetDown) may have run BEFORE this write
	// recorded its debt and found nothing, and nothing else services debt
	// naming an already-live node. The handoff is race-free because the debt
	// is recorded before this check: a rejoin before it is seen here, a
	// rejoin after it sees the debt.
	var excl uint64
	for i := range places {
		excl |= places[i].excl
		if s.observe != nil {
			s.observe(Event{Kind: EventChunk, Type: wal.RecWrite, Blob: key, Off: places[i].id.idx, Ver: places[i].ver})
		}
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
// as one owner is left to take it, each included owner applies the write,
// and once the primary has, the excluded owners are recorded as repair debt
// (debt.go). An injected permanent fault at the promoted primary fails the
// write before anything durable lands (fail-atomic); the same fault at a
// non-primary live replica degrades instead, the failed replica recorded
// like an excluded owner.
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
	// medium in one copy, with only the chunk-addressing header staged, and
	// the chunk keeps that copy (keepLogged). The payload is checksummed
	// once, here: every replica's record folds this sum in, and the
	// commit-phase apply reads it from the shared placement.
	pl.sum = wal.Checksum(data)
	t.plp.sum = pl.sum
	apply := rec == wal.RecWrite
	cg.rpc(primary.node, len(data), 64, 0)
	stored := s.walAppendChunk(cg, primary, rec, pl.h, pl.id, within, pl.ver, data, pl.sum)
	keepLogged(primary, pl, within, stored, rec)
	cg.diskWrite(primary.node, len(data))
	// Exclusion debt rides with the APPLY, never ahead of it: the direct
	// path records it here, once the version exists, the prepared path at
	// commit materialization (taskApplyChunk), so an aborted transaction
	// lists nobody.
	if apply {
		s.debt.record(pl.h, pl.id, downMask, pl.ver)
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
			sf.spawn(rt)
		}
		t.joinSubs(&sf)
	}
	if downMask != 0 {
		s.metrics.Counter("blob.write.degraded").Inc()
	}
	return nil
}

// replicaWrite is the per-replica body of writeChunk's nested fan. A
// permanent injected fault here does NOT fail the write: the primary already
// holds the bytes durably, so the failed replica simply joins the excluded
// set (plp.excl, shared with the later phases) — RADOS-style "primary acks,
// marks the peer missing, recovery backfills". A prepared write then skips it
// at apply and commit, where the commit apply lists it with the other
// excluded owners: it logged no prepare, so applying there would leave its
// log unable to reproduce the version its memory claims. A direct write has
// no later phase, and the primary has applied, so it is listed right here.
func (s *Store) replicaWrite(cg *charge, sv *server, plp *chunkPlace, pl chunkPlace, within int64, data []byte, rec wal.RecordType) error {
	if err := s.faultCheck(cg, sv.node, cluster.FaultDiskWrite); err != nil {
		bit := uint64(1) << uint(sv.node)
		atomic.OrUint64(&plp.excl, bit)
		if rec == wal.RecWrite {
			s.debt.record(pl.h, pl.id, bit, pl.ver)
		}
		s.metrics.Counter("blob.write.replica-faulted").Inc()
		return nil
	}
	cg.rpc(sv.node, len(data), 64, 0)
	stored := s.walAppendChunk(cg, sv, rec, pl.h, pl.id, within, pl.ver, data, pl.sum)
	keepLogged(sv, pl, within, stored, rec)
	cg.diskWrite(sv.node, len(data))
	return nil
}

// keepLogged finishes one replica's share of a chunk write once its log
// append has returned stored, the payload as sv's own lane holds it: a direct
// write applies it now, a prepared one leaves it in the shared placement for
// the commit apply.
//
// Append first, then apply, with no lock held between: an included owner
// holds the survey's maximum, ver−1, so the only install that can land in
// between carries the write's own version, pulled from a replica that
// already applied it, with identical bytes. Its record follows this write's
// on the lane, and the apply below leaves memory as that install did.
func keepLogged(sv *server, pl chunkPlace, within int64, stored []byte, rec wal.RecordType) {
	if rec != wal.RecWrite {
		pl.stored[slices.Index(pl.owners, int(sv.node))] = stored
		return
	}
	applyChunk(sv, pl.h, pl.id, within, chunkBytes{b: stored, sum: pl.sum, summed: true}, pl.ver)
}

// applyChunk puts p's bytes into sv's copy of the chunk at within and
// installs the write's version. It never writes into an entry's bytes: a
// whole-chunk write — at 0, covering the old length — keeps p itself, sum
// and all; a partial write builds a merged slice, zero-filling any gap
// (sparse semantics), and forgets the sum. p's bytes must not change after
// the call: the payload sv's own log stored, live or replayed.
func applyChunk(sv *server, h uint64, id chunkID, within int64, p chunkBytes, ver uint64) {
	st := sv.stripe(h)
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.m[id].b
	if need := within + int64(len(p.b)); within > 0 || int64(len(old)) > need {
		merged := make([]byte, max(int64(len(old)), need))
		copy(merged, old)
		copy(merged[within:], p.b)
		p = chunkBytes{b: merged}
		sv.copied(len(merged))
	}
	st.m[id] = p
	if ver > st.ver[id] {
		st.ver[id] = ver
	}
}

// TruncateBlob sets the blob's size. Shrinking drops whole chunks past the
// new end to tombstones and trims the boundary chunk, each at a new version;
// growing is sparse (reads return zeros). Truncating to the current size is
// a pure metadata probe: after the lookup charge it changes nothing — no WAL
// record, no descriptor replication.
func (s *Store) TruncateBlob(ctx *storage.Context, key string, size int64) (err error) {
	if size < 0 {
		return s.opFailed(OpTruncate, key, "", size, nil, fmt.Errorf("truncate %q to %d: %w", key, size, storage.ErrInvalidArg))
	}
	s.member.RLock()
	defer s.member.RUnlock()
	primary, d, err := s.latchDesc(ctx, key, true, true)
	if err != nil {
		return s.opFailed(OpTruncate, key, "", size, nil, err)
	}
	defer s.unlockKey(key, true)
	defer s.opEnd(OpTruncate, key, "", size, nil, &err)

	if size == d.size {
		return nil
	}
	cs := int64(s.cfg.ChunkSize)
	if size < d.size {
		oldChunks := (d.size + cs - 1) / cs
		keepChunks := (size + cs - 1) / cs
		batch := newWalBatch(s)
		s.tombstoneChunks(batch, key, keepChunks, oldChunks)
		// Trim the boundary chunk at a new version, like a write, on every
		// copy at the maximum — a stray's too, or a migration could install
		// its untrimmed bytes. A copy behind it keeps its version, to be
		// replaced whole by whoever catches it up.
		if keepChunks > 0 {
			idx := keepChunks - 1
			keep := size - idx*cs
			id := chunkID{key, idx}
			h := id.ringHash()
			var buf [8]replica
			sy := s.surveyChunk(h, id, buf[:])
			for _, r := range sy.reps {
				if !r.wiped && !r.stale && r.ver == sy.max {
					r.sv.trimChunk(h, id, keep, sy.max+1)
					batch.addChunk(r.sv, wal.RecChunkTruncate, h, id, keep, sy.max+1, nil)
				}
			}
			if sy.max > 0 && s.observe != nil { // a copy was there to trim
				s.observe(Event{Kind: EventChunk, Type: wal.RecChunkTruncate, Blob: key, Off: idx, Ver: sy.max + 1})
			}
		}
		batch.flush(ctx)
	}
	s.setSize(ctx, key, primary, size)
	return nil
}
