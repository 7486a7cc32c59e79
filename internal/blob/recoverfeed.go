// recoverfeed.go implements the parallel lane-decode stage of crash
// recovery: one pre-decoding feed per WAL lane, riding the shared worker
// pool (dispatch.go), in front of wal.MultiLog's order-key merge.
//
// The shape is a per-lane double buffer. Each feed owns two record
// batches: the merge consumes one (cur) while a pool job decodes the
// other (next); when cur drains, the feed waits for the in-flight job,
// swaps the batches, and immediately kicks a job for the batch after
// that. At any moment at most one decode job per lane is in flight and at
// most two batches per lane are materialized, so the pipeline is bounded
// no matter how large the log is — and with every lane's first batch
// kicked before the merge starts, all lanes decode concurrently from the
// first record.
//
// The dispatch contract (dispatch.go) is preserved by construction:
//
//   - a decode job never blocks — it decodes a fixed-size batch from its
//     lane's medium, read in place (wal.Decoder), and signals a
//     capacity-1 channel that is empty by protocol (one job in flight per
//     feed, the consumer drains the signal before kicking the next);
//   - only the recovery caller — the merge, then the drain after it, never
//     a pool worker — waits on that channel, the same
//     caller-waits-on-workers class as ctxFan.join;
//   - a kick that finds the pool queue full decodes inline on the caller,
//     exactly like ctxFan.dispatch's fallback, so a saturated pool
//     degrades to the serial path instead of deadlocking.
//
// The merge itself — and with it the strict consecutive-from-1 order-key
// prefix contract and the media repair — is wal.replayMergedFeeds, shared
// bit-for-bit with the serial path (Store.serialRecovery); a feed only
// re-stages the decode, which is why parallel recovery cannot diverge
// from the single-threaded oracle.
//
// The media are read in place, so no lane byte a job may still read can be
// rewritten before the job is done. Recovery's quiescence gives that
// everywhere but one window: when the merge stops at a key gap, other
// lanes can still have a prefetch in flight, and Recover's resync then
// appends at the repair truncation point, over bytes that job may be
// reading. recoverLanes closes it by draining every feed before it returns.
package blob

import "repro/internal/wal"

// recoveryBatchRecs is the record count of one pre-decoded lane batch:
// small enough that two batches of chunk-sized records per lane stay a
// bounded fraction of the recovering server's state, large enough that the
// merge rarely waits on an in-flight decode.
const recoveryBatchRecs = 64

// laneBatch is one pre-decoded run of a lane's records. done/err terminate
// the lane after recs: done reports the clean end of the medium (EOF or
// torn tail), err a decode failure (wal.ErrCorrupt).
type laneBatch struct {
	recs   []wal.Record
	frames []int64
	done   bool
	err    error
}

// laneFeed is the double-buffered, pool-prefetched wal.LaneFeed over one
// lane. It is also the pool job (runnable): run decodes the next batch.
type laneFeed struct {
	dec *wal.Decoder
	cur laneBatch // batch the merge is consuming
	i   int       // cursor into cur.recs
	// next is the prefetch target. Between kick and the ready signal it is
	// owned by the decode job; the merge must not touch it.
	next  laneBatch
	ready chan struct{} // job -> merge completion signal, capacity 1
}

// recoverLanes is m.RecoverMergedFeeds over one prefetching feed per lane,
// every lane's first batch kicked onto the worker pool so all lanes decode
// concurrently while the caller enters the merge. It returns, on error too,
// only once no decode job is in flight (see the package doc).
func recoverLanes(m *wal.MultiLog, fn func(wal.Record) error) error {
	feeds := make([]*laneFeed, m.Lanes())
	lfs := make([]wal.LaneFeed, len(feeds))
	for lane := range feeds {
		f := &laneFeed{
			dec:   wal.NewDecoder(m.LaneBuffer(lane)),
			ready: make(chan struct{}, 1),
		}
		f.cur.recs = make([]wal.Record, 0, recoveryBatchRecs)
		f.cur.frames = make([]int64, 0, recoveryBatchRecs)
		f.next.recs = make([]wal.Record, 0, recoveryBatchRecs)
		f.next.frames = make([]int64, 0, recoveryBatchRecs)
		f.kick()
		feeds[lane], lfs[lane] = f, f
	}
	err := m.RecoverMergedFeeds(lfs, fn)
	for _, f := range feeds {
		f.drain()
	}
	return err
}

// kick submits the next-batch decode to the worker pool, or runs it inline
// when the queue is full (the job is non-blocking, so inline fallback is
// safe on the merge caller).
func (f *laneFeed) kick() {
	if !offerHelp(f) {
		f.run()
	}
}

// run decodes up to recoveryBatchRecs records into the spare batch and
// signals the merge. It is the pool job body: pure decode work against the
// feed's private snapshot — no locks, no blocking, no pool waits.
func (f *laneFeed) run() {
	b := &f.next
	b.recs, b.frames = b.recs[:0], b.frames[:0]
	b.done, b.err = false, nil
	for len(b.recs) < recoveryBatchRecs {
		rec, frame, done, err := f.dec.Next()
		if done || err != nil {
			b.done, b.err = done, err
			break
		}
		b.recs = append(b.recs, rec)
		b.frames = append(b.frames, frame)
	}
	f.ready <- struct{}{}
}

// Next implements wal.LaneFeed: it serves the current batch record by
// record and, on exhaustion, waits for the in-flight prefetch, swaps the
// double buffer, and kicks the following batch. Only the recovery caller
// runs Next, so the wait blocks no pool worker.
func (f *laneFeed) Next() (wal.Record, int64, bool, error) {
	for {
		if f.i < len(f.cur.recs) {
			rec, frame := f.cur.recs[f.i], f.cur.frames[f.i]
			// The merge owns the record now; drop the batch's reference so
			// the recycled slot cannot pin the payload.
			f.cur.recs[f.i] = wal.Record{}
			f.i++
			return rec, frame, false, nil
		}
		if f.cur.done || f.cur.err != nil {
			return wal.Record{}, 0, f.cur.done, f.cur.err
		}
		<-f.ready
		f.cur, f.next = f.next, f.cur
		f.i = 0
		if !f.cur.done && f.cur.err == nil {
			f.kick()
		}
	}
}

// drain waits for the feed's in-flight decode job, if any, and ends the
// feed. A job is in flight exactly while the current batch is not the
// lane's last: Next kicks the following batch whenever it swaps in one
// that is not.
func (f *laneFeed) drain() {
	if !f.cur.done && f.cur.err == nil {
		<-f.ready
		f.cur = laneBatch{done: true}
	}
}
