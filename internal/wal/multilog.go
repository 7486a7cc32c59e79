// multilog.go implements the sharded lane log: the per-server replacement
// for a single mutex-serialized Log, built so that parallel writers whose
// chunks already live behind independent lock stripes also append to
// independent log lanes.
//
// # Lane format and order keys
//
// A MultiLog is N lanes, each a private Log over its own Buffer medium.
// The on-medium lane format is exactly the single-log record format — a
// MultiLog with one lane produces a byte stream identical to a plain Log
// fed the same appends — with one semantic shift: the u64 LSN field of
// every record carries a server-scoped order key drawn from one atomic
// counter shared by all lanes. Keys are assigned in append order (the
// counter increments under the appending lane log's mutex), so:
//
//   - keys are unique and total-ordered across the whole MultiLog;
//   - within one lane, keys on the medium are strictly increasing;
//   - the key sequence 1,2,3,… enumerates the logical append order the
//     server observed, interleaved across lanes.
//
// ReplayMerged inverts the sharding at recovery: it decodes all lanes in
// lockstep and yields records in ascending key order, requiring the keys
// to be exactly consecutive from 1. The merged output is therefore always
// an exact order-key prefix of the logical append sequence: a torn lane
// tail creates a key gap, and everything logically after the gap — on any
// lane — is not yielded, so replay can never reorder records, resurrect a
// record whose causal predecessors were lost, or observe a state the live
// server never passed through. RecoverMerged additionally repairs the
// media to that prefix (truncating each lane past its last merged record)
// and re-bases the key counter, so post-recovery appends extend the prefix
// seamlessly.
//
// ResetAll (checkpoint compaction) resets the key counter along with the
// lane media: unlike a single Log's ResetSize, keys restart at 1 after a
// checkpoint, because the start-at-1 invariant is what lets merged replay
// detect a lane whose entire content was torn away.
package wal

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// MultiLog is a sharded write-ahead log: N lanes with independent mutexes
// and media, totally ordered by a shared order-key counter stamped into
// each record's LSN field. A lane append is the lane Log's append under
// that Log's own mutex — the key is drawn under it, so each lane's keys are
// strictly increasing and an AppendNV batch is contiguous with consecutive
// keys. Safe for concurrent appends; replay and recovery require quiescence
// (no in-flight appends), the same discipline Log's readers already assume.
type MultiLog struct {
	seq   atomic.Uint64 // order-key source shared by every lane
	lanes []mlane
}

// mlane is one lane: a private Log over a private Buffer.
type mlane struct {
	log *Log
	buf *Buffer
}

// NewMultiLog returns a lane log with the given lane count (minimum 1).
// Any lane count works; power-of-two counts make LaneFor a pure mask of
// the hash bits callers already use for lock striping.
func NewMultiLog(lanes int) *MultiLog {
	if lanes < 1 {
		lanes = 1
	}
	m := &MultiLog{lanes: make([]mlane, lanes)}
	for i := range m.lanes {
		buf := &Buffer{}
		l := New(buf)
		l.src = &m.seq
		m.lanes[i].log = l
		m.lanes[i].buf = buf
	}
	return m
}

// Lanes reports the lane count.
func (m *MultiLog) Lanes() int { return len(m.lanes) }

// LaneFor maps a placement hash to its lane. It reads the same upper hash
// bits the blob server's chunk-table lock striping uses, so with matching
// counts a chunk's log lane and its lock stripe coincide.
func (m *MultiLog) LaneFor(h uint64) int {
	return int((h >> 32) % uint64(len(m.lanes)))
}

// LaneBuffer exposes a lane's medium. Recovery truncation and the crash
// tests' torn-write injection go through it; appenders never should.
func (m *MultiLog) LaneBuffer(lane int) *Buffer { return m.lanes[lane].buf }

// LaneSize reports the encoded bytes appended to one lane since creation
// or its last reset/repair.
func (m *MultiLog) LaneSize(lane int) int64 { return m.lanes[lane].log.Size() }

// Size sums the lane sizes. The sum is exact only when the log is
// quiescent; concurrent appenders can move individual lanes mid-sum.
func (m *MultiLog) Size() int64 {
	var total int64
	for i := range m.lanes {
		total += m.lanes[i].log.Size()
	}
	return total
}

// NextKey returns the order key the next append will receive. Exact only
// when quiescent.
func (m *MultiLog) NextKey() uint64 { return m.seq.Load() + 1 }

// AppendV appends one record to the lane and returns its order key and
// encoded size. The header/payload split follows Log.AppendV; both segments
// must stay unchanged until the call returns.
func (m *MultiLog) AppendV(lane int, t RecordType, header, payload []byte) (key uint64, n int, err error) {
	return m.lanes[lane].log.AppendV(t, header, payload)
}

// AppendNV appends a batch of records to the lane atomically (contiguous
// on the medium, consecutive order keys). Returns the first record's key
// and the total encoded size. specs and the segments they reference must
// stay unchanged until the call returns.
func (m *MultiLog) AppendNV(lane int, specs []AppendVSpec) (firstKey uint64, n int, err error) {
	return m.lanes[lane].log.AppendNV(specs)
}

// LaneFeed supplies one lane's records, in medium order, to a merged
// replay. Next mirrors Decoder.Next: it yields the record, its full
// on-medium frame length, done=true at a clean end (EOF or torn tail), or
// an error (ErrCorrupt for checksum/framing failures). The merge consumes
// feeds one record at a time in exact order-key sequence, holding at most
// one head record per lane, so a feed's records must stay valid after it
// advances (Decoder's fresh-allocation contract).
//
// Feed i must stream exactly what lane i's medium holds — the frame
// lengths are summed into the lane's repair truncation point, so a feed
// that skips, reorders, or re-frames records would make RecoverMergedFeeds
// corrupt the medium. Decoder over LaneBuffer(i).Reader() is the canonical
// implementation; concurrent pre-decoding pipelines (the blob store's
// parallel recovery) batch that same decode stream ahead of the merge.
type LaneFeed interface {
	Next() (rec Record, frame int64, done bool, err error)
}

// ReplayMerged decodes every lane and yields records in logical append
// order — ascending order key, required to be exactly consecutive from 1.
// It stops cleanly at the first missing key (a torn lane tail tears away
// everything logically after it, on every lane) and returns ErrCorrupt if
// any lane's decode hit a checksum failure while the merge still wanted
// records from it. If fn returns an error, replay stops and returns it.
// Requires quiescence.
func (m *MultiLog) ReplayMerged(fn func(Record) error) error {
	_, _, err := replayMergedFeeds(m.laneFeeds(), fn)
	return err
}

// ReplayMergedFeeds is ReplayMerged over caller-supplied lane feeds — one
// per lane, in lane order. It exists so recovery can pre-decode lanes
// concurrently while the merge itself (and therefore the prefix contract)
// stays this package's single implementation. Requires quiescence.
func (m *MultiLog) ReplayMergedFeeds(feeds []LaneFeed, fn func(Record) error) error {
	_, _, err := replayMergedFeeds(m.checkFeeds(feeds), fn)
	return err
}

// laneFeeds returns the serial decode feeds: one Decoder per lane over a
// snapshot of that lane's medium.
func (m *MultiLog) laneFeeds() []LaneFeed {
	feeds := make([]LaneFeed, len(m.lanes))
	for i := range m.lanes {
		feeds[i] = NewDecoder(m.lanes[i].buf.Reader())
	}
	return feeds
}

// checkFeeds validates a caller-supplied feed set against the lane count.
func (m *MultiLog) checkFeeds(feeds []LaneFeed) []LaneFeed {
	if len(feeds) != len(m.lanes) {
		panic(fmt.Sprintf("wal: %d lane feeds for a %d-lane log", len(feeds), len(m.lanes)))
	}
	return feeds
}

// replayMergedFeeds is the merge engine: it yields records across the
// feeds in exact order-key sequence and additionally returns, per lane,
// the byte length of the lane's prefix that lies within the merged
// order-key prefix (the repair truncation point), and the last key
// yielded. It is the ONLY merge implementation — serial decode and
// concurrent pre-decode differ solely in the feed, so the prefix contract
// cannot fork between them.
func replayMergedFeeds(feeds []LaneFeed, fn func(Record) error) (consumed []int64, last uint64, err error) {
	k := len(feeds)
	consumed = make([]int64, k)
	heads := make([]Record, k)
	frames := make([]int64, k)
	live := make([]bool, k)
	corrupt := false
	load := func(i int) error {
		rec, frame, done, derr := feeds[i].Next()
		if derr != nil {
			if errors.Is(derr, ErrCorrupt) {
				// The lane is unreadable from here on; the merge stops at
				// this lane's next key and reports the corruption.
				corrupt = true
				live[i] = false
				return nil
			}
			return derr
		}
		if done {
			live[i] = false
			return nil
		}
		heads[i], frames[i], live[i] = rec, frame, true
		return nil
	}
	for i := range feeds {
		if err := load(i); err != nil {
			return consumed, last, err
		}
	}
	for next := uint64(1); ; next++ {
		found := -1
		for i := 0; i < k; i++ {
			if live[i] && heads[i].LSN == next {
				found = i
				break
			}
		}
		if found < 0 {
			break // key gap or all lanes exhausted: end of the merged prefix
		}
		if err := fn(heads[found]); err != nil {
			return consumed, last, err
		}
		consumed[found] += frames[found]
		last = next
		if err := load(found); err != nil {
			return consumed, last, err
		}
	}
	if corrupt {
		return consumed, last, ErrCorrupt
	}
	return consumed, last, nil
}

// RecoverMerged is ReplayMerged plus crash repair: after a clean merge it
// truncates every lane to its last record inside the merged prefix —
// discarding torn tails AND records that decoded clean but lie logically
// after a gap, which are unrecoverable under the prefix contract — resets
// each lane's size accounting, and re-bases the order-key counter so the
// next append extends the recovered prefix. On error (ErrCorrupt, a
// handler error) nothing is repaired. Requires quiescence.
func (m *MultiLog) RecoverMerged(fn func(Record) error) error {
	return m.recoverFeeds(m.laneFeeds(), fn)
}

// RecoverMergedFeeds is RecoverMerged over caller-supplied lane feeds (see
// ReplayMergedFeeds). The repair truncation points are the frame sums of
// the merged records as the feeds reported them, so the feeds must stream
// the lane media bit-for-bit. Requires quiescence.
func (m *MultiLog) RecoverMergedFeeds(feeds []LaneFeed, fn func(Record) error) error {
	return m.recoverFeeds(m.checkFeeds(feeds), fn)
}

func (m *MultiLog) recoverFeeds(feeds []LaneFeed, fn func(Record) error) error {
	consumed, last, err := replayMergedFeeds(feeds, fn)
	if err != nil {
		return err
	}
	for i := range m.lanes {
		ln := &m.lanes[i]
		if int64(ln.buf.Len()) > consumed[i] {
			ln.buf.Truncate(int(consumed[i]))
		}
		ln.log.SetSize(consumed[i])
	}
	m.seq.Store(last)
	return nil
}

// ResetAll discards every lane's content and restarts the order keys at 1
// (checkpoint compaction: the snapshot that follows is a fresh logical
// history). Unlike Log.ResetSize, keys deliberately do NOT stay monotonic
// across a reset — merged replay's start-at-1 invariant is what detects a
// lane whose entire content was torn away. Requires quiescence.
func (m *MultiLog) ResetAll() {
	for i := range m.lanes {
		m.lanes[i].buf.Reset()
		m.lanes[i].log.ResetSize()
	}
	m.seq.Store(0)
}
