package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// TestMultiLogSingleLaneByteIdentical pins the acceptance baseline: a
// MultiLog with one lane, driven through any mix of AppendV and AppendNV,
// produces a byte stream identical to a plain Log fed the same appends —
// the lane format IS the single-log format, order keys land where LSNs do.
func TestMultiLogSingleLaneByteIdentical(t *testing.T) {
	f := func(ops []vOp, batchEvery uint8) bool {
		m := NewMultiLog(1)
		var rb Buffer
		ref := New(&rb)

		every := int(batchEvery%4) + 1
		var batch []AppendVSpec
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			mk, mn, err := m.AppendNV(0, batch)
			if err != nil {
				return false
			}
			rk, rn, err := ref.AppendNV(batch)
			if err != nil {
				return false
			}
			batch = batch[:0]
			return mk == rk && mn == rn
		}
		for i, op := range ops {
			if i%every == every-1 {
				batch = append(batch, AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload})
				if !flush() {
					return false
				}
				continue
			}
			mk, mn, err := m.AppendV(0, RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			rk, rn, err := ref.AppendV(RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			if mk != rk || mn != rn {
				return false
			}
		}
		if !flush() {
			return false
		}
		got := readerBytes(t, m.LaneBuffer(0))
		want := readerBytes(t, &rb)
		if !bytes.Equal(got, want) {
			t.Logf("single-lane MultiLog diverges from Log: %d vs %d bytes", len(got), len(want))
			return false
		}
		return m.Size() == ref.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiLogMergedOrderConcurrent drives concurrent appenders — single
// records mixed with 2–5-record batches — across shared lanes and checks the
// append and merge contracts: every request's returned (firstKey, n) matches
// the reference encoding, a batch's records sit adjacent on its lane's
// medium with consecutive keys, each lane's keys strictly increase, and
// ReplayMerged yields every record exactly once, keys exactly consecutive
// from 1, each bit-identical to what the appender that received that key
// wrote. One lane is the fully contended case.
func TestMultiLogMergedOrderConcurrent(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) { testMergedOrderConcurrent(t, lanes) })
	}
}

func testMergedOrderConcurrent(t *testing.T, lanes int) {
	const (
		writers = 8
		perW    = 200
	)
	m := NewMultiLog(lanes)
	type request struct {
		lane  int
		first uint64
		specs []AppendVSpec
	}
	reqs := make([][]request, writers) // per writer, no sharing
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				lane := (w + j) % lanes
				k := 1
				if (w+j)%3 == 0 {
					k = 2 + (w*7+j)%4 // 2..5
				}
				specs := make([]AppendVSpec, k)
				wantN := 0
				for i := range specs {
					payload := []byte(fmt.Sprintf("w%d-j%d-r%d", w, j, i))
					split := j % (len(payload) + 1)
					specs[i] = AppendVSpec{Type: RecordType(1 + (w+j+i)%11), Header: payload[:split], Payload: payload[split:]}
					wantN += len(appendRecord(nil, specs[i].Type, 0, payload))
				}
				var first uint64
				var n int
				var err error
				if k == 1 {
					first, n, err = m.AppendV(lane, specs[0].Type, specs[0].Header, specs[0].Payload)
				} else {
					first, n, err = m.AppendNV(lane, specs)
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if n != wantN {
					t.Errorf("writer %d request %d: encoded size %d, reference encoding %d", w, j, n, wantN)
				}
				reqs[w] = append(reqs[w], request{lane, first, specs})
			}
		}(w)
	}
	wg.Wait()

	// Where each key landed: lane and position on that lane's medium.
	type slot struct{ lane, pos int }
	at := map[uint64]slot{}
	for lane := 0; lane < lanes; lane++ {
		recs, err := ReplayAll(m.LaneBuffer(lane).Reader())
		if err != nil {
			t.Fatal(err)
		}
		for pos, rec := range recs {
			if pos > 0 && rec.LSN <= recs[pos-1].LSN {
				t.Fatalf("lane %d: key %d follows key %d on the medium", lane, rec.LSN, recs[pos-1].LSN)
			}
			at[rec.LSN] = slot{lane, pos}
		}
	}
	byKey := map[uint64]AppendVSpec{}
	for w := range reqs {
		for _, r := range reqs[w] {
			head, ok := at[r.first]
			if !ok || head.lane != r.lane {
				t.Fatalf("key %d: on lane %d (found %v), appended to lane %d", r.first, head.lane, ok, r.lane)
			}
			for i, sp := range r.specs {
				key := r.first + uint64(i)
				if _, dup := byKey[key]; dup {
					t.Fatalf("key %d assigned twice", key)
				}
				byKey[key] = sp
				if got := at[key]; got != (slot{head.lane, head.pos + i}) {
					t.Fatalf("batch at key %d: record %d sits at %+v, want lane %d position %d",
						r.first, i, got, head.lane, head.pos+i)
				}
			}
		}
	}

	next := uint64(1)
	err := m.ReplayMerged(func(rec Record) error {
		if rec.LSN != next {
			return fmt.Errorf("merged key %d, want %d", rec.LSN, next)
		}
		want, ok := byKey[rec.LSN]
		joined := append(append([]byte(nil), want.Header...), want.Payload...)
		if !ok || rec.Type != want.Type || !bytes.Equal(rec.Payload, joined) {
			return fmt.Errorf("key %d: record %v %q diverges from appended %v %q",
				rec.LSN, rec.Type, rec.Payload, want.Type, joined)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := next-1, uint64(len(byKey)); got != want {
		t.Fatalf("merged %d records, appended %d", got, want)
	}
}

// TestMultiLogRecoverRepairsTornLanes: a tear on one lane must make the
// merged prefix stop at the gap, recovery must truncate every lane to the
// prefix — including records on OTHER lanes that decoded clean but lie
// logically after the gap — and post-recovery appends must extend the
// prefix and survive the next replay.
func TestMultiLogRecoverRepairsTornLanes(t *testing.T) {
	m := NewMultiLog(2)
	// Alternate lanes: keys 1,3,5 on lane 0; keys 2,4,6 on lane 1.
	for i := 1; i <= 6; i++ {
		lane := (i + 1) % 2
		if _, _, err := m.AppendV(lane, RecWrite, nil, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Tear lane 0's tail: key 5's record is damaged -> merged prefix is
	// keys 1..4; key 6 on lane 1 is clean on its medium but unrecoverable.
	b0 := m.LaneBuffer(0)
	b0.Truncate(b0.Len() - 2)
	lane1Full := m.LaneBuffer(1).Len()

	var keys []uint64
	if err := m.RecoverMerged(func(rec Record) error {
		keys = append(keys, rec.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys[3] != 4 {
		t.Fatalf("recovered keys %v, want [1 2 3 4]", keys)
	}
	if m.LaneBuffer(1).Len() >= lane1Full {
		t.Fatal("repair did not truncate the after-gap record off lane 1")
	}
	if m.NextKey() != 5 {
		t.Fatalf("NextKey after recovery = %d, want 5", m.NextKey())
	}

	// Post-recovery appends land at key 5 and the next replay is clean and
	// complete.
	if key, _, err := m.AppendV(0, RecCommit, nil, []byte("after")); err != nil || key != 5 {
		t.Fatalf("post-recovery append: key=%d err=%v", key, err)
	}
	keys = keys[:0]
	if err := m.ReplayMerged(func(rec Record) error {
		keys = append(keys, rec.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 || keys[4] != 5 {
		t.Fatalf("replay after post-recovery append: keys %v, want [1 2 3 4 5]", keys)
	}
}

// TestMultiLogCorruptLaneReportsErrCorrupt: a checksum failure on a lane
// the merge still needs must surface as ErrCorrupt, with only the exact
// pre-corruption prefix yielded, and RecoverMerged must refuse to repair.
func TestMultiLogCorruptLaneReportsErrCorrupt(t *testing.T) {
	m := NewMultiLog(2)
	for i := 1; i <= 4; i++ {
		if _, _, err := m.AppendV(i%2, RecWrite, nil, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte inside lane 1's first record (keys 1 and 3 live there).
	if err := m.LaneBuffer(1).Corrupt(recPrefixLen); err != nil {
		t.Fatal(err)
	}
	var n int
	err := m.ReplayMerged(func(Record) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n != 0 {
		t.Fatalf("yielded %d records past a corrupt key-1 record, want 0", n)
	}
	if err := m.RecoverMerged(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("RecoverMerged err = %v, want ErrCorrupt", err)
	}
}

// TestMultiLogResetAllRestartsKeys: checkpoint compaction must restart the
// order keys at 1 so merged replay's start-at-1 invariant holds for the
// snapshot that follows, and the lanes must be empty.
func TestMultiLogResetAllRestartsKeys(t *testing.T) {
	m := NewMultiLog(3)
	for i := 0; i < 10; i++ {
		if _, _, err := m.AppendV(i%3, RecWrite, nil, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	m.ResetAll()
	if m.Size() != 0 || m.NextKey() != 1 {
		t.Fatalf("after ResetAll: size=%d nextKey=%d", m.Size(), m.NextKey())
	}
	key, _, err := m.AppendV(2, RecCreate, nil, []byte("snapshot"))
	if err != nil || key != 1 {
		t.Fatalf("first post-reset append: key=%d err=%v", key, err)
	}
	count := 0
	if err := m.ReplayMerged(func(rec Record) error {
		count++
		if rec.LSN != 1 || rec.Type != RecCreate {
			return fmt.Errorf("unexpected record %v key %d", rec.Type, rec.LSN)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d records after reset+append, want 1", count)
	}
}

// batchedFeed serves a lane's pre-decoded records from memory — the
// staged-decode shape the blob store's parallel recovery pipeline hands
// the merge, terminal state included. Unlike a live Decoder it exposes the
// already-materialized transitions (batch exhaustion, done/err after a
// partial run) the feed contract has to define precisely.
type batchedFeed struct {
	recs   []Record
	frames []int64
	i      int
	done   bool
	err    error
}

func (f *batchedFeed) Next() (Record, int64, bool, error) {
	if f.i < len(f.recs) {
		rec, frame := f.recs[f.i], f.frames[f.i]
		f.i++
		return rec, frame, false, nil
	}
	return Record{}, 0, f.done, f.err
}

// preDecode drains one lane through the exported Decoder into a
// batchedFeed, exactly what a concurrent pre-decoding stage produces.
func preDecode(m *MultiLog, lane int) *batchedFeed {
	f := &batchedFeed{}
	dec := NewDecoder(m.LaneBuffer(lane).Reader())
	for {
		rec, frame, done, err := dec.Next()
		if done || err != nil {
			f.done, f.err = done, err
			return f
		}
		f.recs = append(f.recs, rec)
		f.frames = append(f.frames, frame)
	}
}

func preDecodeAll(m *MultiLog) []LaneFeed {
	feeds := make([]LaneFeed, m.Lanes())
	for lane := range feeds {
		feeds[lane] = preDecode(m, lane)
	}
	return feeds
}

// fillMergedFixture drives a deterministic interleaved history across 3
// lanes (singles and batches), so two calls produce byte-identical logs.
func fillMergedFixture(t *testing.T, m *MultiLog) {
	t.Helper()
	for i := 0; i < 40; i++ {
		lane := (i * 7) % 3
		payload := make([]byte, 5+(i*11)%90)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		if i%5 == 4 {
			specs := []AppendVSpec{
				{Type: RecWrite, Header: payload[:2], Payload: payload[2:]},
				{Type: RecCommit, Payload: payload[:3]},
			}
			if _, _, err := m.AppendNV(lane, specs); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := m.AppendV(lane, RecWrite, payload[:1], payload[1:]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergedFeedsMatchSerial pins ReplayMergedFeeds/RecoverMergedFeeds
// against the serial decode path on the same torn media: identical record
// sequences, identical error, and — after recovery through feeds on one
// log and through the serial path on a byte-identical twin — identical
// repaired media and size accounting.
func TestMergedFeedsMatchSerial(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(m *MultiLog)
	}{
		{"untouched", func(m *MultiLog) {}},
		{"one-lane-torn", func(m *MultiLog) { m.LaneBuffer(1).Truncate(m.LaneBuffer(1).Len() - 4) }},
		{"two-lanes-torn", func(m *MultiLog) {
			m.LaneBuffer(0).Truncate(m.LaneBuffer(0).Len() / 2)
			m.LaneBuffer(2).Truncate(m.LaneBuffer(2).Len() - 1)
		}},
		{"lane-cleared", func(m *MultiLog) { m.LaneBuffer(2).Truncate(0) }},
		{"corrupt", func(m *MultiLog) {
			if err := m.LaneBuffer(0).Corrupt(10); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			m := NewMultiLog(3)
			twin := NewMultiLog(3)
			fillMergedFixture(t, m)
			fillMergedFixture(t, twin)
			tear.cut(m)
			tear.cut(twin)

			collect := func(dst *[]Record) func(Record) error {
				return func(rec Record) error {
					p := append([]byte(nil), rec.Payload...)
					*dst = append(*dst, Record{Type: rec.Type, LSN: rec.LSN, Payload: p})
					return nil
				}
			}
			var serial, fed []Record
			errSerial := m.ReplayMerged(collect(&serial))
			errFed := m.ReplayMergedFeeds(preDecodeAll(m), collect(&fed))
			if !errors.Is(errSerial, errFed) && !errors.Is(errFed, errSerial) {
				t.Fatalf("replay errors diverge: serial %v, feeds %v", errSerial, errFed)
			}
			if len(serial) != len(fed) {
				t.Fatalf("feeds merged %d records, serial %d", len(fed), len(serial))
			}
			for i := range serial {
				if serial[i].Type != fed[i].Type || serial[i].LSN != fed[i].LSN ||
					!bytes.Equal(serial[i].Payload, fed[i].Payload) {
					t.Fatalf("record %d diverges between serial and feed merge", i)
				}
			}
			if errSerial != nil {
				return // corrupt media: no repair to compare
			}

			// Recovery through feeds on m, through serial decode on the twin:
			// repaired media and accounting must be byte-identical.
			if err := m.RecoverMergedFeeds(preDecodeAll(m), func(Record) error { return nil }); err != nil {
				t.Fatalf("feed recovery: %v", err)
			}
			if err := twin.RecoverMerged(func(Record) error { return nil }); err != nil {
				t.Fatalf("serial recovery: %v", err)
			}
			for lane := 0; lane < 3; lane++ {
				got := readerBytes(t, m.LaneBuffer(lane))
				want := readerBytes(t, twin.LaneBuffer(lane))
				if !bytes.Equal(got, want) {
					t.Fatalf("lane %d repaired media diverge: %d vs %d bytes", lane, len(got), len(want))
				}
				if m.LaneSize(lane) != twin.LaneSize(lane) {
					t.Fatalf("lane %d size accounting diverges: %d vs %d", lane, m.LaneSize(lane), twin.LaneSize(lane))
				}
			}
			if m.NextKey() != twin.NextKey() {
				t.Fatalf("re-based keys diverge: %d vs %d", m.NextKey(), twin.NextKey())
			}
		})
	}
}
