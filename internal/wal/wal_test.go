package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// oneLane returns a fresh one-lane MultiLog's lane, whose Buffer takes slabs
// of ss bytes (0 for the default), and that Buffer. A one-lane log writes
// exactly appendRecord's stream, keys from 1.
func oneLane(ss int) (*Buffer, *Log) {
	m := NewMultiLog(1)
	m.lanes[0].buf.SlabSize = ss
	return m.lanes[0].buf, &m.lanes[0]
}

// replayAll collects every record m's merged replay yields.
func replayAll(m *MultiLog) ([]Record, error) {
	var recs []Record
	err := m.ReplayMerged(func(rec Record) error {
		recs = append(recs, rec) // records stay valid (Decoder)
		return nil
	})
	return recs, err
}

// decodeAll decodes b from its start to a clean stop or an error.
func decodeAll(b *Buffer) ([]Record, error) {
	var recs []Record
	dec := NewDecoder(b)
	for {
		rec, _, done, err := dec.Next()
		if done || err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	m := NewMultiLog(1)
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-longer-payload")}
	types := []RecordType{RecMeta, RecWrite, RecCommit}
	for i := range payloads {
		lsn, n, err := m.AppendV(0, types[i], payloads[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		if n <= len(payloads[i]) {
			t.Fatalf("encoded size %d not larger than payload %d", n, len(payloads[i]))
		}
	}
	recs, err := replayAll(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Type != types[i] || r.LSN != uint64(i+1) || !bytes.Equal(r.Bytes(), payloads[i]) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

func TestReplayEmptyLog(t *testing.T) {
	recs, err := replayAll(NewMultiLog(1))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty log: recs=%v err=%v", recs, err)
	}
}

// TestNextLSNAndSize: a record takes the key NextKey reported, and the
// log's size is exactly what its Buffer holds.
func TestNextLSNAndSize(t *testing.T) {
	m := NewMultiLog(1)
	if m.NextKey() != 1 {
		t.Fatalf("NextKey = %d", m.NextKey())
	}
	key, n, _ := m.AppendV(0, RecDelete, []byte("x"), nil)
	if key != 1 || m.NextKey() != 2 {
		t.Fatalf("key %d, NextKey after append = %d", key, m.NextKey())
	}
	if m.Size() != int64(n) || m.LaneBuffer(0).Len() != n {
		t.Fatalf("Size=%d buffer=%d encoded=%d", m.Size(), m.LaneBuffer(0).Len(), n)
	}
}

func TestReplayStopsAtCorruption(t *testing.T) {
	m := NewMultiLog(1)
	b := m.LaneBuffer(0)
	_, n1, _ := m.AppendV(0, RecMeta, []byte("one"), nil)
	m.AppendV(0, RecWrite, []byte("two"), nil)
	m.AppendV(0, RecCommit, []byte("three"), nil)
	// Corrupt a byte inside the second record's payload region: record 2
	// starts at n1; skip its 8-byte header plus the type/LSN prefix.
	if err := b.Corrupt(n1 + 8 + 9); err != nil {
		t.Fatal(err)
	}
	var seen int
	err := m.ReplayMerged(func(Record) error { seen++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if seen != 1 {
		t.Fatalf("replayed %d records before corruption, want 1", seen)
	}
}

func TestReplayTornTailIsClean(t *testing.T) {
	m := NewMultiLog(1)
	m.AppendV(0, RecMeta, []byte("first"), nil)
	m.AppendV(0, RecWrite, []byte("second-record-payload"), nil)
	full := m.LaneBuffer(0).Len()
	for _, cut := range []int{full - 1, full - 5, full - 20} {
		c := NewMultiLog(1)
		c.LaneBuffer(0).Write(readerBytes(t, m.LaneBuffer(0)))
		c.LaneBuffer(0).Truncate(cut)
		recs, err := replayAll(c)
		if err != nil {
			t.Fatalf("cut=%d: torn tail returned error %v", cut, err)
		}
		if len(recs) != 1 {
			t.Fatalf("cut=%d: replayed %d records, want 1", cut, len(recs))
		}
	}
}

func readerBytes(t *testing.T, b *Buffer) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := out.ReadFrom(b.Reader()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestReplayHandlerErrorPropagates(t *testing.T) {
	m := NewMultiLog(1)
	m.AppendV(0, RecMeta, nil, nil)
	want := errors.New("handler boom")
	err := m.ReplayMerged(func(Record) error { return want })
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want handler error", err)
	}
}

func TestBufferCorruptBounds(t *testing.T) {
	var b Buffer
	if err := b.Corrupt(0); err == nil {
		t.Fatal("Corrupt on empty buffer did not error")
	}
	b.Write([]byte{1, 2, 3})
	if err := b.Corrupt(5); err == nil {
		t.Fatal("Corrupt out of range did not error")
	}
	if err := b.Corrupt(1); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTypeString(t *testing.T) {
	cases := map[RecordType]string{
		RecDelete: "delete", RecWrite: "write", RecCommit: "commit", RecMeta: "meta",
		RecChunkTruncate: "chunk-truncate", RecMigrateEnd: "migrate-end",
		RecordType(99): "RecordType(99)",
	}
	for tt, want := range cases {
		if got := tt.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", tt, got, want)
		}
	}
}

func TestConcurrentAppendsUniqueLSNs(t *testing.T) {
	m := NewMultiLog(1)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				lsn, _, err := m.AppendV(0, RecWrite, []byte(fmt.Sprintf("%d-%d", i, j)), nil)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[lsn] {
					t.Errorf("duplicate LSN %d", lsn)
				}
				seen[lsn] = true
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	recs, err := replayAll(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 800 {
		t.Fatalf("replayed %d records, want 800", len(recs))
	}
}

// vOp is one randomized record shape for the vectored-equivalence
// properties: a type, a header segment, and a payload segment.
type vOp struct {
	T       uint8
	Header  []byte
	Payload []byte
}

// legacyStream encodes ops with the reference single-buffer encoder
// appendRecord (payload = header||payload), with LSNs from 1 — the
// on-medium stream every append form is pinned against.
func legacyStream(ops []vOp) []byte {
	var dst []byte
	for i, op := range ops {
		joined := append(append([]byte(nil), op.Header...), op.Payload...)
		dst = appendRecord(dst, RecordType(op.T), uint64(i+1), joined)
	}
	return dst
}

// checkAccounting verifies one append's LSN/size bookkeeping against the
// reference encoder's encoded length.
func checkAccounting(t *testing.T, lsn uint64, wantLSN uint64, n, wantN int) {
	t.Helper()
	if lsn != wantLSN {
		t.Fatalf("lsn = %d, want %d", lsn, wantLSN)
	}
	if n != wantN {
		t.Fatalf("encoded size = %d, want %d", n, wantN)
	}
}

// TestAppendVMatchesAppendRecord pins the vectored encode paths of a
// one-lane log — AppendV, AppendVSum, and AppendNV with and without caller
// sums — byte-for-byte against the reference appendRecord encoding across
// randomized type/header/payload shapes, including key/Size accounting.
func TestAppendVMatchesAppendRecord(t *testing.T) {
	f := func(ops []vOp) bool {
		want := legacyStream(ops)

		// AppendV, and AppendVSum with the payload summed by the caller;
		// AppendNV, one atomic batch, without and with caller sums.
		vm, sm, nm, nsm := NewMultiLog(1), NewMultiLog(1), NewMultiLog(1), NewMultiLog(1)
		specs := make([]AppendVSpec, 0, len(ops))
		summed := make([]AppendVSpec, 0, len(ops))

		for i, op := range ops {
			recLen := recPrefixLen + len(op.Header) + len(op.Payload)
			lsn, n, err := vm.AppendV(0, RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			checkAccounting(t, lsn, uint64(i+1), n, recLen)
			lsn, n, _ = sm.AppendVSum(0, RecordType(op.T), op.Header, op.Payload, Checksum(op.Payload))
			checkAccounting(t, lsn, uint64(i+1), n, recLen)
			specs = append(specs, AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload})
			summed = append(summed, AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload, Sum: Checksum(op.Payload)})
		}
		if len(specs) > 0 {
			for _, batch := range []struct {
				m     *MultiLog
				specs []AppendVSpec
			}{{nm, specs}, {nsm, summed}} {
				first, n := batch.m.AppendNV(0, batch.specs)
				if first != 1 || n != len(want) {
					return false
				}
			}
		}
		for name, m := range map[string]*MultiLog{"AppendV": vm, "AppendVSum": sm, "AppendNV": nm, "AppendNV with sums": nsm} {
			if got := readerBytes(t, m.LaneBuffer(0)); !bytes.Equal(got, want) {
				t.Logf("%s stream diverges from appendRecord (%d vs %d bytes)", name, len(got), len(want))
				return false
			}
			// Size/NextKey accounting must agree with the reference stream.
			if m.Size() != int64(len(want)) || m.NextKey() != uint64(len(ops)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendVEquivalentToAppend pins that splitting a record's payload at
// any point is invisible on the medium: AppendV(t, header||payload, nil) and
// AppendV(t, header, payload) produce identical streams, and replay cannot
// tell which form wrote a record.
func TestAppendVEquivalentToAppend(t *testing.T) {
	f := func(joined []byte, cut uint8) bool {
		k := int(cut) % (len(joined) + 1)
		am, vm := NewMultiLog(1), NewMultiLog(1)
		if _, _, err := am.AppendV(0, RecWrite, joined, nil); err != nil {
			return false
		}
		if _, _, err := vm.AppendV(0, RecWrite, joined[:k], joined[k:]); err != nil {
			return false
		}
		return bytes.Equal(readerBytes(t, am.LaneBuffer(0)), readerBytes(t, vm.LaneBuffer(0)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendNVMatchesSequentialAppendV: one atomic batch equals the record
// sequence appended one at a time, including the total-size return, and
// carrying each payload's sum changes neither side's bytes.
func TestAppendNVMatchesSequentialAppendV(t *testing.T) {
	f := func(ops []vOp) bool {
		if len(ops) == 0 {
			return true
		}
		sm, ssm, nm, nsm := NewMultiLog(1), NewMultiLog(1), NewMultiLog(1), NewMultiLog(1)
		total := 0
		specs := make([]AppendVSpec, len(ops))
		summed := make([]AppendVSpec, len(ops))
		for i, op := range ops {
			_, n, err := sm.AppendV(0, RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			sum := Checksum(op.Payload)
			if _, sn, _ := ssm.AppendVSum(0, RecordType(op.T), op.Header, op.Payload, sum); sn != n {
				return false
			}
			total += n
			specs[i] = AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload}
			summed[i] = AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload, Sum: sum}
		}
		for _, batch := range []struct {
			m     *MultiLog
			specs []AppendVSpec
		}{{nm, specs}, {nsm, summed}} {
			first, n := batch.m.AppendNV(0, batch.specs)
			if first != 1 || n != total {
				return false
			}
		}
		want := readerBytes(t, sm.LaneBuffer(0))
		for _, m := range []*MultiLog{ssm, nm, nsm} {
			if !bytes.Equal(readerBytes(t, m.LaneBuffer(0)), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// One more input, with every request's key and size spelled out: a
	// split record, an empty one, and a two-record batch holding keys 3-4.
	ops := []vOp{
		{T: uint8(RecWrite), Header: []byte("hh"), Payload: []byte("payload-one")},
		{T: uint8(RecCommit)},
		{T: uint8(RecMeta), Header: []byte("k1")},
		{T: uint8(RecDelete), Payload: []byte("k2")},
	}
	if !f(ops) {
		t.Fatal("fixed input: batch diverges from sequential appends")
	}
	m := NewMultiLog(1)
	k1, n1, err1 := m.AppendV(0, RecWrite, ops[0].Header, ops[0].Payload)
	k2, n2, err2 := m.AppendV(0, RecCommit, nil, nil)
	k3, n3 := m.AppendNV(0, []AppendVSpec{
		{Type: RecMeta, Header: ops[2].Header},
		{Type: RecDelete, Payload: ops[3].Payload},
	})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	checkAccounting(t, k1, 1, n1, recPrefixLen+2+11)
	checkAccounting(t, k2, 2, n2, recPrefixLen)
	checkAccounting(t, k3, 3, n3, 2*recPrefixLen+2+2)
	if !bytes.Equal(readerBytes(t, m.LaneBuffer(0)), legacyStream(ops)) {
		t.Fatal("fixed input: mixed AppendV/AppendNV stream diverges from the reference encoding")
	}
}

// TestBufferSlabbed exercises the segmented backing across slab boundaries:
// content written through Write spanning many small slabs must read
// back exactly, Truncate and Corrupt must address the right slab, and Reset
// must recycle slabs without mixing stale bytes into new content.
func TestBufferSlabbed(t *testing.T) {
	b := &Buffer{SlabSize: 7}
	var want []byte
	for i := 0; i < 100; i++ {
		seg := bytes.Repeat([]byte{byte(i)}, i%13)
		for range 1 + i%2 {
			b.Write(seg)
			want = append(want, seg...)
		}
	}
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	if got := readerBytes(t, b); !bytes.Equal(got, want) {
		t.Fatal("slabbed content diverges from contiguous reference")
	}
	if min := (len(want) + 6) / 7; b.Slabs() != min {
		t.Fatalf("Slabs = %d, want %d", b.Slabs(), min)
	}
	// Truncate mid-slab, then overwrite the tail: stale slab bytes beyond
	// the cut must not resurface.
	b.Truncate(100)
	b.Write(bytes.Repeat([]byte{0xEE}, 50))
	want = append(want[:100], bytes.Repeat([]byte{0xEE}, 50)...)
	if got := readerBytes(t, b); !bytes.Equal(got, want) {
		t.Fatal("content diverges after truncate+rewrite")
	}
	// Corrupt addresses the logical offset across slabs.
	if err := b.Corrupt(101); err != nil {
		t.Fatal(err)
	}
	want[101] ^= 0xff
	if got := readerBytes(t, b); !bytes.Equal(got, want) {
		t.Fatal("Corrupt flipped the wrong byte")
	}
	// Reset recycles: refilling must not see stale content.
	b.Reset()
	if b.Len() != 0 || b.Slabs() != 0 {
		t.Fatalf("after Reset: Len=%d Slabs=%d", b.Len(), b.Slabs())
	}
	b.Write([]byte("fresh"))
	if got := readerBytes(t, b); !bytes.Equal(got, []byte("fresh")) {
		t.Fatalf("after Reset+Write: %q", got)
	}
}

// TestBufferReaderInPlace pins the in-place lane reader: over records that
// straddle 64-byte slabs, reads of any size return exactly the encoded
// stream; a reader taken before further appends stops at the length it saw;
// and reading a 1 MiB buffer through it costs no copy of the buffer.
func TestBufferReaderInPlace(t *testing.T) {
	m := NewMultiLog(1)
	b := m.LaneBuffer(0)
	b.SlabSize = 64
	var want []byte
	for i := 0; i < 40; i++ {
		p := bytes.Repeat([]byte{byte(i)}, (i*37)%150)
		if _, _, err := m.AppendV(0, RecWrite, p, nil); err != nil {
			t.Fatal(err)
		}
		want = appendRecord(want, RecWrite, uint64(i+1), p)
	}
	if b.Slabs() < 10 {
		t.Fatalf("only %d slabs; the stream must straddle many", b.Slabs())
	}
	readAll := func(r io.Reader, step int) []byte {
		var got []byte
		p := make([]byte, step)
		for {
			n, err := r.Read(p)
			got = append(got, p[:n]...)
			if err == io.EOF {
				return got
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, step := range []int{1, 7, 64, 1000} {
		if got := readAll(b.Reader(), step); !bytes.Equal(got, want) {
			t.Fatalf("reads of %d bytes: got %d bytes, diverging from the %d-byte stream", step, len(got), len(want))
		}
	}

	r := b.Reader()
	if _, _, err := m.AppendV(0, RecMeta, []byte("after the reader"), nil); err != nil {
		t.Fatal(err)
	}
	if got := readAll(r, 7); !bytes.Equal(got, want) {
		t.Fatalf("a reader taken before an append read %d bytes, want the %d it saw", len(got), len(want))
	}

	big := &Buffer{}
	big.Write(make([]byte, 1<<20))
	p := make([]byte, 64<<10)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		r := big.Reader()
		for {
			if _, err := r.Read(p); err == io.EOF {
				break
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("reading a 1 MiB buffer allocated %d B, want under 4 KiB", per)
	}
}

// Property: any sequence of appended payloads replays byte-identically and
// in order.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		m := NewMultiLog(1)
		for _, p := range payloads {
			if _, _, err := m.AppendV(0, RecWrite, p, nil); err != nil {
				return false
			}
		}
		recs, err := replayAll(m)
		if err != nil || len(recs) != len(payloads) {
			return false
		}
		for i, r := range recs {
			if !bytes.Equal(r.Bytes(), payloads[i]) || r.LSN != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
