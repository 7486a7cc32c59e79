package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestAppendReplayRoundTrip(t *testing.T) {
	var b Buffer
	l := New(&b)
	payloads := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-longer-payload")}
	types := []RecordType{RecCreate, RecWrite, RecCommit}
	for i := range payloads {
		lsn, n, err := l.Append(types[i], payloads[i])
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
	recs, err := ReplayAll(b.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Type != types[i] || r.LSN != uint64(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

func TestReplayEmptyLog(t *testing.T) {
	var b Buffer
	recs, err := ReplayAll(b.Reader())
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty log: recs=%v err=%v", recs, err)
	}
}

func TestNextLSNAndSize(t *testing.T) {
	var b Buffer
	l := New(&b)
	if l.NextLSN() != 1 {
		t.Fatalf("NextLSN = %d", l.NextLSN())
	}
	_, n, _ := l.Append(RecDelete, []byte("x"))
	if l.NextLSN() != 2 {
		t.Fatalf("NextLSN after append = %d", l.NextLSN())
	}
	if l.Size() != int64(n) || b.Len() != n {
		t.Fatalf("Size=%d buffer=%d encoded=%d", l.Size(), b.Len(), n)
	}
}

func TestReplayStopsAtCorruption(t *testing.T) {
	var b Buffer
	l := New(&b)
	_, n1, _ := l.Append(RecCreate, []byte("one"))
	l.Append(RecWrite, []byte("two"))
	l.Append(RecCommit, []byte("three"))
	// Corrupt a byte inside the second record's payload region: record 2
	// starts at n1; skip its 8-byte header plus the type/LSN prefix.
	if err := b.Corrupt(n1 + 8 + 9); err != nil {
		t.Fatal(err)
	}
	var seen int
	err := Replay(b.Reader(), func(Record) error { seen++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if seen != 1 {
		t.Fatalf("replayed %d records before corruption, want 1", seen)
	}
}

func TestReplayTornTailIsClean(t *testing.T) {
	var b Buffer
	l := New(&b)
	l.Append(RecCreate, []byte("first"))
	l.Append(RecWrite, []byte("second-record-payload"))
	full := b.Len()
	for _, cut := range []int{full - 1, full - 5, full - 20} {
		var c Buffer
		c.Write(readerBytes(t, &b))
		c.Truncate(cut)
		recs, err := ReplayAll(c.Reader())
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
	var b Buffer
	l := New(&b)
	l.Append(RecCreate, nil)
	want := errors.New("handler boom")
	err := Replay(b.Reader(), func(Record) error { return want })
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
		RecCreate: "create", RecDelete: "delete", RecWrite: "write",
		RecTruncate: "truncate", RecCommit: "commit", RecMeta: "meta",
		RecordType(99): "RecordType(99)",
	}
	for tt, want := range cases {
		if got := tt.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", tt, got, want)
		}
	}
}

func TestConcurrentAppendsUniqueLSNs(t *testing.T) {
	var b Buffer
	l := New(&b)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				lsn, _, err := l.Append(RecWrite, []byte(fmt.Sprintf("%d-%d", i, j)))
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
	recs, err := ReplayAll(b.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 800 {
		t.Fatalf("replayed %d records, want 800", len(recs))
	}
}

// plainWriter hides a Buffer's WriteV so a Log falls back to the staging
// encode path, which must produce the identical byte stream.
type plainWriter struct{ b *Buffer }

func (w plainWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

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
func checkAccounting(t *testing.T, l *Log, lsn uint64, wantLSN uint64, n, wantN int) {
	t.Helper()
	if lsn != wantLSN {
		t.Fatalf("lsn = %d, want %d", lsn, wantLSN)
	}
	if n != wantN {
		t.Fatalf("encoded size = %d, want %d", n, wantN)
	}
}

// TestAppendVMatchesAppendRecord pins the vectored encode paths —
// AppendV and AppendNV, on both a RecordWriter target and a plain
// io.Writer fallback — byte-for-byte against the legacy appendRecord
// encoding across randomized type/header/payload shapes, including
// LSN/Size accounting equality.
func TestAppendVMatchesAppendRecord(t *testing.T) {
	f := func(ops []vOp) bool {
		want := legacyStream(ops)

		// AppendV, vectored target.
		var vb Buffer
		vl := New(&vb)
		// AppendV, fallback (staging) target.
		var fb Buffer
		fl := New(plainWriter{&fb})
		// AppendNV, vectored target, one atomic batch.
		var nb Buffer
		nl := New(&nb)
		specs := make([]AppendVSpec, 0, len(ops))

		off := 0
		for i, op := range ops {
			recLen := recPrefixLen + len(op.Header) + len(op.Payload)
			lsn, n, err := vl.AppendV(RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			checkAccounting(t, vl, lsn, uint64(i+1), n, recLen)
			lsn, n, err = fl.AppendV(RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			checkAccounting(t, fl, lsn, uint64(i+1), n, recLen)
			specs = append(specs, AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload})
			off += recLen
		}
		if len(specs) > 0 {
			first, n, err := nl.AppendNV(specs)
			if err != nil || first != 1 || n != len(want) {
				return false
			}
		}
		for name, b := range map[string]*Buffer{"AppendV": &vb, "AppendV-fallback": &fb, "AppendNV": &nb} {
			if got := readerBytes(t, b); !bytes.Equal(got, want) {
				t.Logf("%s stream diverges from appendRecord (%d vs %d bytes)", name, len(got), len(want))
				return false
			}
		}
		// Size/NextLSN accounting must agree with the reference stream.
		for _, l := range []*Log{vl, fl, nl} {
			if l.Size() != int64(len(want)) || l.NextLSN() != uint64(len(ops)+1) {
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
// any point is invisible on the medium: Append(t, header||payload) and
// AppendV(t, header, payload) produce identical streams, and replay cannot
// tell which form wrote a record.
func TestAppendVEquivalentToAppend(t *testing.T) {
	f := func(joined []byte, cut uint8) bool {
		k := int(cut) % (len(joined) + 1)
		var ab, vb Buffer
		al, vl := New(&ab), New(&vb)
		if _, _, err := al.Append(RecWrite, joined); err != nil {
			return false
		}
		if _, _, err := vl.AppendV(RecWrite, joined[:k], joined[k:]); err != nil {
			return false
		}
		return bytes.Equal(readerBytes(t, &ab), readerBytes(t, &vb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendNVMatchesSequentialAppendV: one atomic batch equals the record
// sequence appended one at a time, including the total-size return.
func TestAppendNVMatchesSequentialAppendV(t *testing.T) {
	f := func(ops []vOp) bool {
		if len(ops) == 0 {
			return true
		}
		var sb, nb Buffer
		sl, nl := New(&sb), New(&nb)
		total := 0
		specs := make([]AppendVSpec, len(ops))
		for i, op := range ops {
			_, n, err := sl.AppendV(RecordType(op.T), op.Header, op.Payload)
			if err != nil {
				return false
			}
			total += n
			specs[i] = AppendVSpec{Type: RecordType(op.T), Header: op.Header, Payload: op.Payload}
		}
		first, n, err := nl.AppendNV(specs)
		if err != nil || first != 1 || n != total {
			return false
		}
		return bytes.Equal(readerBytes(t, &sb), readerBytes(t, &nb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// One more input, with every request's key and size spelled out: a
	// split record, an empty one, and a two-record batch holding keys 3-4.
	ops := []vOp{
		{T: uint8(RecWrite), Header: []byte("hh"), Payload: []byte("payload-one")},
		{T: uint8(RecCommit)},
		{T: uint8(RecCreate), Header: []byte("k1")},
		{T: uint8(RecDelete), Payload: []byte("k2")},
	}
	if !f(ops) {
		t.Fatal("fixed input: batch diverges from sequential appends")
	}
	var b Buffer
	l := New(&b)
	k1, n1, err1 := l.AppendV(RecWrite, ops[0].Header, ops[0].Payload)
	k2, n2, err2 := l.AppendV(RecCommit, nil, nil)
	k3, n3, err3 := l.AppendNV([]AppendVSpec{
		{Type: RecCreate, Header: ops[2].Header},
		{Type: RecDelete, Payload: ops[3].Payload},
	})
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	checkAccounting(t, l, k1, 1, n1, recPrefixLen+2+11)
	checkAccounting(t, l, k2, 2, n2, recPrefixLen)
	checkAccounting(t, l, k3, 3, n3, 2*recPrefixLen+2+2)
	if !bytes.Equal(readerBytes(t, &b), legacyStream(ops)) {
		t.Fatal("fixed input: mixed AppendV/AppendNV stream diverges from the reference encoding")
	}
}

// TestBufferSlabbed exercises the segmented backing across slab boundaries:
// content written through Write/WriteV spanning many small slabs must read
// back exactly, Truncate and Corrupt must address the right slab, and Reset
// must recycle slabs without mixing stale bytes into new content.
func TestBufferSlabbed(t *testing.T) {
	b := &Buffer{SlabSize: 7}
	var want []byte
	for i := 0; i < 100; i++ {
		seg := bytes.Repeat([]byte{byte(i)}, i%13)
		if i%2 == 0 {
			b.Write(seg)
		} else {
			b.WriteV([][]byte{seg, seg})
			want = append(want, seg...)
		}
		want = append(want, seg...)
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

// Property: any sequence of appended payloads replays byte-identically and
// in order.
func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var b Buffer
		l := New(&b)
		for _, p := range payloads {
			if _, _, err := l.Append(RecWrite, p); err != nil {
				return false
			}
		}
		recs, err := ReplayAll(b.Reader())
		if err != nil || len(recs) != len(payloads) {
			return false
		}
		for i, r := range recs {
			if !bytes.Equal(r.Payload, payloads[i]) || r.LSN != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
