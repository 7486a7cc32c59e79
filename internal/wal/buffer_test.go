package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// slabSizes are the Buffer geometries the buffer tests run under: 64-byte
// slabs, so every record straddles or fills several, and the default.
var slabSizes = []int{64, 0}

// viewPayload is the i-th test payload: sizes from empty through sub-slab,
// half-slab and a whole default slab, so both storage classes appear under
// either geometry.
func viewPayload(i int) []byte {
	sizes := []int{0, 1, 17, 31, 32, 63, 64, 100, 1000, 4096, 40000, 64 << 10}
	p := make([]byte, sizes[i%len(sizes)])
	for j := range p {
		p[j] = byte(i*31 + j*7 + 1)
	}
	return p
}

// checkViews fails unless every view still holds its payload.
func checkViews(t *testing.T, when string, views, want [][]byte) {
	t.Helper()
	for i := range views {
		if !bytes.Equal(views[i], want[i]) {
			t.Fatalf("%s: view %d (%d bytes) no longer holds its payload", when, i, len(want[i]))
		}
	}
}

// TestBufferStoresAlignedViews: the payload an append returns equals its
// input and starts on a 64-byte boundary, through AppendVSum and AppendNV
// alike, and the stream is still exactly appendRecord's encoding.
func TestBufferStoresAlignedViews(t *testing.T) {
	for _, ss := range slabSizes {
		t.Run(fmt.Sprintf("slab%d", ss), func(t *testing.T) {
			b, l := oneLane(ss)
			var want []byte
			check := func(i int, p, stored []byte) {
				if !bytes.Equal(stored, p) {
					t.Fatalf("record %d: stored view differs from its %d-byte payload", i, len(p))
				}
				if len(p) > 0 && addr(stored)%payloadAlign != 0 {
					t.Fatalf("record %d: %d-byte payload stored at offset %d from a 64-byte boundary", i, len(p), addr(stored)%payloadAlign)
				}
			}
			hdr := []byte("hdr")
			for i := 0; i < 36; i++ {
				p := viewPayload(i)
				lsn, _, stored := l.AppendVSum(RecWrite, hdr, p, Checksum(p))
				check(i, p, stored)
				want = appendRecord(want, RecWrite, lsn, append(append([]byte(nil), hdr...), p...))
			}
			specs := make([]AppendVSpec, 12)
			for i := range specs {
				specs[i] = AppendVSpec{Type: RecPrepWrite, Header: hdr, Payload: viewPayload(i + 5)}
			}
			first, _ := l.AppendNV(specs)
			for i, sp := range specs {
				check(100+i, sp.Payload, sp.Stored)
				want = appendRecord(want, RecPrepWrite, first+uint64(i), append(append([]byte(nil), hdr...), sp.Payload...))
			}
			if b.Len() != len(want) {
				t.Fatalf("Len = %d, want %d: alignment pads leaked into the stream", b.Len(), len(want))
			}
			if !bytes.Equal(readerBytes(t, b), want) {
				t.Fatal("stream diverges from appendRecord's encoding")
			}
		})
	}
}

// TestBufferViewsOutliveDamageAndRetire: stored bytes are never rewritten,
// so views stay intact across later appends, Truncate plus appends, Corrupt,
// and a Reset followed by appends; only the stream sees the damage.
func TestBufferViewsOutliveDamageAndRetire(t *testing.T) {
	for _, ss := range slabSizes {
		t.Run(fmt.Sprintf("slab%d", ss), func(t *testing.T) {
			b, l := oneLane(ss)
			var views, want [][]byte
			appendSome := func(from, n int) {
				for i := from; i < from+n; i++ {
					p := viewPayload(i)
					_, _, stored := l.AppendVSum(RecWrite, nil, p, Checksum(p))
					views, want = append(views, stored), append(want, p)
				}
			}
			appendSome(0, 24)
			appendSome(24, 24)
			checkViews(t, "after later appends", views, want)

			// Tear inside the last record, then append over the cut.
			b.Truncate(b.Len() - 3)
			appendSome(48, 24)
			checkViews(t, "after Truncate and appends", views, want)

			// Flip every 97th byte of the stream.
			stream := readerBytes(t, b)
			for off := 0; off < len(stream); off += 97 {
				if err := b.Corrupt(off); err != nil {
					t.Fatal(err)
				}
				stream[off] ^= 0xff
			}
			if !bytes.Equal(readerBytes(t, b), stream) {
				t.Fatal("Corrupt did not flip the stream's bytes")
			}
			appendSome(72, 12)
			checkViews(t, "after Corrupt and appends", views, want)

			// Retire, then fill the buffer again.
			b.Reset()
			appendSome(84, 48)
			checkViews(t, "after Reset and appends", views, want)
		})
	}
}

// TestBufferRecycleReuses: Recycle hands the retired backing to the free
// list, and appends of the same sizes then store into it instead of
// allocating; before Recycle, they do not.
func TestBufferRecycleReuses(t *testing.T) {
	for _, ss := range slabSizes {
		t.Run(fmt.Sprintf("slab%d", ss), func(t *testing.T) {
			b, l := oneLane(ss)
			fill := func() (starts map[uintptr]bool) {
				starts = make(map[uintptr]bool)
				for i := 0; i < 24; i++ {
					p := viewPayload(i)
					_, _, stored := l.AppendVSum(RecWrite, nil, p, Checksum(p))
					if len(stored) > 0 {
						starts[addr(stored)] = true
					}
				}
				return starts
			}
			reused := func(old, now map[uintptr]bool) int {
				n := 0
				for a := range now {
					if old[a] {
						n++
					}
				}
				return n
			}
			first := fill()
			b.Reset()
			second := fill()
			if n := reused(first, second); n != 0 {
				t.Fatalf("%d payloads stored into retired backing before Recycle", n)
			}
			b.Reset()
			b.Recycle()
			if n := reused(second, fill()); n == 0 {
				t.Fatal("no payload stored into recycled backing")
			}
		})
	}
}

// TestMultiLogRecycleCycleAllocFree: a warm append → retire → recycle cycle
// over two lanes of one MultiLog allocates nothing — the lanes refill from
// the free list they share.
func TestMultiLogRecycleCycleAllocFree(t *testing.T) {
	m := NewMultiLog(2)
	hdr := []byte("chunk-header")
	payloads := make([][]byte, 24)
	for i := range payloads {
		payloads[i] = viewPayload(i)
	}
	cycle := func() {
		for i, p := range payloads {
			m.AppendVSum(i%2, RecWrite, hdr, p, Checksum(p))
		}
		m.ResetAll()
		m.Recycle(0)
		m.Recycle(1)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("warm append/retire/recycle cycle: %v allocs, want 0", a)
	}
}

// TestBufferRelinksRetiredPayload: storing a payload that is exactly a
// buffer of its own the last Reset retired relinks that buffer — no new
// backing, the same address — and Recycle keeps it off the free list, while
// Corrupt and Truncate on it still leave its bytes alone. Every other view
// of that size is copied: a sub-slice of such a buffer, one retired two
// Resets ago, a live one (relinked, in recycled backing, or fresh), one from
// another lane, and a lone payload in a sparse slab. Lane jobs then run as a
// checkpoint runs them: each lane relinks its views and recycles while its
// siblings recycle into the free list they share, and no relinked view loses
// a byte. Last, the slab arms (1 KiB slabs, seven 100-byte payloads to a
// slab): a batch that re-stores six of them keeps the slab — every view
// relinked at its address, no slab taken for them, Recycle does not free it,
// and Corrupt and Truncate leave the views' bytes alone — while a batch that
// re-stores five copies them and the slab is recycled.
func TestBufferRelinksRetiredPayload(t *testing.T) {
	for _, ss := range slabSizes {
		t.Run(fmt.Sprintf("slab%d", ss), func(t *testing.T) {
			// Neither size is a slab's, so no retired slab shares a free-list
			// size class with the relinked buffer.
			whole, small := 40000, 1000
			if ss == 64 {
				whole, small = 48, 17
			}
			fill := func(n, tag int) []byte {
				p := make([]byte, n)
				for j := range p {
					p[j] = byte(tag*31 + j*7 + 1)
				}
				return p
			}
			newLog := func() (*Buffer, *Log) { return oneLane(ss) }
			store := func(l *Log, p []byte) []byte {
				t.Helper()
				want := bytes.Clone(p)
				_, _, stored := l.AppendVSum(RecWrite, nil, p, Checksum(p))
				if !bytes.Equal(stored, want) {
					t.Fatalf("stored view differs from its %d-byte payload", len(p))
				}
				return stored
			}
			copied := func(arm string, l *Log, view []byte) {
				t.Helper()
				if got := store(l, view); addr(got) == addr(view) {
					t.Fatalf("%s was relinked, not copied", arm)
				}
			}

			b, l := newLog()
			want := fill(whole, 1)
			view := store(l, want)
			store(l, fill(whole, 9)) // its buffer is recycled, then taken again
			b.Reset()
			if got := store(l, view); addr(got) != addr(view) {
				t.Fatal("a retired whole buffer was copied, not relinked")
			}
			if b.Slabs() != 1 {
				t.Fatalf("relinking took %d backing buffers, want only the framing slab", b.Slabs())
			}
			if !b.Holds(view) {
				t.Fatal("the relinked view is not in the stream")
			}
			copied("a relinked view", l, view)
			// Flip the relinked payload's first byte, tear inside it, and
			// append past the seal.
			if err := b.Corrupt(recPrefixLen); err != nil {
				t.Fatal(err)
			}
			b.Truncate(recPrefixLen + whole/2)
			store(l, fill(small, 2))
			if !bytes.Equal(view, want) {
				t.Fatal("Corrupt or Truncate rewrote the relinked bytes")
			}
			b.Recycle()
			got := store(l, fill(whole, 3))
			if addr(got) == addr(view) {
				t.Fatal("Recycle handed the relinked buffer to the free list")
			}
			copied("a live view in recycled backing", l, got)
			if !bytes.Equal(view, want) {
				t.Fatal("a write after Recycle rewrote the relinked bytes")
			}

			b, l = newLog()
			view = store(l, fill(whole, 4))
			b.Reset()
			copied("a sub-slice of a retired buffer", l, view[:len(view)-8])

			b, l = newLog()
			view = store(l, fill(whole, 5))
			b.Reset()
			b.Reset()
			copied("a view retired two Resets ago", l, view)

			_, l = newLog()
			copied("a live view", l, store(l, fill(whole, 6)))

			b, l = newLog()
			view = store(l, fill(small, 7))
			b.Reset()
			copied("a lone payload in a sparse slab", l, view)

			m := NewMultiLog(2)
			for lane := range 2 {
				m.LaneBuffer(lane).SlabSize = ss
			}
			p := fill(whole, 8)
			_, _, view = m.AppendVSum(0, RecWrite, nil, p, Checksum(p))
			m.ResetAll()
			copied("a view from another lane", &m.lanes[1], view)

			const lanes, per = 4, 8
			m = NewMultiLog(lanes)
			for lane := range lanes {
				m.LaneBuffer(lane).SlabSize = ss
			}
			views, wants := make([][]byte, lanes*per), make([][]byte, lanes*per)
			for i := range views {
				wants[i] = fill(whole, 10+i)
				_, _, views[i] = m.AppendVSum(i%lanes, RecWrite, nil, wants[i], Checksum(wants[i]))
			}
			m.ResetAll()
			var wg sync.WaitGroup
			for lane := range lanes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := lane; i < len(views); i += lanes {
						if _, _, got := m.AppendVSum(lane, RecWrite, nil, views[i], Checksum(views[i])); addr(got) != addr(views[i]) {
							t.Errorf("lane %d copied view %d instead of relinking it", lane, i)
						}
					}
					m.Recycle(lane)
					for i := range per {
						p := fill(whole, 100+i)
						m.AppendVSum(lane, RecWrite, nil, p, Checksum(p))
					}
				}()
			}
			wg.Wait()
			checkViews(t, "after concurrent relinks and recycles", views, wants)
		})
	}
	t.Run("slabs", testSlabRelink)
}

// testSlabRelink is TestBufferRelinksRetiredPayload's slab arms.
func testSlabRelink(t *testing.T) {
	const ss, per, size = 1 << 10, 7, 100
	// fillSlab stores per payloads of size bytes, which fill one slab, and
	// returns their views.
	fillSlab := func(l *Log, tag int) (views, want [][]byte) {
		for i := range per {
			p := make([]byte, size)
			for j := range p {
				p[j] = byte(tag*31 + i*13 + j*7 + 1)
			}
			_, _, stored := l.AppendVSum(RecWrite, nil, p, Checksum(p))
			views, want = append(views, stored), append(want, p)
		}
		return views, want
	}
	// restore re-stores views in one batch and returns what the medium kept.
	restore := func(l *Log, views [][]byte) [][]byte {
		specs := make([]AppendVSpec, len(views))
		for i, v := range views {
			specs[i] = AppendVSpec{Type: RecWrite, Payload: v, Sum: Checksum(v)}
		}
		l.AppendNV(specs)
		stored := make([][]byte, len(specs))
		for i := range specs {
			stored[i] = specs[i].Stored
		}
		return stored
	}
	inside := func(p, slab []byte) bool {
		return addr(p) >= addr(slab) && addr(p)+uintptr(len(p)) <= addr(slab)+uintptr(len(slab))
	}

	b, l := oneLane(ss)
	views, want := fillSlab(l, 1)
	if b.Slabs() != 1 {
		t.Fatalf("%d payloads of %d bytes took %d slabs, want 1", per, size, b.Slabs())
	}
	slab := b.backing[0]
	b.Reset()
	dense := views[:per-1] // 600 of 1024 bytes
	for i, got := range restore(l, dense) {
		if addr(got) != addr(dense[i]) || len(got) != len(dense[i]) || cap(got) != len(got) {
			t.Fatalf("payload %d of a dense slab was copied, not relinked", i)
		}
		if !b.Holds(got) {
			t.Fatalf("relinked payload %d is not in the stream", i)
		}
	}
	if b.Slabs() != 1 {
		t.Fatalf("relinking took %d slabs, want only the framing slab", b.Slabs())
	}
	checkViews(t, "after relinking", dense, want)
	// Flip the first relinked payload's first byte, tear inside the second,
	// and append past the seal.
	if err := b.Corrupt(recPrefixLen); err != nil {
		t.Fatal(err)
	}
	b.Truncate(2*recPrefixLen + size + size/2)
	fillSlab(l, 2)
	checkViews(t, "after Corrupt and Truncate on relinked payloads", dense, want)
	b.Recycle()
	more, _ := fillSlab(l, 3)
	for _, v := range more {
		if inside(v, slab) {
			t.Fatal("Recycle handed the relinked slab to the free list")
		}
	}
	checkViews(t, "after Recycle and appends", dense, want)

	b, l = oneLane(ss)
	views, want = fillSlab(l, 4)
	slab = b.backing[0]
	b.Reset()
	sparse := views[:per-2] // 500 of 1024 bytes
	for i, got := range restore(l, sparse) {
		if addr(got) == addr(sparse[i]) || inside(got, slab) {
			t.Fatalf("payload %d of a sparse slab was relinked, not copied", i)
		}
	}
	checkViews(t, "after compacting", sparse, want)
	b.Recycle()
	reused := false
	for _, v := range func() [][]byte { v, _ := fillSlab(l, 5); return v }() {
		reused = reused || inside(v, slab)
	}
	if !reused {
		t.Fatal("the sparse slab was not recycled")
	}
}

// TestDecoderYieldsStoredViews: a decoder reading a Buffer yields each
// vectored record's payload segment as Data, the very view the append
// returned, with its CRC32C, and copies only the header in front of it into
// Payload; a record with no payload segment comes back whole through Bytes.
func TestDecoderYieldsStoredViews(t *testing.T) {
	for _, ss := range slabSizes {
		t.Run(fmt.Sprintf("slab%d", ss), func(t *testing.T) {
			b, l := oneLane(ss)
			type rec struct{ hdr, p, stored []byte }
			var recs []rec
			for i := 0; i < 36; i++ {
				hdr, p := []byte(fmt.Sprintf("header-%d", i)), viewPayload(i)
				var stored []byte
				switch i % 3 {
				case 0:
					_, _, stored = l.AppendVSum(RecWrite, hdr, p, Checksum(p))
				case 1:
					specs := []AppendVSpec{{Type: RecWrite, Header: hdr, Payload: p}}
					l.AppendNV(specs)
					stored = specs[0].Stored
				default:
					hdr = append(hdr, p...) // one segment: no payload view
					l.AppendVSum(RecWrite, hdr, nil, 0)
					p = nil
				}
				recs = append(recs, rec{hdr, p, stored})
			}
			dec := NewDecoder(b)
			for i, want := range recs {
				got, _, done, err := dec.Next()
				if done || err != nil {
					t.Fatalf("record %d: done %v, err %v", i, done, err)
				}
				whole := append(append([]byte(nil), want.hdr...), want.p...)
				if !bytes.Equal(got.Bytes(), whole) {
					t.Fatalf("record %d: payload diverges", i)
				}
				if len(want.p) == 0 {
					continue
				}
				if !bytes.Equal(got.Payload, want.hdr) || addr(got.Data) != addr(want.stored) || len(got.Data) != len(want.stored) {
					t.Fatalf("record %d: Data is not the %d-byte payload the append stored", i, len(want.p))
				}
				if got.DataSum != Checksum(want.p) {
					t.Fatalf("record %d: DataSum %08x, want %08x", i, got.DataSum, Checksum(want.p))
				}
			}
			if _, _, done, err := dec.Next(); !done || err != nil {
				t.Fatalf("after the last record: done %v, err %v", done, err)
			}
		})
	}
}
