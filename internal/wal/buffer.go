package wal

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"unsafe"
)

// DefaultSlabSize is Buffer's backing-slab granularity when SlabSize is 0.
const DefaultSlabSize = 64 << 10

// payloadAlign is the boundary every stored payload starts on. A chunk
// copied out of a payload at an odd offset moves at a third of the speed of
// one copied from a cache-line boundary.
const payloadAlign = 64

// Buffer is the in-memory log medium, and the replay source. It keeps the
// stream as a list of segments over pooled backing:
//
//   - framing, record headers and payloads under half a slab pack into
//     SlabSize slabs, and a payload starts at the next 64-byte boundary of
//     its slab (the pad is not part of the stream, so Len and every log byte
//     are what one contiguous buffer would hold);
//   - a payload of at least half a slab gets an exact-size buffer of its own.
//
// A stored byte is never rewritten. Truncate seals the buffer, so the next
// write starts on fresh backing, and Corrupt flips a byte in a private copy
// of its segment. So the payload view an append returns (Log.AppendVSum,
// AppendVSpec.Stored) stays valid after any later append, Truncate or
// Corrupt. Reset retires the backing: views stay valid, and the backing is
// reused only once Recycle hands it to the free list, which the caller does
// when it no longer holds a view into it. The blob store keeps such views as
// its chunks' bytes.
//
// Until that Recycle, a payload that lies in a retired buffer is relinked,
// not copied, when keeping the buffer is worth it: the payload view becomes
// its own segment of the stream, the buffer rejoins the backing, and Recycle
// leaves it out. A payload of at least half a slab is relinked when it is
// exactly a buffer of its own (whole, one map probe). A smaller one is
// relinked when it lies in a packing slab and the payloads re-stored from
// that slab since the Reset — those of the batch storing it included — cover
// at least half of it (index, a binary search); a sparser slab's payloads
// are copied, compacted into fresh slabs, and the slab is recycled. This is
// the log-structured file system cleaner's rule: keep the dense segments,
// compact the sparse ones. So a checkpoint that re-logs its chunks from
// their views copies no whole chunk, and of the small ones only those whose
// slab lost more than half its payload bytes.
type Buffer struct {
	// SlabSize overrides the backing-slab size in bytes (for tests that
	// want to cross slab boundaries cheaply). Zero means DefaultSlabSize.
	// Must not change once the buffer holds data.
	SlabSize int

	mu   sync.Mutex
	segs [][]byte // the stream, in order
	n    int      // total stream length
	slab []byte   // the slab packed writes go to; nil when sealed
	off  int      // next free byte of slab
	// open says the last segment ends at slab[off], so a packed write
	// extends it instead of starting a segment.
	open      bool
	backing   [][]byte // every buffer segs point into: slabs and payload buffers
	taken     int      // how many of backing came from take, not relink
	tookSlabs int      // how many of those were slab-sized
	retired   [][]byte // backing Reset took out of use, kept until Recycle
	// spare holds slab-sized buffers Recycle kept back for this buffer, as
	// many as it took since the Reset, and take draws on it before the shared
	// free list. So a lane in a steady checkpoint cycle refills from its own
	// last cycle, whatever its siblings on the free list do meanwhile.
	spare [][]byte
	// whole indexes the retired buffers of at least half a slab by start
	// address, as positions in retired, for relink. It keeps its storage
	// across cycles, so a warm cycle allocates nothing.
	whole map[uintptr]int
	// packed holds the positions in backing of its packing slabs, the only
	// buffers a payload under half a slab is stored in.
	packed []int
	// index holds the retired packing slabs by start address, sorted, with
	// the payload bytes re-stored from each since the Reset, for relinking
	// payloads under half a slab (relinkSmall). Reset builds it and Recycle
	// empties it, so outside a checkpoint no store searches it.
	index  []retiredBuf
	pool   *pool // free list; a MultiLog's lanes share one
	writes int   // writes since creation (not reset by Reset)
}

func (b *Buffer) slabSize() int {
	if b.SlabSize > 0 {
		return b.SlabSize
	}
	return DefaultSlabSize
}

// free returns the buffer's free list; a Buffer outside a MultiLog gets a
// private one.
func (b *Buffer) free() *pool {
	if b.pool == nil {
		b.pool = new(pool)
	}
	return b.pool
}

// take returns n bytes of fresh backing, from spare or the free list when
// either holds a buffer of that size, and keeps it as backing.
func (b *Buffer) take(n int) []byte {
	var buf []byte
	if k := len(b.spare) - 1; k >= 0 && n == len(b.spare[k]) {
		buf, b.spare[k], b.spare = b.spare[k], nil, b.spare[:k]
	} else {
		buf = b.free().get(n)
	}
	b.backing = append(b.backing, buf)
	b.taken++
	if n == b.slabSize() {
		b.tookSlabs++
	}
	return buf
}

// retiredBuf is one slab the last Reset retired, as index holds it: its
// start address and length, its position in retired, and the payload bytes
// re-stored from it since the Reset.
type retiredBuf struct {
	at      uintptr
	n, i    int
	restore int
}

// relink returns the retired buffer p covers exactly, if the last Reset
// retired one, and makes it backing again (keep).
func (b *Buffer) relink(p []byte) []byte {
	i, ok := b.whole[addr(p)]
	if !ok || len(b.retired[i]) != len(p) {
		return nil
	}
	buf := b.retired[i]
	b.keep(i, false)
	return buf
}

// keep makes retired[i], a packing slab when slab is set, backing again,
// unless an earlier relink did. Its slot in retired becomes nil, so Recycle
// leaves it out.
func (b *Buffer) keep(i int, slab bool) {
	if buf := b.retired[i]; buf != nil {
		if slab {
			b.packed = append(b.packed, len(b.backing))
		}
		b.retired[i] = nil
		b.backing = append(b.backing, buf)
	}
}

// retiredOf returns the position in index of the retired slab that holds
// p, a payload under half a slab, or -1 when none does.
func (b *Buffer) retiredOf(p []byte) int {
	if len(b.index) == 0 || len(p) == 0 || 2*len(p) >= b.slabSize() {
		return -1
	}
	start := addr(p)
	j, found := slices.BinarySearchFunc(b.index, start, func(r retiredBuf, at uintptr) int { return cmp.Compare(r.at, at) })
	if !found {
		j-- // the last buffer starting below p
	}
	if j < 0 || start+uintptr(len(p)) > b.index[j].at+uintptr(b.index[j].n) {
		return -1
	}
	return j
}

// relinkSmall returns p, a payload under half a slab, relinked in place when
// the retired slab holding it is dense: the payloads re-stored from it since
// the Reset cover at least half of it (writeRecords counts a batch's before
// storing any). It returns nil when p must be copied.
func (b *Buffer) relinkSmall(p []byte) []byte {
	j := b.retiredOf(p)
	if j < 0 || 2*b.index[j].restore < b.index[j].n {
		return nil
	}
	b.keep(b.index[j].i, true)
	return p[:len(p):len(p)]
}

// newSlab starts packing into a fresh slab.
func (b *Buffer) newSlab() {
	b.packed = append(b.packed, len(b.backing))
	b.slab, b.off, b.open = b.take(b.slabSize()), 0, false
}

// pack copies p into slabs at the stream's end.
func (b *Buffer) pack(p []byte) {
	for len(p) > 0 {
		if b.slab == nil || b.off == len(b.slab) {
			b.newSlab()
		}
		c := copy(b.slab[b.off:], p)
		b.extend(b.off, c)
		p = p[c:]
	}
}

// extend adds slab[at:at+c], already written, to the stream's end.
func (b *Buffer) extend(at, c int) {
	if b.open && at == b.off {
		last := &b.segs[len(b.segs)-1]
		*last = (*last)[:len(*last)+c]
	} else {
		b.segs = append(b.segs, b.slab[at:at+c])
	}
	b.off, b.open, b.n = at+c, true, b.n+c
}

// store appends payload p to the stream where a view of it stays valid and
// starts on a 64-byte boundary, and returns that view.
func (b *Buffer) store(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	ss := b.slabSize()
	if 2*len(p) >= ss {
		buf := b.relink(p)
		if buf == nil {
			buf = b.take(len(p))
			copy(buf, p)
		}
		return b.link(buf)
	}
	if view := b.relinkSmall(p); view != nil {
		return b.link(view)
	}
	at := (b.off + payloadAlign - 1) &^ (payloadAlign - 1)
	if b.slab == nil || at+len(p) > len(b.slab) {
		b.newSlab()
		at = 0
	}
	copy(b.slab[at:], p)
	b.open = false // a payload starts a segment, so a decoder finds it whole
	b.extend(at, len(p))
	return b.slab[at : at+len(p) : at+len(p)]
}

// link adds view, a payload in backing outside the packing slab, to the
// stream's end as a segment of its own.
func (b *Buffer) link(view []byte) []byte {
	b.segs = append(b.segs, view)
	b.open, b.n = false, b.n+len(view)
	return view
}

// Write implements io.Writer.
func (b *Buffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writes++
	b.pack(p)
	return len(p), nil
}

// writeRecords appends segs, the Log's record layout — framing, header and
// payload segments per record — back-to-back under one lock acquisition, so
// a record or batch append is as atomic with respect to concurrent
// appenders and readers as a single Write, and returns the bytes appended.
// It stores each payload where a view of it stays valid and puts that view
// in the payload's slot of segs. While a Reset's buffers await Recycle, it
// first adds each payload under half a slab to the bytes re-stored from the
// retired buffer holding it, so the whole batch counts towards relinking
// that buffer (relinkSmall).
func (b *Buffer) writeRecords(segs [][]byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writes++
	if len(b.index) > 0 {
		for i := 2; i < len(segs); i += 3 {
			if j := b.retiredOf(segs[i]); j >= 0 {
				b.index[j].restore += len(segs[i])
			}
		}
	}
	n := 0
	for i, p := range segs {
		if i%3 == 2 {
			segs[i] = b.store(p)
		} else {
			b.pack(p)
		}
		n += len(p)
	}
	return n
}

// Reader returns a reader over the stream present at the call, reading the
// backing in place; it copies nothing until Read. Stored bytes are never
// rewritten, so later appends, Truncate, Corrupt and Reset do not disturb it;
// only Recycle may hand its backing to new writes. Tests capture a lane's
// bytes this way; a Decoder reads the same way.
func (b *Buffer) Reader() io.Reader { return b.reader() }

func (b *Buffer) reader() *segReader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &segReader{segs: slices.Clone(b.segs)}
}

// segReader reads a list of segments in order. The decoder also takes
// record bodies from it in place, as views (views).
type segReader struct {
	segs   [][]byte
	i, off int // next byte: segs[i][off]
}

// views appends the next n bytes of the stream to dst as views of the
// segments, one per segment they span, each capped at its length, and
// advances past them. ok is false when fewer than n bytes remain.
func (r *segReader) views(n int, dst [][]byte) (_ [][]byte, ok bool) {
	for n > 0 {
		if r.i == len(r.segs) {
			return dst, false
		}
		p := r.segs[r.i][r.off:]
		p = p[:min(n, len(p)):min(n, len(p))]
		dst = append(dst, p)
		n -= len(p)
		if r.off += len(p); r.off == len(r.segs[r.i]) {
			r.i, r.off = r.i+1, 0
		}
	}
	return dst, true
}

func (r *segReader) Read(p []byte) (int, error) {
	if r.i == len(r.segs) {
		return 0, io.EOF
	}
	read := 0
	for read < len(p) && r.i < len(r.segs) {
		c := copy(p[read:], r.segs[r.i][r.off:])
		read += c
		if r.off += c; r.off == len(r.segs[r.i]) {
			r.i, r.off = r.i+1, 0
		}
	}
	return read, nil
}

// Holds reports whether p, non-empty, lies wholly inside one segment of the
// stream: a view of bytes this buffer stored and still holds. Tests use it
// to check where a caller's view points.
func (b *Buffer) Holds(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	start, end := addr(p), addr(p)+uintptr(len(p))
	for _, seg := range b.segs {
		if s := addr(seg); start >= s && end <= s+uintptr(len(seg)) {
			return true
		}
	}
	return false
}

// Len returns the current content length.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Writes reports how many writes have landed since creation (Reset does not
// zero it): one per Write, one per AppendV or AppendVSum call, one per
// AppendNV batch however many records it carries.
func (b *Buffer) Writes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.writes
}

// Slabs reports how many backing buffers — slabs and payload buffers — the
// buffer has taken since it was created or last Reset; a relinked buffer is
// not taken. Tests use it to prove a log actually spans a segmented backing.
func (b *Buffer) Slabs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.taken
}

// Reset discards all content and retires the backing: views into it stay
// valid, and it is kept out of reuse until Recycle. Until then, storing a
// payload that lies in a retired buffer relinks it instead of copying it
// when the rule in the Buffer doc says so. Backing an earlier Reset retired
// and nobody recycled is left to the garbage collector. Checkpointing resets
// a log whose prefix a freshly written snapshot has made redundant. The
// backing is copied into retired, not swapped with it, so each list keeps
// the storage it grew and a warm cycle allocates nothing.
func (b *Buffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.retired)
	b.retired = append(b.retired[:0], b.backing...)
	clear(b.backing)
	b.backing, b.taken, b.tookSlabs = b.backing[:0], 0, 0
	if b.whole == nil {
		b.whole = make(map[uintptr]int)
	}
	clear(b.whole)
	for i, buf := range b.retired {
		if 2*len(buf) >= b.slabSize() {
			b.whole[addr(buf)] = i
		}
	}
	b.index = b.index[:0]
	for _, i := range b.packed {
		b.index = append(b.index, retiredBuf{at: addr(b.retired[i]), n: len(b.retired[i]), i: i})
	}
	b.packed = b.packed[:0]
	slices.SortFunc(b.index, func(x, y retiredBuf) int { return cmp.Compare(x.at, y.at) })
	clear(b.segs)
	b.segs = b.segs[:0]
	b.slab, b.off, b.open, b.n = nil, 0, false, 0
}

// Recycle hands the backing the last Reset retired to the free list, so
// later writes reuse it, all but the buffers relinked since and the slabs it
// keeps back as spare. The caller must hold no view into it any more.
func (b *Buffer) Recycle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	clear(b.whole)
	b.index = b.index[:0]
	ss := b.slabSize()
	for i, buf := range b.retired {
		if len(b.spare) >= b.tookSlabs {
			break
		}
		if len(buf) == ss {
			b.spare, b.retired[i] = append(b.spare, buf), nil
		}
	}
	if len(b.spare) > b.tookSlabs {
		b.free().put(b.spare[b.tookSlabs:])
		clear(b.spare[b.tookSlabs:])
		b.spare = b.spare[:b.tookSlabs]
	}
	b.free().put(b.retired)
	clear(b.retired)
	b.retired = b.retired[:0]
}

// Corrupt flips one byte at off, for crash/corruption injection in tests.
// The flip lands in a private copy of the byte's segment, so views of the
// stored bytes keep what was written.
func (b *Buffer) Corrupt(off int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 || off >= b.n {
		return fmt.Errorf("wal: corrupt offset %d out of range %d", off, b.n)
	}
	i := 0
	for ; off >= len(b.segs[i]); i++ {
		off -= len(b.segs[i])
	}
	seg := slices.Clone(b.segs[i])
	seg[off] ^= 0xff
	b.segs[i] = seg
	if i == len(b.segs)-1 {
		b.open = false
	}
	return nil
}

// Truncate drops all content after n bytes, simulating a torn write. It
// seals the buffer: the bytes past the cut stay as they are, and the next
// write starts on fresh backing.
func (b *Buffer) Truncate(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n = max(n, 0)
	if n >= b.n {
		return
	}
	keep, i := n, 0
	for ; keep >= len(b.segs[i]); i++ {
		keep -= len(b.segs[i])
	}
	if keep > 0 {
		b.segs[i] = b.segs[i][:keep]
		i++
	}
	clear(b.segs[i:])
	b.segs = b.segs[:i]
	b.slab, b.off, b.open, b.n = nil, 0, false, n
}

// pool is a free list of recycled backing, by size: slabs and payload
// buffers alike. A MultiLog's lanes share one, so a checkpoint's lane jobs
// refill from the lanes re-logged before them instead of each holding its
// own old and new copy of the snapshot.
type pool struct {
	mu   sync.Mutex
	free map[int][][]byte
}

// get returns a buffer of n bytes starting on a payloadAlign boundary.
func (p *pool) get(n int) []byte {
	p.mu.Lock()
	if l := p.free[n]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[n] = l[:len(l)-1]
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	return alignedBytes(n)
}

func (p *pool) put(bufs [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[int][][]byte)
	}
	for _, buf := range bufs {
		if buf == nil {
			continue // relinked
		}
		p.free[len(buf)] = append(p.free[len(buf)], buf)
	}
}

// alignedBytes allocates n bytes starting on a payloadAlign boundary.
func alignedBytes(n int) []byte {
	buf := make([]byte, n)
	if addr(buf)%payloadAlign == 0 {
		return buf
	}
	buf = make([]byte, n+payloadAlign-1)
	at := int(-addr(buf) & (payloadAlign - 1))
	return buf[at : at+n : at+n]
}

func addr(b []byte) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }
