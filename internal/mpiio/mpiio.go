// Package mpiio implements an MPI-IO-like parallel I/O library over any
// storage.FileSystem, reproducing the semantics the paper leans on
// (Section II-A): "MPI-IO requires a write to be visible by all processes
// only after the file is closed or synced".
//
// Concretely:
//
//   - writes are buffered per rank (write-behind) and flushed, coalesced
//     into contiguous runs, on Sync or Close — so the storage layer sees
//     far fewer, larger calls than the application issued, and other ranks
//     observe the data only after the flush;
//   - a rank always sees its own writes (local visibility), implemented by
//     overlaying the pending buffer on reads;
//   - Open and Close are collective (all ranks of the communicator call
//     them together), as the standard requires;
//   - collective data operations (WriteAtAll / ReadAtAll) implement
//     two-phase I/O: ranks exchange their pieces so that each rank performs
//     one large contiguous storage access instead of many interleaved small
//     ones.
//
// Buffer ownership in a collective write: ranks share an address space, so
// the exchange hands every rank references to every rank's pieces, not
// copies, and charges virtual time as if the bytes had crossed the wire.
// Until WriteAtAll / WriteAtAllv returns, peers may be reading the slices
// the caller passed in, so the caller must not modify them; once it returns
// — on every rank together, and with an error on every rank if any
// aggregator failed — nothing holds them and the caller may reuse them at
// once. An aggregator writes a stretch that one piece covers straight from
// that piece and stitches only stretches made of several pieces, in one
// aggregation buffer per File that grows to the largest such stretch and is
// released by Close. Only bytes some rank contributed are written: a hole
// in the union keeps whatever the file held.
//
// The package issues only file reads, writes, opens, closes and syncs —
// never a directory operation — which is precisely why Figure 1 shows HPC
// applications performing nothing but file I/O.
package mpiio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/mpi"
	"repro/internal/storage"
)

// DefaultBufferSize is the per-rank write-behind buffer threshold.
const DefaultBufferSize = 1 << 20

// File is an MPI-IO file handle held by one rank.
type File struct {
	fs   storage.FileSystem
	rank *mpi.Rank
	h    storage.Handle
	path string

	mu       sync.Mutex
	pending  []pendingWrite
	bufBytes int
	maxBuf   int
	atomic   bool
	closed   bool

	// Collective-write state. Only the rank's own goroutine touches it,
	// except contrib, which peers read between the exchange and the
	// completion collective of one WriteAtAllv (the exchange shares a
	// pointer to the field: boxing the slice itself would allocate).
	contrib []Piece
	peers   []any    // what the last collective gathered, one entry per rank
	exts    []extent // the gathered pieces clipped to this rank's share
	agg     []byte   // stitches multi-piece runs; grows, never shrinks
}

type pendingWrite struct {
	off  int64
	data []byte
}

// extent is a byte range of the file with the bytes to put there; seq is
// its place in arrival order, which decides who wins an overlap.
type extent struct {
	off  int64
	data []byte
	seq  int
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// Options tunes an open file.
type Options struct {
	// BufferSize is the write-behind threshold; <= 0 selects
	// DefaultBufferSize. A zero-buffer configuration (set to 1) makes every
	// write synchronous, which the consistency ablation uses.
	BufferSize int
}

// Open opens path collectively on every rank of r's communicator. When
// create is true, rank 0 creates (truncating) the file before the others
// open it.
func Open(r *mpi.Rank, fs storage.FileSystem, path string, create bool, opts Options) (*File, error) {
	if opts.BufferSize <= 0 {
		opts.BufferSize = DefaultBufferSize
	}
	var h storage.Handle
	var err error
	if create {
		if r.ID == 0 {
			h, err = fs.Create(r.Ctx, path)
		}
		r.Barrier() // others must not open before the create lands
		if r.ID != 0 {
			h, err = fs.Open(r.Ctx, path)
		}
	} else {
		h, err = fs.Open(r.Ctx, path)
	}
	if err != nil {
		// Collective semantics: every rank must learn of the failure; the
		// barrier above already ordered creates, so just report.
		return nil, fmt.Errorf("mpiio: open %q on rank %d: %w", path, r.ID, err)
	}
	return &File{fs: fs, rank: r, h: h, path: path, maxBuf: opts.BufferSize}, nil
}

// SetAtomicity toggles MPI-IO atomic mode (MPI_File_set_atomicity): when
// enabled, every write goes straight to storage (no write-behind), so
// sequential consistency among the ranks follows from the backend's own
// ordering. Enabling it flushes any buffered writes first. Collective in
// the standard; here each rank's handle is switched independently and the
// caller coordinates, as the traced applications do.
func (f *File) SetAtomicity(atomic bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return storage.ErrClosed
	}
	if atomic && !f.atomic {
		if err := f.flushLocked(); err != nil {
			return err
		}
	}
	f.atomic = atomic
	return nil
}

// Atomicity reports the handle's current atomic-mode setting.
func (f *File) Atomicity() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.atomic
}

// WriteAt buffers an independent write. The data becomes visible to other
// ranks only after Sync or Close (or immediately under atomic mode); it is
// always immediately visible to this rank's own reads.
func (f *File) WriteAt(off int64, p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, storage.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("mpiio: write at %d: %w", off, storage.ErrInvalidArg)
	}
	if f.atomic {
		if _, err := f.h.WriteAt(f.rank.Ctx, off, p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	f.pending = append(f.pending, pendingWrite{off: off, data: append([]byte(nil), p...)})
	f.bufBytes += len(p)
	if f.bufBytes >= f.maxBuf {
		if err := f.flushLocked(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// ReadAt reads at off, overlaying this rank's pending writes so a rank
// always observes its own data (MPI-IO local visibility).
func (f *File) ReadAt(off int64, p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, storage.ErrClosed
	}
	n, err := f.h.ReadAt(f.rank.Ctx, off, p)
	if err != nil {
		return n, err
	}
	// Overlay pending writes; they may extend the visible region.
	for _, w := range f.pending {
		lo, hi := w.off, w.off+int64(len(w.data))
		rLo, rHi := off, off+int64(len(p))
		if hi <= rLo || lo >= rHi {
			continue
		}
		start := lo
		if start < rLo {
			start = rLo
		}
		end := hi
		if end > rHi {
			end = rHi
		}
		copy(p[start-off:end-off], w.data[start-lo:end-lo])
		if int(end-off) > n {
			n = int(end - off)
		}
	}
	return n, nil
}

// Sync flushes buffered writes (coalesced) and syncs the underlying handle,
// making this rank's writes globally visible — the MPI-IO visibility point.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return storage.ErrClosed
	}
	if err := f.flushLocked(); err != nil {
		return err
	}
	return f.h.Sync(f.rank.Ctx)
}

// flushLocked merges pending writes into maximal contiguous runs (later
// writes win on overlap) and issues them to storage.
func (f *File) flushLocked() error {
	if len(f.pending) == 0 {
		return nil
	}
	runs := coalesce(f.pending)
	for _, w := range runs {
		if _, err := f.h.WriteAt(f.rank.Ctx, w.off, w.data); err != nil {
			return fmt.Errorf("mpiio: flush %q: %w", f.path, err)
		}
	}
	f.pending = nil
	f.bufBytes = 0
	return nil
}

// coalesce merges a write list into sorted, disjoint, maximal runs, with
// later writes overriding earlier ones where they overlap. A run made of a
// single write is that write's slice, not a copy of it.
func coalesce(writes []pendingWrite) []pendingWrite {
	exts := make([]extent, 0, len(writes))
	for i, w := range writes {
		if len(w.data) > 0 {
			exts = append(exts, extent{off: w.off, data: w.data, seq: i})
		}
	}
	var runs []pendingWrite
	_ = forEachRun(exts, func(off, end int64, members []extent) error { // this emit never fails
		data := members[0].data
		if len(members) > 1 {
			data = stitch(make([]byte, end-off), off, members)
		}
		runs = append(runs, pendingWrite{off, data})
		return nil
	})
	return runs
}

// forEachRun reorders exts and calls emit once per maximal run of touching
// or overlapping extents, in ascending offset order, with the run's bounds
// and its members in arrival order. It stops at emit's first error.
func forEachRun(exts []extent, emit func(off, end int64, members []extent) error) error {
	slices.SortFunc(exts, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	for i := 0; i < len(exts); {
		off, end := exts[i].off, exts[i].end()
		j := i + 1
		for ; j < len(exts) && exts[j].off <= end; j++ {
			end = max(end, exts[j].end())
		}
		members := exts[i:j]
		slices.SortFunc(members, func(a, b extent) int { return cmp.Compare(a.seq, b.seq) })
		if err := emit(off, end, members); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// stitch copies a run's members into buf, whose first byte is file offset
// off, in arrival order so that later ones win, and returns buf.
func stitch(buf []byte, off int64, members []extent) []byte {
	for _, m := range members {
		copy(buf[m.off-off:], m.data)
	}
	return buf
}

// Close flushes, closes the storage handle, and synchronizes the
// communicator (MPI_File_close is collective).
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return storage.ErrClosed
	}
	err := f.flushLocked()
	f.closed = true
	f.mu.Unlock()
	f.agg = nil
	if cerr := f.h.Close(f.rank.Ctx); err == nil {
		err = cerr
	}
	f.rank.Barrier()
	return err
}

// Piece is one (offset, data) extent contributed to a collective write.
// Peers read Data in place until the collective returns.
type Piece struct {
	Off  int64
	Data []byte
}

// WriteAtAll is the collective two-phase write for one contiguous piece
// per rank; see WriteAtAllv for the general strided form.
func (f *File) WriteAtAll(off int64, p []byte) (int, error) {
	n, err := f.WriteAtAllv([]Piece{{Off: off, Data: p}})
	return int(n), err
}

// WriteAtAllv is the general collective two-phase write: every rank
// contributes any number of (possibly tiny, strided) pieces; the pieces
// are exchanged across the communicator and each rank writes its share of
// the union range, ONE large contiguous write when the union has no holes
// — the I/O aggregation that turns N*k interleaved small accesses into N
// sequential streams. Where pieces overlap, the higher rank and, within a
// rank, the later piece wins. All ranks must call it together, each from
// the goroutine that runs the rank, and all return together: with this
// rank's contributed byte count, or with an error on every rank if any
// rank's argument was bad or any aggregator's write failed.
func (f *File) WriteAtAllv(pieces []Piece) (int64, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, storage.ErrClosed
	}
	f.mu.Unlock()
	var contributed int64
	var err error
	for _, p := range pieces {
		if p.Off < 0 {
			err = fmt.Errorf("mpiio: collective write at %d: %w", p.Off, storage.ErrInvalidArg)
		}
		contributed += int64(len(p.Data))
	}
	if err != nil {
		pieces = nil // the peers are waiting: join them empty-handed
	}
	f.contrib = pieces
	f.peers = f.rank.AllGatherRef(&f.contrib, wireSize(pieces), f.peers[:0])
	if err == nil {
		err = f.writeShare()
	}
	// Completion. No rank may return, and let its caller reuse the slices
	// it contributed, while a peer can still be reading them; the same
	// zero-byte collective tells every rank whether every share landed.
	f.peers = f.rank.AllGatherRef(err, 0, f.peers[:0])
	f.contrib = nil
	if err != nil {
		return 0, err
	}
	for id, p := range f.peers {
		if p != nil {
			return 0, fmt.Errorf("mpiio: collective write: rank %d: %w", id, p.(error))
		}
	}
	return contributed, nil
}

// wireSize is what a piece list would occupy on an interconnect — a u32
// piece count, then per piece an i64 offset, a u32 length and the bytes —
// and so what the exchange charges for, although only references move.
func wireSize(pieces []Piece) int {
	n := 4
	for _, p := range pieces {
		n += 12 + len(p.Data)
	}
	return n
}

// writeShare writes this rank's share of the pieces in f.peers (one
// *[]Piece per rank). It partitions the union range [lo, hi) into size
// contiguous shares, this rank taking share #ID. Interior share boundaries
// are aligned to the backend's chunk size (storage.ChunkSizer) so each
// aggregated write covers whole chunks: on the blob store that sends every
// chunk to exactly one writer — no two ranks contend for one chunk's
// replica set, and a multi-chunk share commits through the 2PC batched
// write path instead of splitting chunks across ranks.
func (f *File) writeShare() error {
	lo, hi := unionRange(f.peers)
	if hi <= lo {
		return nil
	}
	size, align := int64(f.rank.Size()), f.chunkAlign()
	share := (hi - lo + size - 1) / size
	myLo := shareBound(lo, hi, share, align, int64(f.rank.ID))
	myHi := shareBound(lo, hi, share, align, int64(f.rank.ID)+1)
	exts := f.exts[:0]
	for _, p := range f.peers {
		for _, pc := range *p.(*[]Piece) {
			start, end := max(pc.Off, myLo), min(pc.Off+int64(len(pc.Data)), myHi)
			if start < end {
				exts = append(exts, extent{off: start, data: pc.Data[start-pc.Off : end-pc.Off], seq: len(exts)})
			}
		}
	}
	f.exts = exts
	defer clear(exts) // keep no reference to a peer's slices past the call
	return forEachRun(exts, func(off, end int64, members []extent) error {
		data := members[0].data
		if len(members) > 1 {
			if int64(cap(f.agg)) < end-off {
				f.agg = make([]byte, end-off)
			}
			data = stitch(f.agg[:end-off], off, members)
		}
		f.mu.Lock()
		_, err := f.h.WriteAt(f.rank.Ctx, off, data)
		f.mu.Unlock()
		if err != nil {
			return fmt.Errorf("mpiio: collective write: %w", err)
		}
		return nil
	})
}

// chunkAlign reports the backend's chunk granularity for collective share
// partitioning (0 = no alignment).
func (f *File) chunkAlign() int64 {
	if cs, ok := f.fs.(storage.ChunkSizer); ok {
		return int64(cs.ChunkSize())
	}
	return 0
}

// shareBound returns the k-th boundary of the collective share partition of
// [lo, hi): the nominal boundary lo + k*share, rounded up to the next chunk
// multiple when the backend has one. Rounding each absolute boundary (not
// the share width) keeps the partition exact — boundaries stay monotone,
// the first is lo, the last is hi, and every interior one lands on a chunk
// edge even when lo itself is unaligned. Shares may end up empty; their
// ranks simply skip the write and meet the others at the completion.
func shareBound(lo, hi, share, align, k int64) int64 {
	b := lo + k*share
	if b >= hi {
		return hi
	}
	if b <= lo {
		return lo
	}
	if align > 1 {
		if rem := b % align; rem != 0 {
			b += align - rem
		}
		if b > hi {
			b = hi
		}
	}
	return b
}

// ReadAtAll is the collective read: every rank reads its extent and the
// communicator synchronizes on completion. Aggregation happens on the
// write path (WriteAtAll), where interleaved small accesses are the
// dominant pattern in the traced applications; collective reads in those
// applications are already contiguous per rank.
func (f *File) ReadAtAll(off int64, p []byte) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, storage.ErrClosed
	}
	n, err := f.h.ReadAt(f.rank.Ctx, off, p)
	f.mu.Unlock()
	f.rank.Barrier()
	return n, err
}

// unionRange returns the smallest range covering every non-empty piece of
// every rank's list (one *[]Piece per rank); hi <= lo when there is none.
func unionRange(peers []any) (lo, hi int64) {
	lo = math.MaxInt64
	for _, p := range peers {
		for _, pc := range *p.(*[]Piece) {
			if len(pc.Data) > 0 {
				lo = min(lo, pc.Off)
				hi = max(hi, pc.Off+int64(len(pc.Data)))
			}
		}
	}
	return lo, hi
}
