package mpiio

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
)

// recFS wraps a FileSystem and records every WriteAt issued through its
// handles, so the test can see exactly how the collective aggregated. It
// fails, unrecorded, the writes issued under the victim context, if any.
type recFS struct {
	storage.FileSystem
	mu     sync.Mutex
	writes []recWrite
	victim atomic.Pointer[storage.Context]
}

var errDiskOnFire = errors.New("disk on fire")

type recWrite struct {
	off int64
	n   int
}

func (r *recFS) ChunkSize() int {
	if cs, ok := r.FileSystem.(storage.ChunkSizer); ok {
		return cs.ChunkSize()
	}
	return 0
}

func (r *recFS) Create(ctx *storage.Context, path string) (storage.Handle, error) {
	h, err := r.FileSystem.Create(ctx, path)
	if err != nil {
		return nil, err
	}
	return &recHandle{Handle: h, fs: r}, nil
}

func (r *recFS) Open(ctx *storage.Context, path string) (storage.Handle, error) {
	h, err := r.FileSystem.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	return &recHandle{Handle: h, fs: r}, nil
}

type recHandle struct {
	storage.Handle
	fs *recFS
}

func (h *recHandle) WriteAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	if ctx == h.fs.victim.Load() {
		return 0, errDiskOnFire
	}
	h.fs.mu.Lock()
	h.fs.writes = append(h.fs.writes, recWrite{off, len(p)})
	h.fs.mu.Unlock()
	return h.Handle.WriteAt(ctx, off, p)
}

// TestWriteAtAllvChunkAlignedShares pins the collective share partition to
// the backend's chunk grid: over a 64-byte-chunk blob store, each rank's
// aggregated write must start and end on chunk boundaries (except at the
// union edges), no chunk may be touched by two ranks, and the assembled
// bytes must land exactly.
func TestWriteAtAllvChunkAlignedShares(t *testing.T) {
	const (
		chunk  = 64
		ranks  = 4
		piece  = 16
		rounds = 6
		total  = int64(ranks * piece * rounds) // 384, contiguous union
	)
	c := cluster.New(cluster.Config{Nodes: 5, Seed: 1})
	inner := blobfs.New(blob.New(c, blob.Config{ChunkSize: chunk, Replication: 2}))
	fs := &recFS{FileSystem: inner}
	if fs.ChunkSize() != chunk {
		t.Fatalf("ChunkSize through wrapper = %d, want %d", fs.ChunkSize(), chunk)
	}

	errs := mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
		f, err := Open(r, fs, "/strided.dat", true, Options{})
		if err != nil {
			return err
		}
		// Rank r owns the r-th 16-byte slot of every 64-byte round: the
		// classic interleaved access pattern collective I/O exists for.
		var pieces []Piece
		for k := 0; k < rounds; k++ {
			data := make([]byte, piece)
			for i := range data {
				data[i] = byte(1 + r.ID*rounds + k)
			}
			pieces = append(pieces, Piece{Off: int64(k*ranks*piece + r.ID*piece), Data: data})
		}
		if _, err := f.WriteAtAllv(pieces); err != nil {
			return err
		}
		return f.Close()
	})
	if err := mpi.FirstError(errs); err != nil {
		t.Fatal(err)
	}

	// Every aggregated write sits on the chunk grid and covers each chunk
	// at most once.
	fs.mu.Lock()
	writes := append([]recWrite(nil), fs.writes...)
	fs.mu.Unlock()
	if len(writes) == 0 || len(writes) > ranks {
		t.Fatalf("got %d aggregated writes, want 1..%d (one per contributing rank)", len(writes), ranks)
	}
	seen := make(map[int64]bool)
	for _, w := range writes {
		end := w.off + int64(w.n)
		if w.off%chunk != 0 {
			t.Errorf("aggregated write starts off-grid at %d", w.off)
		}
		if end%chunk != 0 && end != total {
			t.Errorf("aggregated write ends off-grid at %d", end)
		}
		for ci := w.off / chunk; ci*chunk < end; ci++ {
			if seen[ci] {
				t.Errorf("chunk %d written by two ranks", ci)
			}
			seen[ci] = true
		}
	}

	// The bytes landed exactly: slot i of round k holds rank i's fill.
	ctx := storage.NewContext()
	h, err := inner.Open(ctx, "/strided.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(ctx)
	got := make([]byte, total)
	if n, err := h.ReadAt(ctx, 0, got); err != nil || int64(n) != total {
		t.Fatalf("read back = (%d, %v)", n, err)
	}
	for p := int64(0); p < total; p++ {
		rank := int(p/piece) % ranks
		round := int(p / (ranks * piece))
		if want := byte(1 + rank*rounds + round); got[p] != want {
			t.Fatalf("byte %d = %d, want %d", p, got[p], want)
		}
	}
}
