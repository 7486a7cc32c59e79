package mpiio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/fs/posixfs"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
)

// collectiveBackends are the two file systems the collective tests run
// over: one without a chunk grid (shares split the union evenly) and a
// 64-byte-chunk blob store (interior share boundaries snap to the grid).
var collectiveBackends = []struct {
	name string
	make func() storage.FileSystem
}{
	{"posixfs", func() storage.FileSystem {
		return posixfs.NewStrict(cluster.New(cluster.Config{Nodes: 5, Seed: 1}))
	}},
	{"blobfs64", func() storage.FileSystem {
		c := cluster.New(cluster.Config{Nodes: 5, Seed: 1})
		return blobfs.New(blob.New(c, blob.Config{ChunkSize: 64, Replication: 2}))
	}},
}

// layoutPiece is one piece of a collective write in a test layout.
type layoutPiece struct {
	rank int
	off  int64
	n    int
}

// checkCollectiveLayout pre-fills a file with 0xEE, has ranks ranks write
// layout in one WriteAtAllv, and compares the whole file with a model that
// applies the pieces in rank order, each rank's in list order: overlaps go
// to the later one and bytes no piece covers keep the fill.
func checkCollectiveLayout(t *testing.T, fs storage.FileSystem, ranks int, fileLen int64, layout []layoutPiece) {
	t.Helper()
	const path = "/layout.dat"
	ctx := storage.NewContext()
	h, err := fs.Create(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	model := bytes.Repeat([]byte{0xEE}, int(fileLen))
	if _, err := h.WriteAt(ctx, 0, model); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	perRank := make([][]Piece, ranks)
	for i, lp := range layout {
		data := bytes.Repeat([]byte{byte(i + 1)}, lp.n)
		perRank[lp.rank] = append(perRank[lp.rank], Piece{Off: lp.off, Data: data})
	}
	for _, pieces := range perRank {
		for _, pc := range pieces {
			copy(model[pc.Off:], pc.Data)
		}
	}
	errs := mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
		f, err := Open(r, fs, path, false, Options{})
		if err != nil {
			return err
		}
		if _, err := f.WriteAtAllv(perRank[r.ID]); err != nil {
			return err
		}
		return f.Close()
	})
	if err := mpi.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	h, err = fs.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close(ctx)
	got := make([]byte, fileLen+1)
	n, err := h.ReadAt(ctx, 0, got)
	if err != nil || int64(n) != fileLen {
		t.Fatalf("read back = (%d, %v), want %d bytes", n, err, fileLen)
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("layout %v: byte %d = %#x, want %#x", layout, i, got[i], model[i])
		}
	}
}

// A collective write touches only bytes some rank contributed. The first
// layout is the smallest one that lost data when shares were written whole
// from a zeroed buffer; the second has a hole inside a share and a hole
// across a share boundary on both backends (boundary at 100 without a
// chunk grid, at 128 with 64-byte chunks).
func TestCollectiveWriteLeavesHolesAlone(t *testing.T) {
	layouts := [][]layoutPiece{
		{{0, 0, 8}, {1, 40, 8}},
		{{0, 0, 8}, {1, 40, 8}, {0, 100, 8}, {1, 180, 20}},
	}
	for _, be := range collectiveBackends {
		for i, layout := range layouts {
			t.Run(fmt.Sprintf("%s/%d", be.name, i), func(t *testing.T) {
				checkCollectiveLayout(t, be.make(), 2, 256, layout)
			})
		}
	}
}

// Where pieces overlap, the later rank wins, and within a rank the later
// piece — also when the overlap straddles a share boundary and when a
// later piece lies inside an earlier one.
func TestCollectiveWriteOverlapOrder(t *testing.T) {
	layout := []layoutPiece{
		{0, 0, 100}, {1, 50, 100}, {1, 60, 10}, {0, 20, 10}, {2, 140, 20}, {2, 0, 4}, {0, 158, 4},
	}
	for _, be := range collectiveBackends {
		t.Run(be.name, func(t *testing.T) {
			checkCollectiveLayout(t, be.make(), 3, 256, layout)
		})
	}
}

// Random layouts — holes, overlaps, empty pieces, ranks with nothing —
// against the same model.
func TestCollectiveWriteRandomLayouts(t *testing.T) {
	for _, be := range collectiveBackends {
		t.Run(be.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			fs := be.make()
			for round := 0; round < 40; round++ {
				ranks := 1 + rng.Intn(4)
				var layout []layoutPiece
				for k := rng.Intn(10); k > 0; k-- {
					off := rng.Int63n(400)
					layout = append(layout, layoutPiece{rng.Intn(ranks), off, rng.Intn(int(min(90, 401-off)))})
				}
				checkCollectiveLayout(t, fs, ranks, 400, layout)
			}
		})
	}
}

// TestCollectiveSelfScriptCostPinned pins what a collective costs in the
// simulation — the rank's final virtual clock and the log bytes it left on
// the servers — to the values measured when the exchange still serialized
// and copied every piece. Only references move now; the charges must not.
func TestCollectiveSelfScriptCostPinned(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 5, Seed: 1})
	store := blob.New(c, blob.Config{ChunkSize: 64, Replication: 2})
	ctx := storage.NewContext()
	f, err := Open(mpi.Self(ctx, c.Cost()), blobfs.New(store), "/pinned.dat", true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAtAll(0, bytes.Repeat([]byte{1}, 300)); err != nil {
		t.Fatal(err)
	}
	// Strided and out of order, but gap-free: [300, 500) in 40-byte pieces.
	var pieces []Piece
	for _, k := range []int{3, 0, 4, 1, 2} {
		pieces = append(pieces, Piece{Off: int64(300 + 40*k), Data: bytes.Repeat([]byte{byte(10 + k)}, 40)})
	}
	if n, err := f.WriteAtAllv(pieces); err != nil || n != 200 {
		t.Fatalf("WriteAtAllv = (%d, %v)", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 500)
	if n, err := f.ReadAtAll(0, buf); err != nil || n != 500 {
		t.Fatalf("ReadAtAll = (%d, %v)", n, err)
	}
	if buf[299] != 1 || buf[300] != 10 || buf[499] != 14 {
		t.Fatalf("content: buf[299]=%d buf[300]=%d buf[499]=%d", buf[299], buf[300], buf[499])
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var walBytes int64
	for _, n := range c.Nodes() {
		walBytes += store.WALSize(n.ID)
	}
	const (
		wantClock = 3793214 * time.Nanosecond
		wantWAL   = int64(3130)
	)
	if got := ctx.Clock.Now(); got != wantClock || walBytes != wantWAL {
		t.Fatalf("virtual clock = %d ns, WAL = %d bytes; pinned %d ns, %d bytes", got, walBytes, wantClock, wantWAL)
	}
}

// An aggregator whose storage write fails must still meet its peers at the
// completion: every rank returns, every rank learns of the failure (the
// others by rank number), and the communicator is left lined up for the
// next collective.
func TestCollectiveWriteFailedAggregatorReportsEverywhere(t *testing.T) {
	const ranks, victim = 4, 2
	fs := &recFS{FileSystem: collectiveBackends[0].make()}
	done := make(chan []error, 1)
	go func() {
		done <- mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
			f, err := Open(r, fs, "/fail.dat", true, Options{})
			if err != nil {
				return err
			}
			if r.ID == victim {
				fs.victim.Store(r.Ctx)
			}
			_, werr := f.WriteAtAll(int64(r.ID*64), bytes.Repeat([]byte{byte(r.ID + 1)}, 64))
			sum := r.AllReduceInt64(int64(r.ID), func(a, b int64) int64 { return a + b })
			fs.victim.Store(nil)
			// Close before judging: a rank that left early would strand its peers.
			if err := f.Close(); err != nil {
				return err
			}
			if sum != 0+1+2+3 {
				return fmt.Errorf("collective after the failed write is out of step: sum = %d", sum)
			}
			if !errors.Is(werr, errDiskOnFire) {
				return fmt.Errorf("rank %d: WriteAtAll = %v, want the aggregator's error", r.ID, werr)
			}
			if r.ID != victim && !strings.Contains(werr.Error(), fmt.Sprintf("rank %d", victim)) {
				return fmt.Errorf("rank %d: %q does not name rank %d", r.ID, werr, victim)
			}
			return nil
		})
	}()
	select {
	case errs := <-done:
		for id, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", id, err)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ranks never returned from a collective write whose aggregator failed")
	}
}

// A rank with a bad argument contributes nothing but still joins, so its
// peers return — with its error — instead of waiting for it.
func TestCollectiveWriteBadArgumentReportsEverywhere(t *testing.T) {
	fs := collectiveBackends[0].make()
	errs := mpi.Run(3, sim.DefaultCostModel(), func(r *mpi.Rank) error {
		f, err := Open(r, fs, "/bad.dat", true, Options{})
		if err != nil {
			return err
		}
		off := int64(r.ID * 8)
		if r.ID == 1 {
			off = -1
		}
		_, werr := f.WriteAtAll(off, make([]byte, 8))
		if err := f.Close(); err != nil {
			return err
		}
		if !errors.Is(werr, storage.ErrInvalidArg) {
			return fmt.Errorf("rank %d: WriteAtAll = %v, want ErrInvalidArg", r.ID, werr)
		}
		return nil
	})
	if err := mpi.FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// allocatedBytes reports the heap bytes fn allocates, not counting what
// prepare does before it, as the smallest of a few runs so that a background
// allocation cannot inflate it.
func allocatedBytes(prepare, fn func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		prepare()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// The collective layer's allocation budget over the blob store: a warm
// contiguous 1 MiB WriteAtAll goes from the caller's slab to storage without
// a buffer of its own, and a strided one reuses the aggregation buffer its
// first call sized.
func TestCollectiveWriteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the blob store's sync.Pools drop items at random under the race detector")
	}
	const slab = 1 << 20
	c := cluster.New(cluster.Config{Nodes: 9, Seed: 1})
	store := blob.New(c, blob.Config{ChunkSize: 64 << 10, Replication: 3})
	f, err := Open(mpi.Self(storage.NewContext(), c.Cost()), blobfs.New(store), "/budget.dat", true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := bytes.Repeat([]byte{7}, slab)
	contiguous := func() {
		if _, err := f.WriteAtAll(0, data); err != nil {
			t.Fatal(err)
		}
	}
	pieces := make([]Piece, 16)
	for i := range pieces {
		pieces[i] = Piece{Off: int64(i) * slab / 16, Data: data[i*slab/16 : (i+1)*slab/16]}
	}
	strided := func() {
		if _, err := f.WriteAtAllv(pieces); err != nil {
			t.Fatal(err)
		}
	}
	// Warm means the chunks exist and a checkpoint has emptied the logs,
	// whose buffers the next write of the same chunks refills.
	contiguous()
	if got := allocatedBytes(store.CheckpointAll, contiguous); got >= 4<<10 {
		t.Errorf("warm contiguous 1 MiB WriteAtAll allocated %d bytes, want < 4 KiB", got)
	}
	strided() // sizes the aggregation buffer
	if got := allocatedBytes(store.CheckpointAll, strided); got >= 4<<10 {
		t.Errorf("warm strided 1 MiB WriteAtAllv allocated %d bytes, want < 4 KiB (no share-sized buffer)", got)
	}
}

// Once WriteAtAll returns, the slab belongs to the caller again: every rank
// scribbles over its one slab right after each collective, while the share
// it fed was written by a different rank each step. Run under -race this
// also checks that no aggregator reads a slab past the completion.
func TestCollectiveWriteSlabReusableOnReturn(t *testing.T) {
	const ranks, steps, slab = 4, 200, 128
	fill := func(p []byte, rank, step int) {
		for i := range p {
			p[i] = byte(rank*31 + step*7 + i)
		}
	}
	for _, be := range collectiveBackends {
		t.Run(be.name, func(t *testing.T) {
			fs := be.make()
			errs := mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
				f, err := Open(r, fs, "/reuse.dat", true, Options{})
				if err != nil {
					return err
				}
				data, got, want := make([]byte, slab), make([]byte, slab), make([]byte, slab)
				var bad error // reported at the end: a rank that left early would strand its peers
				for step := 0; step < steps; step++ {
					slot := int64((r.ID+step)%ranks) * slab // aggregated by rank (ID+step)%ranks
					fill(data, r.ID, step)
					_, werr := f.WriteAtAll(slot, data)
					fill(data, r.ID, step+1000)
					serr := f.Sync()
					n, rerr := f.ReadAtAll(slot, got)
					fill(want, r.ID, step)
					if bad == nil && (werr != nil || serr != nil || rerr != nil || n != slab || !bytes.Equal(got, want)) {
						bad = fmt.Errorf("step %d rank %d: write %v, sync %v, read (%d, %v), content as written: %t",
							step, r.ID, werr, serr, n, rerr, bytes.Equal(got, want))
					}
				}
				if err := f.Close(); err != nil {
					return err
				}
				return bad
			})
			if err := mpi.FirstError(errs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// coalesce must stay cheap on what one full default write-behind buffer of
// small writes looks like: 16384 64-byte writes, back to back in one run or
// broken into 128 runs. The old pairwise subtraction took 23 s and an
// allocation per pair on the first; the sweep allocates per run.
func TestCoalesceAllocatesPerRunNotPerPair(t *testing.T) {
	const writes, size = 16384, 64
	for _, runs := range []int{1, 128} {
		list := make([]pendingWrite, writes)
		for i := range list {
			gap := int64(i / (writes / runs) * size) // a one-write hole before each run
			list[i] = pendingWrite{int64(i*size) + gap, bytes.Repeat([]byte{byte(i)}, size)}
		}
		var out []pendingWrite
		allocs := testing.AllocsPerRun(2, func() { out = coalesce(list) })
		if len(out) != runs {
			t.Fatalf("%d runs: coalesce returned %d", runs, len(out))
		}
		for k, run := range out {
			if len(run.data) != writes/runs*size || run.data[size] != byte(k*(writes/runs)+1) {
				t.Fatalf("%d runs: run %d = (%d, %d bytes, second write %d)", runs, k, run.off, len(run.data), run.data[size])
			}
		}
		if limit := float64(runs + 16); allocs > limit {
			t.Errorf("%d runs: coalesce made %.0f allocations, want at most %.0f", runs, allocs, limit)
		}
	}
}
