package main

import (
	"fmt"
	"repro/internal/blob"
	"time"

	"repro/internal/blobfs"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/storage"
)

// hpc-ckpt: C ranks checkpoint into one shared file through mpiio over
// blobfs, one 1 MiB slab per rank per step (16 chunks: multi-chunk 2PC, a
// 16-task fan, batched AppendNV), Sync after every step; the file holds
// hpcFileSteps steps and wraps, so the measured phase overwrites in steady
// state. A parked CheckpointAll follows, then a restart phase reads the
// file back hpcPasses times with ReadAtAll.
const (
	hpcPath      = "/ckpt.dat"
	hpcSlab      = 1 << 20
	hpcFileSteps = 64
	// hpcSliceSteps makes one slice 128 MiB of user writes per rank, so
	// the log is compacted every 256 MiB at C = 2.
	hpcSliceSteps = 128
	hpcPasses     = 8
	hpcWarmSlices = 2
)

type hpc struct {
	env   *env
	fx    *fixture
	fs    [2]fileSystem // bare, traced
	lanes []*lane
	lat   []*latencies

	fileSteps, sliceSteps, passes int
	// done counts completed steps; last[slot] is the step that last wrote
	// the slot, which is also the version of its slabs.
	done uint32
	last []uint32
	bufs [][]byte
}

func newHPC(e *env) (workload, error) {
	h := &hpc{
		env:        e,
		fx:         newFixture(e.seed, e.pat, blob.Config{}),
		fileSteps:  max(2, e.scaled(hpcFileSteps)),
		sliceSteps: e.scaled(hpcSliceSteps),
		passes:     e.scaled(hpcPasses),
	}
	h.last = make([]uint32, h.fileSteps)
	h.fx.liveBytes = int64(h.fileSteps*h.fx.clients) * hpcSlab
	h.fs[0] = blobfs.New(h.fx.st)
	if e.tr != nil {
		h.fs[1] = &tracedFS{in: blobfs.New(&tracedStore{in: h.fx.st, tr: e.tr}), tr: e.tr}
	}
	for c := 0; c < h.fx.clients; c++ {
		h.bufs = append(h.bufs, make([]byte, hpcSlab))
		if e.tr != nil {
			h.lanes = append(h.lanes, e.tr.newLane(1<<16))
		}
	}
	h.resetLatencies()
	// Warm-up: one full pass creates the file, the two CheckpointAll
	// follow, then whole slices run until the Go heap has grown to the
	// size it cycles in (twice the live chunks, snapshot and log growth):
	// until then every slice page-faults fresh memory.
	if _, err := h.run(h.fileSteps, 0, true, false); err != nil {
		return nil, fmt.Errorf("hpc-ckpt warm-up: %w", err)
	}
	h.fx.warm()
	for i := 0; i < hpcWarmSlices; i++ {
		if _, err := h.slice(false); err != nil {
			return nil, fmt.Errorf("hpc-ckpt warm-up: %w", err)
		}
	}
	h.resetLatencies()
	return h, nil
}

func (h *hpc) fixture() *fixture { return h.fx }

func (h *hpc) resetLatencies() []*latencies {
	old := h.lat
	h.lat = nil
	for c := 0; c < h.fx.clients; c++ {
		h.lat = append(h.lat, newLatencies(1<<14))
	}
	return old
}

func (h *hpc) slabOff(step uint32, rank int) int64 {
	slot := int(step) % h.fileSteps
	return int64(slot*h.fx.clients+rank) * hpcSlab
}

func (h *hpc) slice(traced bool) (sliceStats, error) {
	return h.run(h.sliceSteps, h.passes, false, traced)
}

// run is one checkpoint phase of steps steps, the parked CheckpointAll
// (skipped in warm-up, which has its own), and a restart phase of passes
// passes, all under one mpi.Run.
func (h *hpc) run(steps, passes int, create, traced bool) (sliceStats, error) {
	fx := h.fx
	fs := h.fs[0]
	if traced {
		fs = h.fs[1]
	}
	var st sliceStats
	var ckptWall time.Duration
	clocks := make([]time.Duration, fx.clients)
	fx.cl.ResetStats()
	errs := mpi.Run(fx.clients, fx.cl.Cost(), func(r *mpi.Rank) error {
		var p probe
		if traced {
			p = probe{h.env.tr, h.lanes[r.ID]}
			h.env.tr.bind(r.Ctx, p.ln)
		}
		lat := h.lat[r.ID]
		f, err := mpiio.Open(r, fs, hpcPath, create, mpiio.Options{})
		if err != nil {
			return err
		}
		key := uint32(r.ID)
		r.Barrier()
		t0 := time.Now()
		for s := 0; s < steps; s++ {
			g := h.done + uint32(s)
			data := fx.pat.bytes(key, g, 0, hpcSlab)
			t := time.Now()
			i := p.begin(layerMPIIO, "write_at_all")
			n, err := f.WriteAtAll(h.slabOff(g, r.ID), data)
			p.end(i, int64(n))
			if err != nil {
				return err
			}
			i = p.begin(layerMPIIO, "sync")
			err = f.Sync()
			p.end(i, 0)
			if err != nil {
				return err
			}
			lat.write = append(lat.write, int64(time.Since(t)))
			if n != hpcSlab {
				h.env.v.fail("hpc-ckpt: step %d rank %d wrote %d bytes", g, r.ID, n)
			}
		}
		r.Barrier()
		p.wall(time.Since(t0))
		if r.ID == 0 {
			ckptWall = time.Since(t0)
			for s := 0; s < steps; s++ {
				h.last[int(h.done)%h.fileSteps] = h.done
				h.done++
			}
			if !create {
				st.maintWall, st.walGrowth = fx.checkpoint(p)
			}
		}
		r.Barrier()
		t1 := time.Now()
		buf := h.bufs[r.ID]
		for pass := 0; pass < passes; pass++ {
			for slot := 0; slot < h.fileSteps; slot++ {
				g := h.last[slot]
				t := time.Now()
				i := p.begin(layerMPIIO, "read_at_all")
				n, err := f.ReadAtAll(h.slabOff(g, r.ID), buf)
				p.end(i, int64(n))
				lat.read = append(lat.read, int64(time.Since(t)))
				if err != nil {
					return err
				}
				if !fx.pat.sample(key, g, 0, buf[:n], hpcSlab) {
					h.env.v.fail("hpc-ckpt: restart read of slot %d rank %d does not match step %d", slot, r.ID, g)
				}
			}
		}
		r.Barrier()
		p.wall(time.Since(t1))
		if r.ID == 0 {
			st.readWall = time.Since(t1)
		}
		clocks[r.ID] = r.Ctx.Clock.Now()
		return f.Close()
	})
	if err := mpi.FirstError(errs); err != nil {
		return st, err
	}
	c := int64(fx.clients)
	st.fgWall = ckptWall + st.readWall
	st.writeWall = ckptWall + st.maintWall
	st.writeBytes = c * int64(steps) * hpcSlab
	st.readBytes = c * int64(passes*h.fileSteps) * hpcSlab
	st.ops = c * int64(steps+passes*h.fileSteps)
	for _, clk := range clocks {
		st.sim = max(st.sim, clk)
	}
	st.device(fx)
	h.env.v.add(st.ops)
	return st, nil
}

// epilogue reads every slab back through a fresh blobfs handle and checks
// all of its bytes.
func (h *hpc) epilogue() error {
	ctx := storage.NewContext()
	f, err := h.fs[0].Open(ctx, hpcPath)
	if err != nil {
		return err
	}
	buf := make([]byte, hpcSlab)
	for slot := 0; slot < h.fileSteps; slot++ {
		g := h.last[slot]
		for rank := 0; rank < h.fx.clients; rank++ {
			n, err := f.ReadAt(ctx, h.slabOff(g, rank), buf)
			if err != nil {
				return err
			}
			h.env.v.add(1)
			if n != hpcSlab || !h.fx.pat.full(uint32(rank), g, 0, buf) {
				h.env.v.fail("hpc-ckpt: slab of slot %d rank %d does not hold step %d", slot, rank, g)
			}
		}
	}
	return f.Close(ctx)
}
