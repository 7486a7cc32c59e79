package main

import (
	"fmt"
	"repro/internal/blob"
	"time"

	"repro/internal/blobfs"
	"repro/internal/sparksim"
	"repro/internal/storage"
)

// spark-scan: jobs run back to back through sparksim.Engine.Run over
// blobfs. Each job lists /data/in once, reads every 1 MiB split three
// times in 256 KiB calls (a 4-chunk pooled fan per read) on C executors,
// and writes 8 part files of 64 KiB through the committer (mkdir, create,
// rename, rmdir). Between jobs the driver turns the output over: it
// removes the previous job's output directory and makes the next one, the
// flat-namespace metadata emulation a user of the object store pays. The
// input is far above L2 and writes almost nothing to the log.
const (
	sparkSplits     = 256
	sparkSplit      = 1 << 20
	sparkIOSize     = 256 << 10
	sparkPasses     = 3
	sparkOutTasks   = 8
	sparkOutBytes   = 64 << 10
	sparkSliceJobs  = 8
	sparkWarmSlices = 1
)

type spark struct {
	env *env
	fx  *fixture
	fs  [2]fileSystem
	eng [2]*sparksim.Engine
	ln  *lane
	lat *latencies
	// turnovers holds the wall of every output turnover done on the bare
	// stack, for the per-layer sparksim.turnover_p50_us.
	turnovers []int64

	splits, sliceJobs int
	jobs              int    // jobs run so far
	prevOut           string // output directory of the last job
}

func newSpark(e *env) (workload, error) {
	s := &spark{
		env:       e,
		fx:        newFixture(e.seed, e.pat, blob.Config{}),
		splits:    e.scaled(sparkSplits),
		sliceJobs: e.scaled(sparkSliceJobs),
	}
	s.fx.liveBytes = int64(s.splits)*sparkSplit + sparkOutTasks*sparkOutBytes
	s.fs[0] = blobfs.New(s.fx.st)
	if e.tr != nil {
		s.fs[1] = &tracedFS{in: blobfs.New(&tracedStore{in: s.fx.st, tr: e.tr}), tr: e.tr}
		s.ln = e.tr.newLane(1 << 16)
	}
	for i, fs := range s.fs {
		if fs != nil {
			s.eng[i] = sparksim.NewEngine(fs, s.fx.clients)
			s.eng[i].SetChunkSize(sparkIOSize)
		}
	}
	s.resetLatencies()

	ctx := storage.NewContext()
	fs := s.fs[0]
	for _, dir := range []string{"/data", "/data/in", "/data/out", "/user", "/user/spark", "/user/spark/.sparkStaging", "/spark-logs"} {
		if err := fs.Mkdir(ctx, dir); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.splits; i++ {
		h, err := fs.Create(ctx, s.splitPath(i))
		if err != nil {
			return nil, err
		}
		if _, err := h.WriteAt(ctx, 0, e.pat.bytes(uint32(i), 0, 0, sparkSplit)); err != nil {
			return nil, err
		}
		if err := h.Close(ctx); err != nil {
			return nil, err
		}
	}
	// Warm-up: one full pass (a whole slice of jobs), then the two
	// CheckpointAll.
	for i := 0; i < sparkWarmSlices; i++ {
		if _, err := s.slice(false); err != nil {
			return nil, fmt.Errorf("spark-scan warm-up: %w", err)
		}
	}
	s.fx.warm()
	s.resetLatencies()
	s.turnovers = s.turnovers[:0]
	return s, nil
}

func (s *spark) fixture() *fixture { return s.fx }

func (s *spark) resetLatencies() []*latencies {
	old := s.lat
	s.lat = newLatencies(1 << 12)
	return []*latencies{old}
}

func (s *spark) splitPath(i int) string { return fmt.Sprintf("/data/in/part-%05d", i) }

// turnover retires the previous job's output and makes the next job's
// output directory: 9 unlinks, an rmdir (a scan) and a mkdir.
func (s *spark) turnover(ctx *storage.Context, fs fileSystem, next string) error {
	if s.prevOut != "" {
		for t := 0; t < sparkOutTasks; t++ {
			if err := fs.Unlink(ctx, fmt.Sprintf("%s/part-%05d", s.prevOut, t)); err != nil {
				return err
			}
		}
		if err := fs.Unlink(ctx, s.prevOut+"/_SUCCESS"); err != nil {
			return err
		}
		if err := fs.Rmdir(ctx, s.prevOut); err != nil {
			return err
		}
	}
	return fs.Mkdir(ctx, next)
}

func (s *spark) slice(traced bool) (sliceStats, error) {
	fx := s.fx
	fs, eng := s.fs[0], s.eng[0]
	var p probe
	ctx := storage.NewContext()
	if traced {
		fs, eng = s.fs[1], s.eng[1]
		p = probe{s.env.tr, s.ln}
		s.env.tr.bind(ctx, s.ln)
	}
	var st sliceStats
	var jobWall time.Duration
	sample := make([]byte, 64)
	fx.cl.ResetStats()
	t0 := time.Now()
	for j := 0; j < s.sliceJobs; j++ {
		out := fmt.Sprintf("/data/out/j%06d", s.jobs)
		t := time.Now()
		if err := s.turnover(ctx, fs, out); err != nil {
			return st, fmt.Errorf("turnover: %w", err)
		}
		turn := time.Since(t)
		if !traced {
			s.turnovers = append(s.turnovers, int64(turn))
		}

		app := sparksim.App{
			Name:        fmt.Sprintf("scan-%06d", s.jobs),
			InputDir:    "/data/in",
			OutputDir:   out,
			OutputTasks: sparkOutTasks,
			Passes:      sparkPasses,
			OutputBytes: func(int, int64) int64 { return sparkOutBytes },
		}
		t = time.Now()
		i := p.begin(layerSparksim, "run")
		var unfork func()
		if traced {
			unfork = s.env.tr.forkHere(s.ln, i)
		}
		res, err := eng.Run(ctx, app)
		if traced {
			unfork()
		}
		if err != nil {
			return st, err
		}
		p.end(i, res.BytesRead)
		d := time.Since(t)
		s.lat.read = append(s.lat.read, int64(d))
		// The writing call is the whole job cycle, turnover included. The
		// turnover alone (eleven cache-cold metadata calls, about 130 us) is
		// not an end-to-end metric: on a shared host it slows down twice as
		// much as the scan does when a neighbour is busy, and the driver saw
		// it spread by 20 and 28 % over ten seeds where the bound is 25 %.
		s.lat.write = append(s.lat.write, int64(turn+d))
		jobWall += d
		s.jobs++
		s.prevOut = out

		// Length from the engine's own count, content from a 64-byte
		// sample of one part file (the engine fills parts with byte(i)).
		s.env.v.add(1)
		if res.BytesRead != int64(sparkPasses*s.splits)*sparkSplit || res.BytesWritten < sparkOutTasks*sparkOutBytes {
			s.env.v.fail("spark-scan: job %d read %d wrote %d bytes", s.jobs, res.BytesRead, res.BytesWritten)
		}
		if !s.partSample(ctx, fs, out, j%sparkOutTasks, sample) {
			s.env.v.fail("spark-scan: job %d part %d does not hold the committed bytes", s.jobs, j%sparkOutTasks)
		}
		st.ops += int64(res.MapTasks + res.OutputTasks)
		st.readBytes += res.BytesRead
		st.writeBytes += res.BytesWritten
	}
	st.fgWall = time.Since(t0)
	p.wall(st.fgWall)
	st.readWall, st.writeWall = jobWall, jobWall
	st.sim = ctx.Clock.Now()
	st.device(fx)
	st.maintWall, st.walGrowth = fx.checkpoint(p)
	return st, nil
}

// layerMetrics reports the driver-side output turnover on its own.
func (s *spark) layerMetrics(out map[string]float64, _ int) {
	out["sparksim.turnover_p50_us"] = quantile(s.turnovers, 0.5) / 1e3
}

func (s *spark) partSample(ctx *storage.Context, fs fileSystem, dir string, task int, buf []byte) bool {
	h, err := fs.Open(ctx, fmt.Sprintf("%s/part-%05d", dir, task))
	if err != nil {
		return false
	}
	off := int64(task) * 1000
	n, err := h.ReadAt(ctx, off, buf)
	if cerr := h.Close(ctx); err != nil || cerr != nil || n != len(buf) {
		return false
	}
	for i, b := range buf {
		if b != byte(off+int64(i)) {
			return false
		}
	}
	return true
}

// epilogue checks every byte of every input split and of the last job's
// part files.
func (s *spark) epilogue() error {
	ctx := storage.NewContext()
	fs := s.fs[0]
	buf := make([]byte, sparkSplit)
	for i := 0; i < s.splits; i++ {
		h, err := fs.Open(ctx, s.splitPath(i))
		if err != nil {
			return err
		}
		n, err := h.ReadAt(ctx, 0, buf)
		if err != nil {
			return err
		}
		s.env.v.add(1)
		if n != sparkSplit || !s.env.pat.full(uint32(i), 0, 0, buf) {
			s.env.v.fail("spark-scan: split %d changed", i)
		}
		if err := h.Close(ctx); err != nil {
			return err
		}
	}
	for t := 0; t < sparkOutTasks; t++ {
		h, err := fs.Open(ctx, fmt.Sprintf("%s/part-%05d", s.prevOut, t))
		if err != nil {
			return err
		}
		n, err := h.ReadAt(ctx, 0, buf)
		if err != nil {
			return err
		}
		s.env.v.add(1)
		ok := n == sparkOutBytes
		for i := 0; ok && i < n; i++ {
			ok = buf[i] == byte(i)
		}
		if !ok {
			s.env.v.fail("spark-scan: part %d of %s does not hold the committed bytes", t, s.prevOut)
		}
		if err := h.Close(ctx); err != nil {
			return err
		}
	}
	return nil
}
