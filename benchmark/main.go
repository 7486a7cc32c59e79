// Command benchmark is the repository's end-to-end benchmark: four
// workloads over the converged blob store, ten user-facing metrics per
// workload, and a per-layer reading taken from outside the program under
// test. BENCHMARK.json at the repository root declares the workloads and
// metrics; README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload s3-smallobj --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh                      # every workload, both modes
//	bash benchmark/run.sh -repeat 2 -check     # do two sets agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// commit is stamped by run.sh (-ldflags -X).
var commit = "unknown"

// env is what a workload is built from.
type env struct {
	seed  uint64
	scale float64
	pat   *pattern
	tr    *tracer // nil unless this is a traced run
	v     *verdict
}

// scaled applies -scale to a fixed work count.
func (e *env) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*e.scale)))
}

// workload is one traffic shape. A value is built by its constructor,
// which is the set-up: fixture, preload and warm-up.
type workload interface {
	fixture() *fixture
	// slice runs one fixed-work slice, parked maintenance included,
	// through the bare or the traced stack.
	slice(traced bool) (sliceStats, error)
	// resetLatencies hands over the per-op wall times recorded so far.
	resetLatencies() []*latencies
	// epilogue checks every byte the workload left behind, untimed.
	epilogue() error
}

type workloadDef struct {
	name  string
	build func(*env) (workload, error)
	// shape is the size of the blob reads and writes the workload issues;
	// the dispatch probe repeats it on a twin store.
	shape ioShape
	why   string
}

var workloads = []workloadDef{
	{"hpc-ckpt", newHPC, ioShape{hpcSlab, hpcSlab}, "write-dominated HPC checkpoint/restart through mpiio: 1 MiB multi-chunk 2PC writes, so byte work, log append, checkpoint compaction and aggregation buffers dominate"},
	{"spark-scan", newSpark, ioShape{sparkIOSize, sparkOutBytes}, "read-dominated scan jobs through sparksim over blobfs: 4-chunk pooled reads plus flat-namespace metadata emulation, almost no log traffic, so a log optimisation must show nothing"},
	{"s3-smallobj", newS3, ioShape{4 << 10, 4 << 10}, "small point ops through the S3 gateway, all within one chunk: per-op overhead with the fan-out dispatcher bypassed and memmove negligible"},
	{"fault-drill", newFault, ioShape{faultExtent, faultExtent}, "node down, rejoin drain, crash recovery and membership change under checked reads: the only place repair, resync, recovery decode and migration do the work"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	traceOut string
	repeat   int
	check    bool
	// oneSetup is for tests: an untraced run on a single fixture.
	oneSetup bool
}

// setups is how many fixtures an untraced run sets up and measures on, each
// a fresh cluster, store, preload and warm-up; setup_s is the median set-up.
const setups = 3

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process; empty runs every workload, each in its own process")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated op script and of the simulated cluster")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the measured phase runs; it ends with the slice that crosses this")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from the bare stack; 1: per-layer metrics from a traced run")
	flag.Float64Var(&o.scale, "scale", 1, "scales data-set sizes and per-slice op counts (tests use 0.01)")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans to this file as JSON lines")
	flag.IntVar(&o.repeat, "repeat", 1, "without -workload: how many sets of all workloads to run")
	flag.BoolVar(&o.check, "check", false, "with -repeat: fail if any end-to-end metric's sets disagree by more than its bound")
	declare := flag.Bool("declare", false, "print the BENCHMARK.json this program implements and exit")
	flag.Parse()

	if *declare {
		if err := writeDeclaration(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if o.workload == "" {
		os.Exit(runSets(o))
	}
	def := findWorkload(o.workload)
	if def == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := runWorkload(def, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload is one process's work: set-up, measured phase, epilogue.
func runWorkload(def *workloadDef, o options) (*result, error) {
	prov := provenance(o)
	printProvenance(prov)
	steal0, total0 := cpuJiffies()

	e := &env{seed: o.seed, scale: o.scale, pat: newPattern(o.seed), v: &verdict{}}
	if o.trace != 0 {
		e.tr = newTracer()
	}

	// An untraced run sets up several times, each time a fresh cluster,
	// store, preload and warm-up, and spends an equal share of the measured
	// time on each fixture: setup_s is the median set-up, and every other
	// metric pools the slices of all fixtures, so one fixture's luck with
	// memory placement does not set the level of the whole run.
	values := map[string]float64{}
	var w workload
	build := func() (time.Duration, error) {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = def.build(e); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return time.Since(t0), nil
	}
	if o.trace == 0 {
		n := setups
		if o.oneSetup {
			n = 1
		}
		var setupWalls []float64
		all := &measured{}
		for i := 0; i < n; i++ {
			if i > 0 {
				if err := w.epilogue(); err != nil {
					return nil, fmt.Errorf("epilogue: %w", err)
				}
			}
			d, err := build()
			if err != nil {
				return nil, err
			}
			setupWalls = append(setupWalls, d.Seconds())
			m, _, err := measure(w, o.seconds/float64(n), false)
			if err != nil {
				return nil, err
			}
			all.slices = append(all.slices, m.slices...)
			all.lat = append(all.lat, m.lat...)
		}
		fmt.Printf("# set-up x%d: median %.3f s (spread %.0f%%)\n", n, medianF(setupWalls), 100*spread(setupWalls))
		all.endToEnd(values)
		values["setup_s"] = medianF(setupWalls)
	} else {
		if _, err := build(); err != nil {
			return nil, err
		}
		bare, traced, err := measure(w, o.seconds, true)
		if err != nil {
			return nil, err
		}
		rep := e.tr.report()
		perLayer(values, w, bare, traced, rep)
		if err := probes(values, def.shape, e); err != nil {
			return nil, err
		}
		derived(values)
		if o.traceOut != "" {
			if err := e.tr.writeTrace(o.traceOut, prov); err != nil {
				return nil, fmt.Errorf("trace-out: %w", err)
			}
			fmt.Printf("# wrote %d spans to %s\n", rep.spans, o.traceOut)
		}
	}

	if err := w.epilogue(); err != nil {
		return nil, fmt.Errorf("epilogue: %w", err)
	}
	if o.trace != 0 {
		if lw, ok := w.(liveMigrator); ok {
			if err := lw.liveMigration(values); err != nil {
				return nil, fmt.Errorf("live migration: %w", err)
			}
		}
	}
	values["peak_rss_mb"] = peakRSSMB()
	// A wall-clock number of a run the hypervisor took CPU time from says
	// little about the program: with half the time stolen from each of two
	// vCPUs, hpc-ckpt's barrier-coupled ranks run at a quarter of their speed.
	if steal1, total1 := cpuJiffies(); total1 > total0 {
		values["host.steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	fmt.Printf("# steal: the hypervisor kept %.1f%% of this host's CPU time during the run\n", 100*values["host.steal_share"])
	values["bench.failed_share"] = ratio(e.v.failed, e.v.attempted)

	res := &result{
		Correct:   e.v.failed == 0,
		Attempted: max(e.v.attempted, 1),
		Failed:    e.v.failed,
		Metrics:   map[string]metricValue{},
	}
	if e.v.first != "" {
		fmt.Printf("# first failure: %s\n", e.v.first)
	}
	for _, m := range declaredMetrics(o.trace) {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	printMetrics(res, o.trace)
	return res, nil
}

// measured is what a measured phase yields.
type measured struct {
	slices []sliceStats
	lat    []*latencies
	// The runtime.MemStats deltas over the slices.
	mallocs, allocBytes uint64
	gcPause             time.Duration
}

// measure runs whole slices until seconds have passed, at least three of
// a kind. An untraced run's slices are all bare. A traced run alternates:
// even slices on the bare stack (process counters, virtual-device counters,
// and the per-op wall the tracing overhead is taken against), odd slices on
// the traced stack, so that the host's drift hits both alike.
func measure(w workload, seconds float64, alternate bool) (bare, traced *measured, err error) {
	w.resetLatencies()
	runtime.GC()
	bare, traced = &measured{}, &measured{}
	var before, after runtime.MemStats
	t0 := time.Now()
	for n := 0; len(bare.slices) < 3 || (alternate && len(traced.slices) < 3) || time.Since(t0).Seconds() < seconds; n++ {
		m := bare
		if alternate && n%2 == 1 {
			m = traced
		}
		runtime.ReadMemStats(&before)
		st, err := w.slice(m == traced)
		if err != nil {
			return nil, nil, fmt.Errorf("slice %d: %w", n, err)
		}
		runtime.ReadMemStats(&after)
		m.slices = append(m.slices, st)
		m.mallocs += after.Mallocs - before.Mallocs
		m.allocBytes += after.TotalAlloc - before.TotalAlloc
		m.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		if alternate {
			m.lat = append(m.lat, w.resetLatencies()...)
		}
	}
	if !alternate {
		bare.lat = w.resetLatencies()
	}
	return bare, traced, nil
}

// perSlice maps each slice to a figure and returns the median slice,
// printing the spread beside it.
func (m *measured) perSlice(name string, fn func(s *sliceStats) float64) float64 {
	med, _ := m.sliceFigures(name, fn)
	return med
}

// sliceFigures maps each slice to a figure, prints them all, and returns
// their median and their mean.
func (m *measured) sliceFigures(name string, fn func(s *sliceStats) float64) (median, mean float64) {
	v := make([]float64, len(m.slices))
	for i := range m.slices {
		v[i] = fn(&m.slices[i])
		mean += v[i] / float64(len(v))
	}
	median = medianF(v)
	fmt.Printf("# %-14s median of %d slices %.6g, mean %.6g (spread %.1f%%) %.4g\n", name, len(v), median, mean, 100*spread(v), v)
	return median, mean
}

func perSec(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// endToEnd computes the end-to-end metrics of an untraced measured phase.
func (m *measured) endToEnd(out map[string]float64) {
	out["write_mbps"] = m.perSlice("write_mbps", func(s *sliceStats) float64 { return perSec(s.writeBytes, s.writeWall) / 1e6 })
	out["read_mbps"] = m.perSlice("read_mbps", func(s *sliceStats) float64 { return perSec(s.readBytes, s.readWall) / 1e6 })
	out["ops_per_s"] = m.perSlice("ops_per_s", func(s *sliceStats) float64 { return perSec(s.ops, s.fgWall) })
	// The mean slice, not the median: a parked CheckpointAll takes one of
	// two walls (0.16 s or 0.23 s on s3-smallobj, in no order), and the
	// median of such a sample jumps between the two from run to run.
	_, out["maint_s"] = m.sliceFigures("maint_s", func(s *sliceStats) float64 { return s.maintWall.Seconds() })
	out["sim_s"] = m.perSlice("sim_s", func(s *sliceStats) float64 { return s.sim.Seconds() })
	out["write_amp"] = m.perSlice("write_amp", func(s *sliceStats) float64 { return ratio(s.walGrowth, s.writeBytes) })
	read, write, _ := mergeLatencies(m.lat)
	out["read_p50_us"] = quantile(read, 0.5) / 1e3
	out["write_p50_us"] = quantile(write, 0.5) / 1e3
	fmt.Printf("# latency samples: %d reads, %d writes\n", len(read), len(write))
}
