package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/storage"
)

// smallOptions is every workload's test sizing: a hundredth of the data
// and of the per-slice work, three short slices, verification on.
func smallOptions(workload string, seed uint64, trace int) options {
	return options{workload: workload, seed: seed, seconds: 0.01, trace: trace, scale: 0.01, oneSetup: true}
}

// TestWorkloadsRunClean runs every workload at -scale 0.01, untraced on
// two seeds and traced on the first: the outputs verify, nothing fails, and
// the metrics emitted are exactly the ones declared. It asserts no timing.
func TestWorkloadsRunClean(t *testing.T) {
	for _, def := range workloads {
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []int{0, 1} {
				if trace == 1 && seed != 1 {
					continue
				}
				def := def
				t.Run(fmt.Sprintf("%s/seed%d/trace%d", def.name, seed, trace), func(t *testing.T) {
					res, err := runWorkload(&def, smallOptions(def.name, seed, trace))
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
					}
					want := map[string]string{}
					for _, m := range declaredMetrics(trace) {
						want[m.name] = m.unit
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(want))
					}
					for name, unit := range want {
						got, ok := res.Metrics[name]
						if !ok {
							t.Errorf("declared metric %s not emitted", name)
						} else if got.Unit != unit {
							t.Errorf("metric %s emitted in %q, declared in %q", name, got.Unit, unit)
						}
					}
					if trace == 0 {
						for _, m := range endToEndMetrics {
							if res.Metrics[m.name].Value <= 0 {
								t.Errorf("end-to-end metric %s is %v on %s; it must never be 0", m.name, res.Metrics[m.name].Value, def.name)
							}
						}
					}
				})
			}
		}
	}
}

// TestRefusedWritesArePredicted pins fault-drill's declared refused-write
// share: the writes the store refuses while a node is down are exactly the
// ones whose descriptor primary the twin ring places on that node.
func TestRefusedWritesArePredicted(t *testing.T) {
	e := &env{seed: 3, scale: 0.05, pat: newPattern(3), v: &verdict{}}
	w, err := newFault(e)
	if err != nil {
		t.Fatal(err)
	}
	f := w.(*fault)
	for round := 0; round < fixtureNodes; round++ {
		if _, err := f.slice(false); err != nil {
			t.Fatal(err)
		}
	}
	if e.v.failed != 0 {
		t.Fatalf("%d failures, first: %s", e.v.failed, e.v.first)
	}
	if got, want := f.refused.Load(), f.predicted.Load(); got != want || got == 0 {
		t.Fatalf("store refused %d writes, twin ring predicted %d (want equal and non-zero)", got, want)
	}
}

// TestDeclarationMatchesBenchmarkJSON is the drift test: BENCHMARK.json at
// the repository root is, byte for byte, what -declare prints from the
// tables in metrics.go; every name and unit there is well formed; every
// per-layer metric names a layer and at least one (end-to-end metric,
// workload) pair it should move.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeDeclaration(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json is not what the program declares; regenerate it with: bash benchmark/run.sh -declare > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloads {
		if !name.MatchString(w.name) || w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	endToEnd := map[string]bool{}
	for _, m := range endToEndMetrics {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") ||
			m.bound <= 0 || m.bound > 0.25 || m.meaning == "" || endToEnd[m.name] {
			t.Errorf("end-to-end metric %q: bad or repeated name, unit, direction, bound or meaning", m.name)
		}
		endToEnd[m.name] = true
	}
	if !endToEnd["setup_s"] {
		t.Error("setup_s is not declared")
	}
	layers := map[string]bool{"mpiio": true, "blobfs": true, "sparksim": true, "s3gw": true, "proc": true, "blob": true,
		"dispatch": true, "wal": true, "chash": true, "cluster": true, "sim": true, "host": true, "bench": true}
	seen := map[string]bool{}
	for _, m := range perLayerMetrics {
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("per-layer metric %q: bad name, unit or direction", m.name)
		}
		if seen[m.name] || endToEnd[m.name] {
			t.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
		if !layers[m.layer] {
			t.Errorf("per-layer metric %q names no known layer (%q)", m.name, m.layer)
		}
		moves := strings.Fields(m.moves)
		if len(moves) == 0 {
			t.Errorf("per-layer metric %q says nothing about what it should move", m.name)
		}
		for _, mv := range moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !endToEnd[metric] || findWorkload(workload) == nil {
				t.Errorf("per-layer metric %q: %q is not an (end-to-end metric)@(workload) pair", m.name, mv)
			}
		}
	}
}

// stackScript is one seeded single-client script over the whole front-end
// stack: blobfs metadata and data calls, a rename, and an mpiio collective
// write. It returns a digest of every result it saw, the client's virtual
// clock and the bytes logged.
func stackScript(t *testing.T, fx *fixture, fs fileSystem) (digest string, sim int64, logged int64) {
	t.Helper()
	h := sha256.New()
	ctx := storage.NewContext()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(fs.Mkdir(ctx, "/d"))
	f, err := fs.Create(ctx, "/d/a")
	check(err)
	for i := 0; i < 6; i++ {
		n := 1000 + int(mix(uint32(i), 7)%200000)
		off := int64(mix(uint32(i), 9) % 300000)
		_, err := f.WriteAt(ctx, off, fx.pat.bytes(uint32(i), 1, 0, n))
		check(err)
	}
	check(f.Sync(ctx))
	check(f.Close(ctx))
	check(fs.Rename(ctx, "/d/a", "/d/b"))
	ents, err := fs.ReadDir(ctx, "/d")
	check(err)
	fmt.Fprint(h, ents)
	fi, err := fs.Stat(ctx, "/d/b")
	check(err)
	fmt.Fprint(h, fi)
	g, err := fs.Open(ctx, "/d/b")
	check(err)
	buf := make([]byte, 1<<20)
	n, err := g.ReadAt(ctx, 0, buf)
	check(err)
	h.Write(buf[:n])
	check(g.Close(ctx))
	check(fs.Truncate(ctx, "/d/b", 70000))

	// One collective write on a single-rank communicator sharing ctx, so
	// its cost lands on the same clock.
	r := mpi.Self(ctx, fx.cl.Cost())
	mf, err := mpiio.Open(r, fs, "/d/c", true, mpiio.Options{})
	check(err)
	_, err = mf.WriteAtAll(12345, fx.pat.bytes(3, 3, 0, 300000))
	check(err)
	check(mf.Close())
	fi, err = fs.Stat(ctx, "/d/c")
	check(err)
	fmt.Fprint(h, fi)
	check(fs.Unlink(ctx, "/d/b"))
	return fmt.Sprintf("%x", h.Sum(nil)), int64(ctx.Clock.Now()), fx.walBytes()
}

// TestWrappersAreTransparent runs the same script through the bare and the
// wrapped stack: byte-identical results, identical virtual time, identical
// log volume — and the optional interfaces still reach blob.Store, so
// blobfs.Rename takes the RenameBlob fast path instead of silently
// copying, and mpiio still sees the chunk size.
func TestWrappersAreTransparent(t *testing.T) {
	pat := newPattern(5)
	bare := newFixture(5, pat, blob.Config{})
	d0, sim0, wal0 := stackScript(t, bare, blobfs.New(bare.st))

	wrapped := newFixture(5, pat, blob.Config{})
	tr := newTracer()
	ts := &tracedStore{in: wrapped.st, tr: tr}
	tfs := &tracedFS{in: blobfs.New(ts), tr: tr}
	d1, sim1, wal1 := stackScript(t, wrapped, tfs)

	if d0 != d1 {
		t.Errorf("results differ through the wrappers: %s vs %s", d0, d1)
	}
	if sim0 != sim1 {
		t.Errorf("virtual time differs through the wrappers: %d vs %d ns", sim0, sim1)
	}
	if wal0 != wal1 {
		t.Errorf("log volume differs through the wrappers: %d vs %d bytes", wal0, wal1)
	}
	if ts.ChunkSize() != chunkSize || tfs.ChunkSize() != chunkSize {
		t.Errorf("chunk size not forwarded: store %d, fs %d", ts.ChunkSize(), tfs.ChunkSize())
	}

	// Under the blobfs rename span: one blob rename, no copy loop.
	under := map[string]int{}
	renames := 0
	for _, ln := range tr.lanes {
		for _, s := range ln.spans {
			if s.layer == layerBlobfs && s.name == "rename" {
				renames++
			}
			if s.parent >= 0 && ln.spans[s.parent].layer == layerBlobfs && ln.spans[s.parent].name == "rename" {
				under[s.name]++
			}
		}
	}
	if renames != 1 || under["rename"] != 1 || under["read"] != 0 || under["write"] != 0 || under["create"] != 0 {
		t.Errorf("blobfs.Rename did not take the RenameBlob fast path through the wrapper: %d renames, blob calls under them %v", renames, under)
	}
}

// TestSelfTime pins the span arithmetic: a layer's self time is its span
// minus what its children cover, children of one lane add up, children on
// forked lanes overlap and count as a union.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	ln := tr.newLane(8)
	ln.wall = 110
	// job [0,100) with a same-lane child [10,30), itself holding [15,20).
	ln.spans = append(ln.spans,
		span{parent: -1, layer: layerSparksim, name: "run", start: 0, end: 100},
		span{parent: 0, layer: layerBlobfs, name: "mkdir", start: 10, end: 30},
		span{parent: 1, layer: layerBlob, name: "create", start: 15, end: 20})
	// Two executors forked under the job, overlapping on [50,60).
	for _, iv := range []interval{{40, 60}, {50, 90}} {
		ex := tr.newLane(4)
		ex.up, ex.upIdx = ln, 0
		ex.spans = append(ex.spans, span{parent: -1, layer: layerBlobfs, name: "pread", start: iv.lo, end: iv.hi})
	}
	rep := tr.report()
	// job: 100 - (20 + union[40,90) = 50) = 30; blobfs: (20-5) + 20 + 40 = 75; blob: 5.
	if rep.self[layerSparksim] != 30 || rep.self[layerBlobfs] != 75 || rep.self[layerBlob] != 5 {
		t.Errorf("self times: sparksim %d blobfs %d blob %d, want 30 75 5", rep.self[layerSparksim], rep.self[layerBlobfs], rep.self[layerBlob])
	}
	if rep.under[layerBlobfs][layerSparksim] != 3 || rep.under[layerBlob][layerBlobfs] != 1 {
		t.Errorf("parent counts: %v", rep.under)
	}
	if got := rep.coverage; got < 0.909 || got > 0.91 {
		t.Errorf("coverage %v, want 100/110", got)
	}
}

// TestPatternTellsVersionsApart: the in-timer sample and the full check
// both reject the previous version of an extent.
func TestPatternTellsVersionsApart(t *testing.T) {
	p := newPattern(1)
	for seq := uint32(1); seq < 200; seq++ {
		stale := p.bytes(9, seq-1, 0, 4096)
		if p.sample(9, seq, 0, stale, 4096) || p.full(9, seq, 0, stale) {
			t.Fatalf("version %d accepted as version %d", seq-1, seq)
		}
		if fresh := p.bytes(9, seq, 0, 4096); !p.sample(9, seq, 0, fresh, 4096) || !p.full(9, seq, 0, fresh) {
			t.Fatalf("version %d rejected", seq)
		}
	}
}
