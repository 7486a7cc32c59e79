// Package repro's benchmark suite: one benchmark per table and figure of
// the paper (delegating to internal/bench), plus ablation benchmarks for
// the design choices called out in DESIGN.md §5. Custom "v*/op" metrics
// report virtual (simulated-cluster) time; the built-in ns/op is host time.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/fs/posixfs"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchCfg balances fidelity and wall time for `go test -bench=.`: volumes
// at 1:8192 of the paper's, I/O unit scaled along with them.
func benchCfg() workloads.Config {
	return workloads.Config{Factor: 8192, Chunk: 1024, Ranks: 8, Executors: 4}
}

// --- Per-table / per-figure benchmarks. ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableI(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Matches() {
			b.Fatalf("Table I profiles diverge:\n%s", res.Render())
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bars) != 5 {
			b.Fatal("wrong bar count")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, bar := range res.Bars {
			if share := bar.Percent[0] + bar.Percent[1]; share < 98 {
				b.Fatalf("%s file share %.2f%% < 98%%", bar.App, share)
			}
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.MatchesPaper() {
			b.Fatalf("census diverges:\n%s", res.Render())
		}
	}
}

func BenchmarkMappingCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMapping(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllRunAndMostlyDirect() {
			b.Fatalf("mapping claim fails:\n%s", res.Render())
		}
	}
}

func BenchmarkFlatVsHierarchicalMetadata(b *testing.B) {
	var last *bench.FutureWorkResult
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFutureWork(bench.FutureWorkOptions{
			Files:   100,
			Depths:  []int{1, 2, 4, 8},
			Writers: []int{1}, BlocksPerWriter: 1, BlockSize: 1,
			ListFiles: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.Metadata) > 0 {
		b.ReportMetric(last.Metadata[len(last.Metadata)-1].Speedup, "speedup@depth8")
	}
}

func BenchmarkFlatVsHierarchicalSharedWrite(b *testing.B) {
	var last *bench.FutureWorkResult
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFutureWork(bench.FutureWorkOptions{
			Files: 4, Depths: []int{1},
			Writers:         []int{1, 2, 4, 8},
			BlocksPerWriter: 256,
			BlockSize:       4 << 10,
			ListFiles:       16,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.SharedWrite) > 0 {
		b.ReportMetric(last.SharedWrite[len(last.SharedWrite)-1].Speedup, "speedup@8writers")
	}
}

// --- Ablation 1 (DESIGN.md §5): path-resolution cost vs directory depth. ---

func BenchmarkAblationPathDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			fs := posixfs.NewStrict(cluster.New(cluster.Config{Nodes: 9, Seed: 1}))
			ctx := storage.NewContext()
			dir := ""
			for i := 0; i < depth; i++ {
				dir += fmt.Sprintf("/d%d", i)
				if err := fs.Mkdir(ctx, dir); err != nil {
					b.Fatal(err)
				}
			}
			h, err := fs.Create(ctx, dir+"/leaf")
			if err != nil {
				b.Fatal(err)
			}
			h.Close(ctx)
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Stat(ctx, dir+"/leaf"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 2: strict POSIX locking vs relaxed semantics. ---

func BenchmarkAblationConsistency(b *testing.B) {
	for _, mode := range []struct {
		name string
		lock bool
	}{{"strict-locks", true}, {"relaxed", false}} {
		b.Run(mode.name, func(b *testing.B) {
			fs := posixfs.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				posixfs.Config{LockAcquisition: mode.lock})
			ctx := storage.NewContext()
			h, err := fs.Create(ctx, "/f")
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close(ctx)
			block := make([]byte, 4096)
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.WriteAt(ctx, int64(i%256)*4096, block); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 3: replication factor vs write cost. ---

func BenchmarkAblationReplication(b *testing.B) {
	for _, rep := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rep-%d", rep), func(b *testing.B) {
			store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: 1 << 20, Replication: rep})
			ctx := storage.NewContext()
			if err := store.CreateBlob(ctx, "k"); err != nil {
				b.Fatal(err)
			}
			block := make([]byte, 64<<10)
			start := ctx.Clock.Now()
			b.SetBytes(int64(len(block)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.WriteBlob(ctx, "k", int64(i%64)<<16, block); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 4: chunk size vs large-transfer cost. ---

func BenchmarkAblationChunkSize(b *testing.B) {
	const transfer = 4 << 20
	for _, cs := range []int{256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("chunk-%dKiB", cs>>10), func(b *testing.B) {
			store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: cs, Replication: 1})
			ctx := storage.NewContext()
			if err := store.CreateBlob(ctx, "big"); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, transfer)
			start := ctx.Clock.Now()
			b.SetBytes(transfer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.WriteBlob(ctx, "big", 0, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Ablation 5: collective (two-phase) vs independent MPI-IO writes.
// Each rank owns a rank-strided set of small blocks; independent mode
// issues them one by one, collective mode hands them to WriteAtAllv, which
// re-partitions the union so each rank performs ONE contiguous write. ---

func BenchmarkAblationCollective(b *testing.B) {
	const ranks = 8
	const blockSize = 4096
	const blocksPerRank = 16
	for _, mode := range []string{"independent", "collective"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				census := trace.NewCensus()
				fs := trace.Wrap(posixfs.NewStrict(cluster.New(cluster.Config{Nodes: 9, Seed: 1})), census)
				errs := mpi.Run(ranks, sim.DefaultCostModel(), func(r *mpi.Rank) error {
					f, err := mpiio.Open(r, fs, "/out", true, mpiio.Options{BufferSize: 1})
					if err != nil {
						return err
					}
					defer f.Close()
					block := make([]byte, blockSize)
					if mode == "collective" {
						pieces := make([]mpiio.Piece, blocksPerRank)
						for j := 0; j < blocksPerRank; j++ {
							pieces[j] = mpiio.Piece{
								Off:  int64(j*ranks+r.ID) * blockSize,
								Data: block,
							}
						}
						if _, err := f.WriteAtAllv(pieces); err != nil {
							return err
						}
					} else {
						for j := 0; j < blocksPerRank; j++ {
							off := int64(j*ranks+r.ID) * blockSize
							if _, err := f.WriteAt(off, block); err != nil {
								return err
							}
						}
					}
					return f.Sync()
				})
				if err := mpi.FirstError(errs); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(census.OpCount(storage.OpWrite)), "storage-writes")
				}
			}
		})
	}
}

// --- Ablation 6: native directories vs scan-emulated directories. ---

func BenchmarkAblationScanEmulation(b *testing.B) {
	const files = 128
	const decoys = 1024 // the rest of the namespace, which only the flat scan wades through
	newPosix := func() storage.FileSystem {
		return posixfs.NewStrict(cluster.New(cluster.Config{Nodes: 9, Seed: 1}))
	}
	newBlob := func() storage.FileSystem {
		return blobfs.New(blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
			blob.Config{ChunkSize: 1 << 20, Replication: 1}))
	}
	for _, impl := range []struct {
		name string
		mk   func() storage.FileSystem
	}{{"posix-native", newPosix}, {"blob-scan", newBlob}} {
		b.Run(impl.name, func(b *testing.B) {
			fs := impl.mk()
			ctx := storage.NewContext()
			if err := fs.Mkdir(ctx, "/dir"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < files; i++ {
				h, err := fs.Create(ctx, fmt.Sprintf("/dir/f-%04d", i))
				if err != nil {
					b.Fatal(err)
				}
				h.Close(ctx)
			}
			if err := fs.Mkdir(ctx, "/rest"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < decoys; i++ {
				h, err := fs.Create(ctx, fmt.Sprintf("/rest/d-%05d", i))
				if err != nil {
					b.Fatal(err)
				}
				h.Close(ctx)
			}
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries, err := fs.ReadDir(ctx, "/dir")
				if err != nil {
					b.Fatal(err)
				}
				if len(entries) != files {
					b.Fatalf("listing returned %d entries", len(entries))
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}

// --- Data-plane hot path: per-chunk dispatch cost on striped reads and
// writes (placement lookup, chunk addressing, server locks, WAL append).
// -cpuprofile entry points: the allocation guard is internal/blob's
// TestHotPathAllocFree, wall-clock numbers come from benchmark/run.sh. ---

func BenchmarkHotPathRead(b *testing.B) {
	h, err := bench.NewHotPath()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(h.OpBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathWrite(b *testing.B) {
	h, err := bench.NewHotPath()
	if err != nil {
		b.Fatal(err)
	}
	// One warm compaction window parks the slab high-water on the free
	// lists, so B/op measures steady-state dispatch cost instead of the
	// fresh store's one-time medium fill.
	if err := h.Warm(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(h.OpBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%bench.CompactEvery == bench.CompactEvery-1 {
			// Periodic WAL checkpoint outside the timer: keeps the metric
			// on per-op dispatch cost, not in-memory log accumulation.
			b.StopTimer()
			h.Compact()
			b.StartTimer()
		}
		if err := h.Write(); err != nil {
			b.Fatal(err)
		}
	}
}

// reportVirtual attaches the simulated-cluster time per operation.
func reportVirtual(b *testing.B, total time.Duration) {
	if b.N > 0 {
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "vns/op")
	}
}

// --- Ablation 8: transactional vs direct multi-blob updates. ---

func BenchmarkAblationTransactions(b *testing.B) {
	for _, mode := range []string{"direct", "transactional"} {
		b.Run(mode, func(b *testing.B) {
			store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
				blob.Config{ChunkSize: 1 << 20, Replication: 2})
			ctx := storage.NewContext()
			for _, k := range []string{"x", "y"} {
				if err := store.CreateBlob(ctx, k); err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, 4096)
			start := ctx.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "direct" {
					if _, err := store.WriteBlob(ctx, "x", 0, payload); err != nil {
						b.Fatal(err)
					}
					if _, err := store.WriteBlob(ctx, "y", 0, payload); err != nil {
						b.Fatal(err)
					}
				} else {
					txn := store.Begin(ctx)
					txn.Write("x", 0, payload)
					txn.Write("y", 0, payload)
					if err := txn.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			reportVirtual(b, ctx.Clock.Now()-start)
		})
	}
}
