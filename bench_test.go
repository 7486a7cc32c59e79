// Package repro's benchmark suite: one benchmark per table and figure of
// the paper (delegating to internal/bench), plus ablations 1–6 for the
// design choices called out in DESIGN.md §5. Custom "v*/op" metrics
// report virtual (simulated-cluster) time; the built-in ns/op is host time.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/fs/posixfs"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/s3gw"
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

// --- Object path: one S3 request through Gateway.ServeHTTP on the hot-path
// store shape, no sockets, a reused hand-built request and a discarding
// writer. -cpuprofile entry point for the gateway; its allocation guard is
// internal/s3gw's TestGatewayRequestAllocationBudget. ---

func BenchmarkS3Gateway(b *testing.B) {
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		for _, size := range []int{4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dKiB", strings.ToLower(method), size>>10), func(b *testing.B) {
				store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
					blob.Config{ChunkSize: 64 << 10, Replication: 3})
				gw := s3gw.New(store)
				payload := make([]byte, size)
				var body bytes.Reader
				req := &http.Request{URL: &url.URL{Path: "/obj"}, Header: http.Header{}, Body: io.NopCloser(&body)}
				w := discardWriter{hdr: http.Header{}}
				serve := func(method string) {
					req.Method = method
					body.Reset(payload)
					w.reset()
					gw.ServeHTTP(&w, req)
					if w.status != http.StatusOK || (method == http.MethodGet && w.n != size) {
						b.Fatalf("%s: status %d, %d bytes", method, w.status, w.n)
					}
				}
				serve(http.MethodPut)
				// One warm compaction window, as in BenchmarkHotPathWrite.
				for i := 0; i < bench.CompactEvery; i++ {
					serve(method)
				}
				store.CheckpointAll()
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if method == http.MethodPut && i%bench.CompactEvery == bench.CompactEvery-1 {
						b.StopTimer()
						store.CheckpointAll()
						b.StartTimer()
					}
					serve(method)
				}
			})
		}
	}
}

// --- Prefix listing: one Scan of a ten-key prefix on s3-smallobj's store
// shape and object count, the blob-layer half of an S3 LIST. -cpuprofile
// entry point; the flat-scan charge is pinned by internal/blob's
// TestScanChargeCountsEveryDescriptor. ---

func BenchmarkScanPrefix(b *testing.B) {
	const objects, span = 16384, 10
	store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	for i := 0; i < objects; i++ {
		if err := store.CreateBlob(ctx, fmt.Sprintf("o/%05d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % (objects / span)
		infos, err := store.Scan(ctx, fmt.Sprintf("o/%04d", p))
		if err != nil {
			b.Fatal(err)
		}
		if len(infos) != span {
			b.Fatalf("prefix o/%04d: %d keys, want %d", p, len(infos), span)
		}
		for j, info := range infos {
			if want := fmt.Sprintf("o/%05d", p*span+j); info.Key != want {
				b.Fatalf("prefix o/%04d: key %d is %q, want %q", p, j, info.Key, want)
			}
		}
	}
}

// --- Log compaction: CheckpointAll on hpc-ckpt's store shape (9 nodes, R 3,
// 64 KiB chunks, 128 MiB live, written in 1 MiB 2PC slabs). -cpuprofile entry
// point; after the loop one node's Crash + Recover must leave CheckInvariants
// clean. ---

func BenchmarkCheckpointAll(b *testing.B) {
	const live, slab = 128 << 20, 1 << 20
	store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	if err := store.CreateBlob(ctx, "ckpt"); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, slab)
	for off := 0; off < live; off += slab {
		for i := range buf {
			buf[i] = byte(off>>20 + i*7)
		}
		if _, err := store.WriteBlob(ctx, "ckpt", int64(off), buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(live)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.CheckpointAll()
	}
	b.StopTimer()
	store.Crash(0)
	if err := store.Recover(0); err != nil {
		b.Fatal(err)
	}
	if msg := store.CheckInvariants(); msg != "" {
		b.Fatal(msg)
	}
}

// --- Log compaction of small objects: CheckpointAll on s3-smallobj's store
// shape (9 nodes, R 3, 64 KiB chunks, 16 384 one-chunk objects of 4, 32 and
// 64 KiB at 70 / 25 / 5 %), where the per-record work — planning, sorting,
// headers — outweighs the bytes. Between timed checkpoints, untimed, a
// quarter of the 4 KiB objects are overwritten (a different quarter each
// time), so the checkpoint both relinks the slabs still dense and compacts
// those the overwrites left sparse. -cpuprofile entry point; copyB/op is the
// store's blob.copy.bytes per checkpoint; after the loop one node's Crash +
// Recover must leave CheckInvariants clean. ---

func BenchmarkCheckpointSmallObjects(b *testing.B) {
	const objects = 16384
	store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	buf := make([]byte, 64<<10)
	var live int64
	var small []string // the 4 KiB objects
	for i := 0; i < objects; i++ {
		size := 4 << 10
		switch p := i % 20; {
		case p == 19:
			size = 64 << 10
		case p >= 14:
			size = 32 << 10
		}
		key := fmt.Sprintf("o/%05d", i)
		if err := store.CreateBlob(ctx, key); err != nil {
			b.Fatal(err)
		}
		buf[0] = byte(i)
		if _, err := store.WriteBlob(ctx, key, 0, buf[:size]); err != nil {
			b.Fatal(err)
		}
		live += int64(size)
		if size == 4<<10 {
			small = append(small, key)
		}
	}
	store.CheckpointAll() // the plan lists and the log buffers reach their size
	copyBytes := store.Metrics().Counter("blob.copy.bytes")
	var copied int64
	b.SetBytes(live)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := i % 4; j < len(small); j += 4 {
			buf[0] = byte(i + j)
			if _, err := store.WriteBlob(ctx, small[j], 0, buf[:4<<10]); err != nil {
				b.Fatal(err)
			}
		}
		before := copyBytes.Value()
		b.StartTimer()
		store.CheckpointAll()
		b.StopTimer()
		copied += copyBytes.Value() - before
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(copied)/float64(b.N), "copyB/op")
	store.Crash(0)
	if err := store.Recover(0); err != nil {
		b.Fatal(err)
	}
	if msg := store.CheckInvariants(); msg != "" {
		b.Fatal(msg)
	}
}

// --- Crash recovery: one node's Crash + Recover on fault-drill's store shape
// (9 nodes, R 3, 64 KiB chunks, 256 × 1 MiB blobs, checkpointed, then one
// 256 KiB overwrite each, about 120 MB of log on node 0). -cpuprofile entry
// point; MB/s is over node 0's WALSize, and CheckInvariants must be clean
// after the loop. ---

func BenchmarkRecover(b *testing.B) {
	const blobs, size, over = 256, 1 << 20, 256 << 10
	store := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	buf := make([]byte, size)
	for i := 0; i < blobs; i++ {
		key := fmt.Sprintf("f/%03d", i)
		if err := store.CreateBlob(ctx, key); err != nil {
			b.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i + j*7)
		}
		if _, err := store.WriteBlob(ctx, key, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
	store.CheckpointAll()
	for i := 0; i < blobs; i++ {
		off := int64(i%(size/over)) * over
		if _, err := store.WriteBlob(ctx, fmt.Sprintf("f/%03d", i), off, buf[:over]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(store.WALSize(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Crash(0)
		if err := store.Recover(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if msg := store.CheckInvariants(); msg != "" {
		b.Fatal(msg)
	}
}

// --- Small appends: 4 KiB sequential writes at the default ChunkSize, R 3, on
// 5 nodes. One op creates a one-chunk blob and writes it front to back; the
// blob's delete and a CheckpointAll run untimed after it, so the store stays
// one blob big. MB/s is over the user bytes written, copyB/B the store's
// blob.copy.bytes over them, all R replicas together: every 4 KiB write
// merges the chunk so far into a fresh copy on each replica. -cpuprofile
// entry point and the baseline for storing partial writes as extents. ---

func BenchmarkAppendSmall(b *testing.B) {
	const step = 4 << 10
	store := blob.New(cluster.New(cluster.Config{Nodes: 5, Seed: 1}), blob.Config{Replication: 3})
	size := store.ChunkSize()
	copies := store.Metrics().Counter("blob.copy.bytes")
	ctx := storage.NewContext()
	buf := make([]byte, step)
	var copied int64
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("a/%d", i)
		if err := store.CreateBlob(ctx, key); err != nil {
			b.Fatal(err)
		}
		before := copies.Value()
		for off := 0; off < size; off += step {
			buf[0] = byte(off / step)
			if _, err := store.WriteBlob(ctx, key, int64(off), buf); err != nil {
				b.Fatal(err)
			}
		}
		copied += copies.Value() - before
		b.StopTimer()
		if err := store.DeleteBlob(ctx, key); err != nil {
			b.Fatal(err)
		}
		store.CheckpointAll()
		b.StartTimer()
	}
	b.ReportMetric(float64(copied)/float64(b.N*size), "copyB/B")
}

// discardWriter is a ResponseWriter that keeps only the status and the body
// length.
type discardWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(s int)           { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (w *discardWriter) reset() {
	clear(w.hdr)
	w.status, w.n = 0, 0
}

// reportVirtual attaches the simulated-cluster time per operation.
func reportVirtual(b *testing.B, total time.Duration) {
	if b.N > 0 {
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "vns/op")
	}
}
