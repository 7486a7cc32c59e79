package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// The rebalance experiment measures what elasticity costs the foreground:
// the p99 virtual latency of a mixed read / 2PC-write workload while a
// node joins or drains, against the same workload on a quiesced ring. The
// cluster is 6 nodes with 5 serving — node 5 is the spare that every
// join/leave cycle adds and removes — over a population of multi-chunk
// blobs large enough that a membership change moves many batches.
const (
	rebalanceBlobs     = 24
	rebalanceChunkSize = 4 << 10
	rebalanceBlobSize  = 3 * rebalanceChunkSize
	rebalanceForeOps   = 96 // foreground ops per quiesced measurement
	rebalanceOpsPerCut = 4  // foreground ops interleaved per batch boundary
)

// RebalanceFixture backs the benchsuite `rebalance` experiment.
type RebalanceFixture struct {
	store *blob.Store
	ctx   *storage.Context
	buf   []byte
}

// newRebalanceFixture builds the 6-node store (5 serving) and seeds the
// blob population. hook, when non-nil, is installed as the migration
// batch-boundary callback before the store is built.
func newRebalanceFixture(hook func(int)) (*RebalanceFixture, error) {
	st := blob.NewOnNodes(cluster.New(cluster.Config{Nodes: 6, Seed: 11}),
		blob.Config{
			ChunkSize:            rebalanceChunkSize,
			Replication:          3,
			WALLanes:             4,
			InlineFanout:         true,
			MigrationBatchChunks: 8,
			MigrationBatchHook:   hook,
		},
		[]cluster.NodeID{0, 1, 2, 3, 4})
	ctx := storage.NewContext()
	buf := make([]byte, rebalanceBlobSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for b := 0; b < rebalanceBlobs; b++ {
		key := fmt.Sprintf("re-blob-%02d", b)
		if err := st.CreateBlob(ctx, key); err != nil {
			return nil, err
		}
		if _, err := st.WriteBlob(ctx, key, 0, buf); err != nil {
			return nil, err
		}
	}
	return &RebalanceFixture{store: st, ctx: ctx, buf: buf}, nil
}

// foregroundOp runs one op of the deterministic foreground mix on its own
// virtual clock and returns the op's simulated duration. Two of every
// three ops are chunk-spanning writes — the prepared (2PC) path — and the
// third is a full-blob read, so both the member gate and the checked read
// path are on the measured path.
func (f *RebalanceFixture) foregroundOp(ctx *storage.Context, i int) (time.Duration, error) {
	key := fmt.Sprintf("re-blob-%02d", i%rebalanceBlobs)
	start := ctx.Clock.Now()
	if i%3 == 2 {
		dst := make([]byte, rebalanceBlobSize)
		if _, err := f.store.ReadBlob(ctx, key, 0, dst); err != nil {
			return 0, err
		}
	} else {
		// Spans the chunk 0/1 boundary: prepare on both participants,
		// then commit — the live 2PC load the gate is about.
		off := int64(rebalanceChunkSize/2 + (i%2)*512)
		if _, err := f.store.WriteBlob(ctx, key, off, f.buf[:rebalanceChunkSize]); err != nil {
			return 0, err
		}
	}
	return ctx.Clock.Now() - start, nil
}

// p99 returns the 99th-percentile sample. The slice is consumed (sorted).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := len(samples) * 99 / 100
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// VirtualRebalanceP99 measures the three gated numbers on one fresh
// fixture: the foreground p99 on the quiesced 5-node ring, then during a
// live join (AddServer 5) and a live drain (RemoveServer 5), with
// rebalanceOpsPerCut foreground ops interleaved at every migration batch
// boundary via the batch hook. Everything runs on the virtual clock over
// a seeded, single-threaded schedule, so the numbers are identical on
// every host — what makes the ratio gateable.
func VirtualRebalanceP99() (quiesced, join, leave time.Duration, err error) {
	var f *RebalanceFixture
	var wctx *storage.Context
	var during []time.Duration
	opSeq := 0
	hook := func(batch int) {
		if f == nil {
			return
		}
		for k := 0; k < rebalanceOpsPerCut; k++ {
			d, opErr := f.foregroundOp(wctx, opSeq)
			opSeq++
			if opErr != nil {
				err = opErr
				return
			}
			during = append(during, d)
		}
	}
	if f, err = newRebalanceFixture(hook); err != nil {
		return 0, 0, 0, err
	}
	wctx = storage.NewContext()
	// One throwaway op syncs the fresh clock with the fixture's seeded
	// construction history (same reasoning as VirtualWriteCost).
	if _, err = f.foregroundOp(wctx, 0); err != nil {
		return 0, 0, 0, err
	}

	quiet := make([]time.Duration, 0, rebalanceForeOps)
	for i := 0; i < rebalanceForeOps; i++ {
		d, opErr := f.foregroundOp(wctx, opSeq)
		opSeq++
		if opErr != nil {
			return 0, 0, 0, opErr
		}
		quiet = append(quiet, d)
	}
	quiesced = p99(quiet)

	during = during[:0]
	if jerr := f.store.AddServer(f.ctx, 5); jerr != nil {
		return 0, 0, 0, jerr
	}
	if err != nil { // an interleaved foreground op failed
		return 0, 0, 0, err
	}
	join = p99(during)

	during = during[:0]
	if lerr := f.store.RemoveServer(f.ctx, 5); lerr != nil {
		return 0, 0, 0, lerr
	}
	if err != nil {
		return 0, 0, 0, err
	}
	leave = p99(during)
	return quiesced, join, leave, nil
}

// RunRebalance runs the elasticity sweep and returns results for
// BENCH_rebalance.json: BenchmarkRebalanceCycle (wall-clock ns per full
// join+drain round trip of the spare node, best-of-3, the host-dependent
// FYI) plus the three deterministic virtual rows the gate reads —
// BenchmarkRebalanceForeground/{quiesced,join,leave}/virtual, each
// carrying a foreground p99 in NsPerOp.
func RunRebalance() ([]HotPathResult, error) {
	f, err := newRebalanceFixture(nil)
	if err != nil {
		return nil, err
	}
	var out []HotPathResult
	var best testing.BenchmarkResult
	for rep := 0; rep < 3; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.store.AddServer(f.ctx, 5); err != nil {
					b.Fatal(err)
				}
				if err := f.store.RemoveServer(f.ctx, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
		if rep == 0 || (r.N > 0 && r.NsPerOp() < best.NsPerOp()) {
			best = r
		}
	}
	if best.N == 0 {
		return nil, fmt.Errorf("bench: rebalance cycle benchmark failed")
	}
	out = append(out, HotPathResult{
		Name:        "BenchmarkRebalanceCycle",
		NsPerOp:     best.NsPerOp(),
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
	})

	quiesced, join, leave, err := VirtualRebalanceP99()
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		v    time.Duration
	}{
		{"BenchmarkRebalanceForeground/quiesced/virtual", quiesced},
		{"BenchmarkRebalanceForeground/join/virtual", join},
		{"BenchmarkRebalanceForeground/leave/virtual", leave},
	} {
		out = append(out, HotPathResult{Name: row.name, NsPerOp: int64(row.v)})
	}
	return out, nil
}

// CheckRebalance gates the elasticity cost: the foreground p99 during a
// live join or drain (the /virtual rows) must stay within maxRatio of the
// quiesced p99. A migrating batch and a foreground op do contend for the
// same simulated disks, so some elevation is physical — the batch bounds
// (MigrationBatchChunks, 1 MiB of payload) and the token-bucket throttle are exactly
// the mechanisms that keep it a small constant instead of a stall, and
// this gate is what pins them. Today the measured elevation is ~2.5x for a
// join and ~2.1x for a drain (a foreground op landing right behind a
// batch queues behind up to MigrationBatchChunks chunk writes on the
// shared disks); the default of 4 gives those deterministic numbers
// headroom for legitimate cost shifts while still failing the
// regressions the gate exists for: an unthrottled sweep or a batch that
// holds the member gate across its copies, which shows up as an
// order-of-magnitude p99 spike. Like the other baseline gates, the check
// reads only the virtual twins and passes vacuously if they are absent.
func CheckRebalance(results []HotPathResult, maxRatio float64) error {
	if maxRatio <= 0 {
		maxRatio = 4
	}
	var quiesced, join, leave *HotPathResult
	for i := range results {
		switch results[i].Name {
		case "BenchmarkRebalanceForeground/quiesced/virtual":
			quiesced = &results[i]
		case "BenchmarkRebalanceForeground/join/virtual":
			join = &results[i]
		case "BenchmarkRebalanceForeground/leave/virtual":
			leave = &results[i]
		}
	}
	if quiesced == nil || quiesced.NsPerOp <= 0 {
		return nil
	}
	for _, r := range []*HotPathResult{join, leave} {
		if r == nil {
			continue
		}
		if ratio := float64(r.NsPerOp) / float64(quiesced.NsPerOp); ratio > maxRatio {
			return fmt.Errorf("bench: foreground p99 under migration regressed: %s %d ns is %.3fx quiesced %d ns (gate %.3fx)",
				r.Name, r.NsPerOp, ratio, quiesced.NsPerOp, maxRatio)
		}
	}
	return nil
}

// RenderRebalance formats results as the JSON written to BENCH_rebalance.json.
func RenderRebalance(results []HotPathResult) ([]byte, error) {
	return json.MarshalIndent(results, "", "  ")
}
