package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// The rebalance twin measures what elasticity costs the foreground:
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

// rebalanceFixture backs VirtualRebalanceP99.
type rebalanceFixture struct {
	store *blob.Store
	ctx   *storage.Context
	buf   []byte
}

// newRebalanceFixture builds the 6-node store (5 serving) and seeds the
// blob population.
func newRebalanceFixture() (*rebalanceFixture, error) {
	st := blob.NewOnNodes(cluster.New(cluster.Config{Nodes: 6, Seed: 11}),
		blob.Config{
			ChunkSize:            rebalanceChunkSize,
			Replication:          3,
			WALLanes:             4,
			InlineFanout:         true,
			MigrationBatchChunks: 8,
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
	return &rebalanceFixture{store: st, ctx: ctx, buf: buf}, nil
}

// foregroundOp runs one op of the deterministic foreground mix on its own
// virtual clock and returns the op's simulated duration. Two of every
// three ops are chunk-spanning writes — the prepared (2PC) path — and the
// third is a full-blob read, so both the member gate and the checked read
// path are on the measured path.
func (f *rebalanceFixture) foregroundOp(ctx *storage.Context, i int) (time.Duration, error) {
	key := fmt.Sprintf("re-blob-%02d", i%rebalanceBlobs)
	start := ctx.Clock.Now()
	if i%3 == 2 {
		dst := make([]byte, rebalanceBlobSize)
		if _, err := f.store.ReadBlob(ctx, key, 0, dst); err != nil {
			return 0, err
		}
	} else {
		// Spans the chunk 0/1 boundary: prepare on both participants,
		// then commit — the live 2PC load the bound is about.
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
	return samples[len(samples)*99/100]
}

// VirtualRebalanceP99 measures the three pinned numbers on one fresh
// fixture: the foreground p99 on the quiesced 5-node ring, then during a
// live join (AddServer 5) and a live drain (RemoveServer 5), with
// rebalanceOpsPerCut foreground ops interleaved at every batch event of the
// store, the -1 before the first batch included; append events, its own ops'
// among them, are ignored. Everything runs on the virtual clock over a seeded,
// single-threaded schedule, so the numbers are identical on every host — what
// lets TestVirtualTwinsPinned pin them.
func VirtualRebalanceP99() (quiesced, join, leave time.Duration, err error) {
	f, err := newRebalanceFixture()
	if err != nil {
		return 0, 0, 0, err
	}
	wctx := storage.NewContext()
	var during []time.Duration
	opSeq := 0
	f.store.Observe(func(ev blob.Event) {
		if ev.Kind != blob.EventBatch {
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
	})
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
