package bench

import (
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// twinOps is how many ops each twin averages over, after one throw-away op.
const twinOps = 8

// VirtualWriteCost measures the simulated per-op cost of a full-blob
// (4-chunk, 256 KiB) overwrite, healthy or degraded: every disk, RPC, and
// compute charge the write folds into its context. The cluster is 3 nodes
// with 3-way replication so every chunk is owned by every node — downing one
// makes EVERY chunk write degraded (exclusion + a RecRepairNeeded debt record
// on the survivors) instead of diluting the comparison across a larger ring.
//
// The fixture is fresh because the simulator's per-node disk queues carry
// virtual time forward; one throwaway write syncs the fresh clock with the
// fixture's seeded construction history, and the marginal cost of the next
// twinOps writes is then a pure function of the code path — reproducible to
// the nanosecond on any host, which is what lets TestVirtualTwinsPinned pin it.
func VirtualWriteCost(degraded bool) (time.Duration, error) {
	st := blob.New(cluster.New(cluster.Config{Nodes: 3, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	if err := st.CreateBlob(ctx, "fault-target"); err != nil {
		return 0, err
	}
	buf := make([]byte, 256<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	// Prime the blob so every measured op is an overwrite of existing
	// chunks, never a first-touch allocation.
	if _, err := st.WriteBlob(ctx, "fault-target", 0, buf); err != nil {
		return 0, err
	}
	if degraded {
		st.SetDown(2, true)
	}
	ctx = storage.NewContext()
	if _, err := st.WriteBlob(ctx, "fault-target", 0, buf); err != nil {
		return 0, err
	}
	start := ctx.Clock.Now()
	for i := 0; i < twinOps; i++ {
		if _, err := st.WriteBlob(ctx, "fault-target", 0, buf); err != nil {
			return 0, err
		}
	}
	return (ctx.Clock.Now() - start) / twinOps, nil
}
