package bench

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// HotPath is the fixture behind BenchmarkHotPathRead/BenchmarkHotPathWrite,
// the -cpuprofile entry point of the data plane: a 9-node store with 64 KiB
// chunks and 3-way replication, serving 256 KiB operations that stripe
// across four chunks — the steady-state shape whose per-chunk dispatch cost
// (placement lookup, chunk addressing, server locking, WAL append) the
// benchmarks isolate. Wall-clock numbers with provenance come from
// benchmark/run.sh, not from here.
type HotPath struct {
	store *blob.Store
	ctx   *storage.Context
	buf   []byte
}

// NewHotPath builds the fixture with the blob pre-written so reads hit
// materialized chunks. The store runs the default configuration: per-chunk
// work dispatched across the goroutine worker pool.
func NewHotPath() (*HotPath, error) {
	st := blob.New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	if err := st.CreateBlob(ctx, "hot"); err != nil {
		return nil, err
	}
	h := &HotPath{store: st, ctx: ctx, buf: make([]byte, 256<<10)}
	for i := range h.buf {
		h.buf[i] = byte(i)
	}
	if _, err := st.WriteBlob(ctx, "hot", 0, h.buf); err != nil {
		return nil, err
	}
	return h, nil
}

// OpBytes is the payload size of one Read/Write operation.
func (h *HotPath) OpBytes() int64 { return int64(len(h.buf)) }

// CompactEvery is how many write ops a benchmark runs between WAL
// checkpoints (HotPath.Compact).
const CompactEvery = 256

// Warm drives one compaction window of writes and compacts, so every
// server's slab-backed log reaches its steady-state high-water (the slabs
// parked on the free list by the final Compact) before measurement begins.
// Without it, whether the one-time first-window medium fill lands inside the
// measured trial depends on testing.Benchmark's ramp timing — B/op would
// flip between ~0 and the fill cost run to run. Write benchmarks call it
// before the timer starts.
func (h *HotPath) Warm() error {
	for i := 0; i < CompactEvery; i++ {
		if err := h.Write(); err != nil {
			return err
		}
	}
	h.Compact()
	return nil
}

// Compact checkpoints every server's WAL, dropping the accumulated log
// bytes. Write benchmarks call it with the timer stopped every
// CompactEvery iterations so the measured loop reflects per-op dispatch
// cost instead of unbounded in-memory log growth (which would otherwise
// dominate B/op and drift with -benchtime).
func (h *HotPath) Compact() { h.store.CheckpointAll() }

// Read performs one 4-chunk striped read.
func (h *HotPath) Read() error {
	n, err := h.store.ReadBlob(h.ctx, "hot", 0, h.buf)
	if err != nil {
		return err
	}
	if n != len(h.buf) {
		return fmt.Errorf("hotpath: short read %d", n)
	}
	return nil
}

// Write performs one 4-chunk striped overwrite (a multi-chunk transaction:
// prepare + data + commit phases).
func (h *HotPath) Write() error {
	n, err := h.store.WriteBlob(h.ctx, "hot", 0, h.buf)
	if err != nil {
		return err
	}
	if n != len(h.buf) {
		return fmt.Errorf("hotpath: short write %d", n)
	}
	return nil
}
