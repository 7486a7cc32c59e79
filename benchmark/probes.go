package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"time"

	"repro/internal/blob"
	"repro/internal/chash"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The probes measure single layers directly, outside any workload: the
// host's own floor, the log, the hash ring, the cost charging, and the
// fan-out dispatcher by difference against the store's InlineFanout
// oracle. They run in the traced run only.

// ioShape is the size of the blob reads and writes a workload issues.
type ioShape struct{ read, write int }

// probeTime is how long one timed loop of a probe runs.
func (e *env) probeTime() time.Duration {
	return max(2*time.Millisecond, time.Duration(float64(100*time.Millisecond)*min(1, e.scale)))
}

// timeLoop calls fn in batches until d has passed and returns ns per call.
func timeLoop(d time.Duration, batch int, fn func(i int)) float64 {
	n := 0
	t0 := time.Now()
	for {
		for i := 0; i < batch; i++ {
			fn(n + i)
		}
		n += batch
		if el := time.Since(t0); el >= d {
			return float64(el) / float64(n)
		}
	}
}

// settled runs a probe twice with a collection between and keeps the
// second reading: the first run faults in the memory the probe allocates,
// which on a virtual machine can cost more than the work being timed.
func settled[T any](fn func() T) T {
	fn()
	runtime.GC()
	return fn()
}

func probes(out map[string]float64, shape ioShape, e *env) error {
	hostProbe(out, e)
	walProbe(out, e)
	ringProbe(out, e)
	if err := dispatchProbe(out, e, shape); err != nil {
		return fmt.Errorf("dispatch probe: %w", err)
	}
	return nil
}

// hostProbe is the same-run calibration: how fast this host moves and
// checksums bytes that do not fit its L2, plus the numeric provenance.
func hostProbe(out map[string]float64, e *env) {
	const n = 64 << 20
	src, dst := e.pat.ring[:n/2], make([]byte, n/2)
	copy(dst, src) // fault dst in
	perCopy := timeLoop(e.probeTime(), 1, func(int) { copy(dst, src) })
	out["host.memmove_gbps"] = float64(len(src)) / perCopy
	table := crc32.MakeTable(crc32.Castagnoli)
	var sink uint32
	perSum := timeLoop(e.probeTime(), 1, func(int) { sink += crc32.Checksum(src, table) })
	_ = sink
	out["host.crc32c_gbps"] = float64(len(src)) / perSum
	out["host.nproc"] = float64(runtime.NumCPU())
	out["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out["host.clients"] = float64(clientCount())
	out["host.l2_kib"] = float64(cacheKiB(2))
	out["host.l3_kib"] = float64(cacheKiB(3))
}

// walProbe drives wal.MultiLog directly with the two record classes the
// store produces: 64 KiB chunk records and ~40-byte meta/commit records.
func walProbe(out map[string]float64, e *env) {
	const lanes = 16
	const perFill = 1024 // chunk records before the log is reset: 64 MiB
	hdr := make([]byte, 24)
	small := make([]byte, 40)
	chunk := func(i int) []byte { return e.pat.bytes(0, uint32(i), 0, chunkSize) }
	d := e.probeTime()

	appendChunk := func(ml *wal.MultiLog, lane, i int) {
		if _, _, err := ml.AppendV(lane, wal.RecWrite, hdr, chunk(i)); err != nil {
			panic(err) // the in-memory medium cannot fail
		}
	}
	type chunkReading struct{ perChunk, replayMBps float64 }
	cr := settled(func() chunkReading {
		ml := wal.NewMultiLog(lanes)
		perChunk := timeLoop(d, perFill, func(i int) {
			if i%perFill == 0 {
				ml.ResetAll()
			}
			appendChunk(ml, i%lanes, i)
		})
		// Replay what the last fill left in the lanes.
		logged := ml.Size()
		t0 := time.Now()
		if err := ml.ReplayMerged(func(wal.Record) error { return nil }); err != nil {
			panic(err)
		}
		return chunkReading{perChunk, float64(logged) / float64(time.Since(t0)) * 1e3}
	})
	out["wal.append.mbps.chunk"] = chunkSize / cr.perChunk * 1e3
	out["wal.append.ns_per_byte"] = cr.perChunk / chunkSize
	out["wal.replay.mbps"] = cr.replayMBps

	out["wal.append.ns_per_rec.small"] = settled(func() float64 {
		ml := wal.NewMultiLog(lanes)
		return timeLoop(d, 1<<16, func(i int) {
			if i%(1<<20) == 0 {
				ml.ResetAll()
			}
			if _, _, err := ml.AppendV(i%lanes, wal.RecCommit, small, nil); err != nil {
				panic(err)
			}
		})
	})

	// C appenders: all on one lane (group commit coalesces them into
	// fewer medium writes), then each on a lane of its own.
	c := clientCount()
	type contention struct {
		wall         time.Duration
		recs, writes int
	}
	contended := func(nLanes int) contention {
		return settled(func() contention {
			ml := wal.NewMultiLog(nLanes)
			per := max(8, int(float64(d)/cr.perChunk)/c)
			t0 := time.Now()
			_ = runClients(c, func(id int) error {
				for i := 0; i < per; i++ {
					appendChunk(ml, id%nLanes, id*per+i)
				}
				return nil
			})
			r := contention{wall: time.Since(t0), recs: per * c}
			for l := 0; l < nLanes; l++ {
				r.writes += ml.LaneBuffer(l).Writes()
			}
			return r
		})
	}
	one, many := contended(1), contended(lanes)
	out["wal.group.recs_per_write"] = ratio(int64(one.recs), int64(one.writes))
	out["wal.lanes1_over_lanes16"] = float64(one.wall) / float64(many.wall)
}

// ringProbe times the placement primitives and one cost charge.
func ringProbe(out map[string]float64, e *env) {
	ring := chash.New(64)
	for n := 0; n < fixtureNodes; n++ {
		ring.Add(n)
	}
	d := e.probeTime() / 2
	var owners [replication]int
	var sink uint64
	out["chash.hash.ns"] = timeLoop(d, 1<<12, func(i int) {
		sink += chash.NewKeyHasher().String("c:").String("o/c0/01234-g0").Byte(0).Int64Decimal(int64(i)).Sum()
	})
	out["chash.locate.ns"] = timeLoop(d, 1<<12, func(i int) {
		ring.LocateHashNInto(mix(uint32(i), 0), owners[:])
	})
	_ = sink

	cl := cluster.New(cluster.Config{Nodes: fixtureNodes, Seed: 1})
	clk := sim.NewClock()
	out["cluster.charge.ns"] = timeLoop(d, 1<<12, func(i int) {
		node := cluster.NodeID(i % fixtureNodes)
		cl.RPC(clk, node, 64, 64, 50*time.Microsecond)
		cl.DiskWrite(clk, node, chunkSize)
	})
}

// dispatchProbe measures the fan-out dispatcher by difference: the same
// reads and writes, in the workload's shape, on a pooled store and on a
// twin built with the existing Config.InlineFanout, alternating so drift
// hits both. It also counts the log records one write of that shape makes.
func dispatchProbe(out map[string]float64, e *env, shape ioShape) error {
	const blobs, size = 32, 1 << 20
	keys := make([]string, blobs)
	twin := func(inline bool) (*blob.Store, error) {
		fx := newFixture(e.seed, e.pat, blob.Config{InlineFanout: inline})
		ctx := storage.NewContext()
		for b := range keys {
			keys[b] = fmt.Sprintf("probe/%02d", b)
			if err := fx.st.CreateBlob(ctx, keys[b]); err != nil {
				return nil, err
			}
			if _, err := fx.st.WriteBlob(ctx, keys[b], 0, e.pat.bytes(uint32(b), 0, 0, size)); err != nil {
				return nil, err
			}
		}
		fx.st.CheckpointAll()
		return fx.st, nil
	}
	pooled, err := twin(false)
	if err != nil {
		return err
	}
	inline, err := twin(true)
	if err != nil {
		return err
	}

	// failed keeps the first error of any timed op.
	failed := make(chan error, 1)
	buf := make([]byte, shape.read)
	op := func(st *blob.Store, ctx *storage.Context, write bool, first, span int) func(i int) {
		n := shape.read
		if write {
			n = shape.write
		}
		return func(i int) {
			key, off := keys[first+i%span], int64(i/span*n%size)
			var err error
			if write {
				_, err = st.WriteBlob(ctx, key, off, e.pat.bytes(uint32(i), 1, 0, n))
			} else {
				_, err = st.ReadBlob(ctx, key, off, buf)
			}
			if err != nil {
				select {
				case failed <- err:
				default:
				}
			}
		}
	}
	d := e.probeTime() / 2
	versus := func(write bool) float64 {
		var ratios []float64
		for round := 0; round < 5; round++ {
			a := timeLoop(d, 4, op(pooled, storage.NewContext(), write, 0, blobs))
			b := timeLoop(d, 4, op(inline, storage.NewContext(), write, 0, blobs))
			ratios = append(ratios, a/b)
			if write {
				pooled.CheckpointAll()
				inline.CheckpointAll()
			}
		}
		return medianF(ratios)
	}
	out["dispatch.pooled_over_inline.read"] = versus(false)
	out["dispatch.pooled_over_inline.write"] = versus(true)

	// Write scaling: C clients on disjoint blobs against one client.
	c := clientCount()
	var scale []float64
	for round := 0; round < 3; round++ {
		one := timeLoop(d, 4, op(pooled, storage.NewContext(), true, 0, blobs/c))
		perClient := make([]float64, c)
		_ = runClients(c, func(id int) error {
			perClient[id] = timeLoop(d, 4, op(pooled, storage.NewContext(), true, id*(blobs/c), blobs/c))
			return nil
		})
		var rate float64
		for _, ns := range perClient {
			rate += 1 / ns
		}
		scale = append(scale, rate*one)
		pooled.CheckpointAll()
	}
	out["dispatch.scaling.write"] = medianF(scale)

	// Log records per write, counted on every node's log around one write.
	records := func() (n int, err error) {
		for node := 0; node < fixtureNodes; node++ {
			recs, err := pooled.LogRecords(cluster.NodeID(node))
			if err != nil {
				return 0, err
			}
			n += len(recs)
		}
		return n, nil
	}
	before, err := records()
	if err != nil {
		return err
	}
	op(pooled, storage.NewContext(), true, 0, blobs)(0)
	after, err := records()
	if err != nil {
		return err
	}
	out["blob.wal_records_per_write"] = float64(after - before)
	select {
	case err := <-failed:
		return err
	default:
		return nil
	}
}
