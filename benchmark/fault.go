package main

import (
	"errors"
	"fmt"
	"math/rand"
	"repro/internal/blob"
	"sync/atomic"
	"time"

	"repro/internal/chash"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// fault-drill: the failure-domain and elasticity paths. max(1, C-1)
// foreground clients, each owning a disjoint set of the faultBlobs 1 MiB
// blobs, do 50/50 256 KiB reads and writes straight on blob.Store; every
// read is checked against a shadow table of the last acknowledged version
// of its extent, so a stale read is a failure. One slice is one round, its
// control actions taken with the foreground parked:
//
//	healthy sub-phase          the baseline ops/s
//	SetDown(n, true)
//	degraded sub-phase         debt accrues, reads take the checked path
//	SetDown(n, false)          timed: the rejoin drain
//	Crash + Recover(fullest)   timed; every extent re-checked afterwards
//	RemoveServer, AddServer    timed
//	CheckpointAll              timed
//
// A write whose descriptor primary is the down node is refused
// (storage.ErrUnavailable). That is the store's stated behaviour, not a
// failure of the run: the benchmark predicts the refused set from a twin
// hash ring and counts a failure only where refusal and prediction differ.
const (
	faultBlobs       = 256
	faultBlob        = 1 << 20
	faultExtent      = 256 << 10
	faultExtents     = faultBlob / faultExtent
	faultHealthyOps  = 400 // per client per round
	faultDegradedOps = 1200
	faultWarmRounds  = 2
)

type faultOp struct {
	blob   uint16
	extent uint8
	write  bool
}

type fault struct {
	env   *env
	fx    *fixture
	store [2]blobStore
	fg    int
	keys  []string
	// seqs is the shadow table: the last acknowledged version per extent.
	seqs [][faultExtents]uint32
	// round numbers the rounds run so far. The nodes the control actions
	// hit rotate with it and not with the seed, so every seed drills the
	// same sequence of nodes.
	round   int
	twin    *chash.Ring
	clients []*faultClient
	ctlLane *lane

	healthyOps, degradedOps int
	// refused and predicted count degraded writes refused by the store and
	// writes the twin ring says must be.
	refused, predicted atomic.Int64
	healthyRate        []float64
	degradedRate       []float64
	// base holds the store's event counters as the warm-up left them.
	base map[string]int64
}

// faultCounters are the failure-domain counters blob.Store keeps.
var faultCounters = []string{"blob.write.degraded", "blob.fault.retry", "blob.repair.bytes", "blob.resync.bytes"}

type faultClient struct {
	id     int
	ln     *lane
	lat    *latencies
	buf    []byte
	rng    *rand.Rand
	script []faultOp

	ops, refused, readBytes, writeBytes int64
}

func newFault(e *env) (workload, error) {
	f := &fault{
		env:         e,
		fx:          newFixture(e.seed, e.pat, blob.Config{}),
		healthyOps:  e.scaled(faultHealthyOps),
		degradedOps: e.scaled(faultDegradedOps),
		twin:        chash.New(64),
	}
	f.fg = max(1, f.fx.clients-1)
	f.store[0] = f.fx.st
	if e.tr != nil {
		f.store[1] = &tracedStore{in: f.fx.st, tr: e.tr}
		f.ctlLane = e.tr.newLane(1 << 10)
	}
	for _, n := range f.fx.st.ServingNodes() {
		f.twin.Add(int(n))
	}
	blobs := max(f.fg, e.scaled(faultBlobs))
	f.seqs = make([][faultExtents]uint32, blobs)
	f.fx.liveBytes = int64(blobs) * faultBlob
	ctx := storage.NewContext()
	for b := 0; b < blobs; b++ {
		key := fmt.Sprintf("fd/%04d", b)
		f.keys = append(f.keys, key)
		if err := f.fx.st.CreateBlob(ctx, key); err != nil {
			return nil, err
		}
		for x := 0; x < faultExtents; x++ {
			if _, err := f.fx.st.WriteBlob(ctx, key, int64(x)*faultExtent, f.payload(b, x, 0)); err != nil {
				return nil, err
			}
		}
	}
	for id := 0; id < f.fg; id++ {
		c := &faultClient{id: id, buf: make([]byte, faultExtent), rng: rand.New(rand.NewSource(int64(e.seed)<<8 | int64(id)))}
		if e.tr != nil {
			c.ln = e.tr.newLane(1 << 16)
		}
		f.clients = append(f.clients, c)
	}
	f.resetLatencies()
	// Warm-up: whole rounds (the foreground's full pass and one of every
	// control action), then the two CheckpointAll.
	for i := 0; i < faultWarmRounds; i++ {
		if _, err := f.slice(false); err != nil {
			return nil, fmt.Errorf("fault-drill warm-up: %w", err)
		}
	}
	f.fx.warm()
	f.resetLatencies()
	f.refused.Store(0)
	f.predicted.Store(0)
	f.healthyRate, f.degradedRate = nil, nil
	f.base = map[string]int64{}
	for _, name := range faultCounters {
		f.base[name] = f.fx.st.Metrics().Counter(name).Value()
	}
	return f, nil
}

// layerMetrics reports the failure-domain counters per round.
func (f *fault) layerMetrics(out map[string]float64, rounds int) {
	per := func(n int64) float64 { return float64(n) / float64(max(1, rounds)) }
	count := func(name string) int64 { return f.fx.st.Metrics().Counter(name).Value() - f.base[name] }
	out["blob.degraded_over_healthy"] = medianF(f.degradedRate) / max(1, medianF(f.healthyRate))
	out["blob.write.degraded"] = per(count("blob.write.degraded"))
	out["blob.fault.retry"] = per(count("blob.fault.retry"))
	out["blob.repair.bytes"] = per(count("blob.repair.bytes") + count("blob.resync.bytes"))
	out["blob.write.refused"] = per(f.refused.Load())
	out["blob.write.refused_predicted"] = per(f.predicted.Load())
}

func (f *fault) fixture() *fixture { return f.fx }

func (f *fault) resetLatencies() []*latencies {
	var old []*latencies
	for _, c := range f.clients {
		old = append(old, c.lat)
		c.lat = newLatencies(1 << 16)
	}
	return old
}

func (f *fault) payload(blob, extent int, seq uint32) []byte {
	return f.env.pat.bytes(uint32(blob*faultExtents+extent), seq, 0, faultExtent)
}

// descPrimary predicts the node holding key's descriptor as primary, the
// way the store places it: the ring owner of hash("d:" + key).
func (f *fault) descPrimary(key string) cluster.NodeID {
	var owner [1]int
	f.twin.LocateHashNInto(chash.NewKeyHasher().String("d:").String(key).Sum(), owner[:])
	return cluster.NodeID(owner[0])
}

// generate scripts n ops for the client over the blobs it owns.
func (f *fault) generate(c *faultClient, n int) {
	c.script = c.script[:0]
	owned := (len(f.keys) - c.id + f.fg - 1) / f.fg
	for i := 0; i < n; i++ {
		r := c.rng.Uint32()
		c.script = append(c.script, faultOp{
			blob:   uint16(c.id + int(r>>8)%owned*f.fg),
			extent: uint8((r >> 4) % faultExtents),
			write:  r&1 == 1,
		})
	}
}

// run executes the client's script. down is the node currently down, -1
// when the cluster is healthy; record says whether latencies are kept.
func (f *fault) run(c *faultClient, ctx *storage.Context, traced bool, down cluster.NodeID, record bool) {
	st := f.store[0]
	if traced {
		st = f.store[1]
	}
	v := f.env.v
	for _, op := range c.script {
		b, x := int(op.blob), int(op.extent)
		key, off := f.keys[b], int64(x)*faultExtent
		t := time.Now()
		if op.write {
			seq := f.seqs[b][x] + 1
			_, err := st.WriteBlob(ctx, key, off, f.payload(b, x, seq))
			d := time.Since(t)
			mustRefuse := down >= 0 && f.descPrimary(key) == down
			if mustRefuse {
				f.predicted.Add(1)
			}
			switch {
			case err == nil && !mustRefuse:
				f.seqs[b][x] = seq
				c.writeBytes += faultExtent
				c.ops++
				if record {
					c.lat.write = append(c.lat.write, int64(d))
				}
			case errors.Is(err, storage.ErrUnavailable):
				c.refused++
				f.refused.Add(1)
				if !mustRefuse {
					v.fail("fault-drill: write of %s refused with node %d down, primary is node %d: %v", key, down, f.descPrimary(key), err)
				}
			default:
				v.fail("fault-drill: write of %s extent %d: err %v, refusal predicted %v", key, x, err, mustRefuse)
			}
			continue
		}
		n, err := st.ReadBlob(ctx, key, off, c.buf)
		d := time.Since(t)
		if err != nil || !f.env.pat.sample(uint32(b*faultExtents+x), f.seqs[b][x], 0, c.buf[:n], faultExtent) {
			v.fail("fault-drill: read of %s extent %d is not version %d (%d bytes, err %v)", key, x, f.seqs[b][x], n, err)
			continue
		}
		c.readBytes += int64(n)
		c.ops++
		if record {
			c.lat.read = append(c.lat.read, int64(d))
		}
	}
}

// phase runs one foreground sub-phase of n ops per client and returns its
// wall.
func (f *fault) phase(ctxs []*storage.Context, n int, traced bool, down cluster.NodeID, record bool) time.Duration {
	for _, c := range f.clients {
		f.generate(c, n)
	}
	t0 := time.Now()
	_ = runClients(f.fg, func(id int) error {
		c := f.clients[id]
		t := time.Now()
		f.run(c, ctxs[id], traced, down, record)
		if traced {
			c.ln.wall += time.Since(t)
		}
		return nil
	})
	return time.Since(t0)
}

// control times one parked control action.
func (f *fault) control(traced bool, name string, st *sliceStats, fn func() error) error {
	var p probe
	if traced {
		p = probe{f.env.tr, f.ctlLane}
	}
	before := f.fx.walBytes()
	i := p.begin(layerCtl, name)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	p.end(i, 0)
	p.wall(d)
	f.fx.ctl[name] = append(f.fx.ctl[name], d.Seconds())
	st.maintWall += d
	st.walGrowth += max(0, f.fx.walBytes()-before)
	return err
}

func (f *fault) slice(traced bool) (sliceStats, error) {
	fx := f.fx
	var st sliceStats
	ctxs := make([]*storage.Context, f.fg)
	for i, c := range f.clients {
		ctxs[i] = storage.NewContext()
		c.ops, c.refused, c.readBytes, c.writeBytes = 0, 0, 0, 0
		if traced {
			f.env.tr.bind(ctxs[i], c.ln)
		}
	}
	fx.cl.ResetStats()
	walStart := fx.walBytes()

	healthyWall := f.phase(ctxs, f.healthyOps, traced, -1, false)
	var healthyOps, healthyWrite int64
	for _, c := range f.clients {
		healthyOps += c.ops
		healthyWrite += c.writeBytes
		c.ops, c.readBytes, c.writeBytes = 0, 0, 0
	}

	serving := fx.st.ServingNodes()
	down := serving[f.round%len(serving)]
	moved := serving[(f.round+len(serving)/2)%len(serving)]
	f.round++
	fx.st.SetDown(down, true)
	st.fgWall = f.phase(ctxs, f.degradedOps, traced, down, true)
	st.writeWall, st.readWall = st.fgWall, st.fgWall
	for _, c := range f.clients {
		st.ops += c.ops
		st.readBytes += c.readBytes
		st.writeBytes += c.writeBytes
		f.env.v.add(c.ops + c.refused)
	}
	f.env.v.add(healthyOps)
	f.healthyRate = append(f.healthyRate, perSec(healthyOps, healthyWall))
	f.degradedRate = append(f.degradedRate, perSec(st.ops, st.fgWall))
	for _, ctx := range ctxs {
		st.sim = max(st.sim, ctx.Clock.Now())
	}
	st.walGrowth = fx.walBytes() - walStart

	err := f.control(traced, "repair", &st, func() error {
		fx.st.SetDown(down, false)
		if n := fx.st.RepairPending(); n != 0 {
			return fmt.Errorf("rejoin of node %d left %d chunks owing repair", down, n)
		}
		return nil
	})
	if err != nil {
		return st, err
	}

	victim := serving[0]
	for _, n := range serving {
		if fx.st.ChunkCount(n) > fx.st.ChunkCount(victim) {
			victim = n
		}
	}
	fx.ctlBytes["recover"] = append(fx.ctlBytes["recover"], float64(fx.st.WALSize(victim)))
	fx.st.Crash(victim)
	if err := f.control(traced, "recover", &st, func() error { return fx.st.Recover(victim) }); err != nil {
		return st, err
	}
	f.verify(false)

	mctx := storage.NewContext()
	if err := f.control(traced, "removeserver", &st, func() error { return fx.st.RemoveServer(mctx, moved) }); err != nil {
		return st, err
	}
	if err := f.control(traced, "addserver", &st, func() error { return fx.st.AddServer(mctx, moved) }); err != nil {
		return st, err
	}

	var p probe
	if traced {
		p = probe{f.env.tr, f.ctlLane}
	}
	wall, _ := fx.checkpoint(p)
	st.maintWall += wall
	// Log growth is counted against every user byte of the round.
	st.writeBytes += healthyWrite
	st.device(fx)
	return st, nil
}

// verify reads every extent back and checks it against the shadow table:
// a 64-byte sample, or every byte when full.
func (f *fault) verify(full bool) {
	ctx := storage.NewContext()
	buf := make([]byte, faultExtent)
	for b, key := range f.keys {
		for x := 0; x < faultExtents; x++ {
			n, err := f.fx.st.ReadBlob(ctx, key, int64(x)*faultExtent, buf)
			id, seq := uint32(b*faultExtents+x), f.seqs[b][x]
			ok := err == nil && f.env.pat.sample(id, seq, 0, buf[:n], faultExtent)
			if ok && full {
				ok = f.env.pat.full(id, seq, 0, buf)
			}
			f.env.v.add(1)
			if !ok {
				f.env.v.fail("fault-drill: %s extent %d does not hold acknowledged version %d (err %v)", key, x, seq, err)
			}
		}
	}
}

func (f *fault) epilogue() error {
	f.verify(true)
	if msg := f.fx.st.CheckInvariants(); msg != "" {
		f.env.v.fail("fault-drill: store invariant: %s", msg)
	}
	return nil
}

// liveMigration is the final sub-phase of the traced run: one
// RemoveServer/AddServer cycle under live foreground traffic. Its timing
// is interference-bound and its stale-read class is scheduler-dependent
// (ROADMAP item 1), so it reports per-layer numbers only and its failures
// stay out of the run's verdict.
func (f *fault) liveMigration(values map[string]float64) error {
	saved := f.env.v
	f.env.v = &verdict{}
	defer func() { f.env.v = saved }()
	ctxs := make([]*storage.Context, f.fg)
	for i := range ctxs {
		ctxs[i] = storage.NewContext()
	}
	f.resetLatencies()
	f.phase(ctxs, f.healthyOps, false, -1, true)
	_, _, base := mergeLatencies(f.resetLatencies())

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = runClients(f.fg, func(id int) error {
			c := f.clients[id]
			for !stop.Load() {
				f.generate(c, 64)
				f.run(c, ctxs[id], false, -1, true)
			}
			return nil
		})
	}()
	serving := f.fx.st.ServingNodes()
	moved := serving[f.round%len(serving)]
	mctx := storage.NewContext()
	t0 := time.Now()
	err := f.fx.st.RemoveServer(mctx, moved)
	if err == nil {
		err = f.fx.st.AddServer(mctx, moved)
	}
	wall := time.Since(t0)
	stop.Store(true)
	<-done
	if err != nil {
		return err
	}
	_, _, live := mergeLatencies(f.resetLatencies())
	values["blob.migrate.live.s"] = wall.Seconds()
	values["blob.migrate.live.fg_p50_ratio"] = quantile(live, 0.5) / max(1, quantile(base, 0.5))
	values["blob.migrate.live.fg_p99_ratio"] = quantile(live, 0.99) / max(1, quantile(base, 0.99))
	values["blob.migrate.live.failed"] = float64(f.env.v.failed)
	if f.env.v.first != "" {
		fmt.Printf("# live migration, first failure (not counted): %s\n", f.env.v.first)
	}
	return nil
}
