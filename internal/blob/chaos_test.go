package blob

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Chaos battery: randomized, seeded fault schedules — down/up flaps,
// transient and slow injected faults, crashes with torn WAL lane tails —
// under a concurrent mixed workload of single-chunk writes, multi-chunk
// (2PC) writes, and verifying reads. The schedule is seeded
// but its interleaving is scheduler-dependent (see cluster.FaultPlan), so
// every assertion is schedule-independent:
//
//   - a read that succeeds returns exactly the worker's last acknowledged
//     content for that key — NEVER stale bytes from a rejoined replica;
//   - at every burst's quiescent end (heal, then one node's crash and
//     recovery), the invariants hold and the durability ledger finds every
//     acknowledged write (checkDurable against the op-event model), and a
//     failed write changed nothing;
//   - after the final heal + repair, debt is zero, replicas are
//     byte-identical (CheckInvariants strict mode) and the ledger holds;
//   - a full crash/recover cycle of every node reproduces that state from
//     the WALs alone, on both the parallel and serial recovery paths
//     (alternated by seed), and so does a cold restart from the lane bytes
//     alone (coldCopy).
//
// Each worker owns a disjoint key, so what it reads back is the model's
// bytes for that key, with no cross-worker ordering assumptions.
func TestChaosBattery(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 32
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%03d", seed), func(t *testing.T) {
			runChaosSchedule(t, uint64(seed))
		})
	}
}

var errChaosTransient = errors.New("chaos: injected transient fault")

// chaosFlaps coordinates concurrent down/up flapping so at most maxDown
// nodes are down at once (keeping a live owner per chunk most of the time
// without making every op fail).
type chaosFlaps struct {
	mu   sync.Mutex
	s    *Store
	down map[int]bool
	act  func(format string, args ...any)
}

func (f *chaosFlaps) setDown(node int, down bool) {
	f.act("SetDown(%d, %v)", node, down)
	f.s.SetDown(cluster.NodeID(node), down) // up triggers the repair pass
}

func (f *chaosFlaps) flap(node int, maxDown int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[node] {
		delete(f.down, node)
		f.setDown(node, false)
		return
	}
	if len(f.down) >= maxDown {
		return
	}
	f.down[node] = true
	f.setDown(node, true)
}

func (f *chaosFlaps) healAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for node := range f.down {
		delete(f.down, node)
		f.setDown(node, false)
	}
}

func runChaosSchedule(t *testing.T, seed uint64) {
	const (
		nodes   = 5
		workers = 4
		bursts  = 3
		opsPer  = 16
		maxDown = 2
	)
	cfg := Config{ChunkSize: 16, Replication: 3}
	s := New(cluster.New(cluster.Config{Nodes: nodes, Seed: seed + 7}), cfg)
	s.serialRecovery = seed%2 == 1
	// A failing seed prints every store event, by value, and the battery's own
	// actions, in arrival order. An append's node, lane and order keys address
	// its records in dumpChunkState's log lines.
	type step struct {
		ev  Event
		act string
	}
	var histMu sync.Mutex
	var hist []step
	record := func(st step) {
		histMu.Lock()
		hist = append(hist, st)
		histMu.Unlock()
	}
	act := func(format string, args ...any) { record(step{act: fmt.Sprintf(format, args...)}) }
	m := newModel(s)
	s.Observe(func(ev Event) { m.observe(ev); record(step{ev: ev}) })
	defer func() {
		if !t.Failed() {
			return
		}
		for _, st := range hist {
			if st.act != "" {
				t.Log("act:", st.act)
			} else {
				t.Logf("event: %+v", st.ev)
			}
		}
	}()
	ctx := storage.NewContext()
	rng := sim.NewRNG(seed*0x9e3779b9 + 1)

	keys := make([]string, workers)
	for w := 0; w < workers; w++ {
		keys[w] = fmt.Sprintf("chaos-%d", w)
		if err := s.CreateBlob(ctx, keys[w]); err != nil {
			t.Fatal(err)
		}
	}
	flaps := &chaosFlaps{s: s, down: make(map[int]bool), act: act}

	// On every fifth seed a membership actor joins the schedule: node 4 is
	// drained out of and re-added to the ring WHILE the workers, flaps, and
	// fault injection run — live elasticity under chaos. The flaps (and the
	// burst-end crash victim) then stay off node 4 so the drain/join target
	// itself is up; everything around it may still fail, so migrations hit
	// down owners and record repair debt that the heal must drain.
	membership := seed%5 == 0
	flapRange := nodes
	if membership {
		flapRange = nodes - 1
	}

	for b := 0; b < bursts; b++ {
		// Transient + slow noise on every op class for the burst's duration.
		s.cluster.SetFaultInjector(cluster.NewFaultPlan(seed*1000+uint64(b), []cluster.FaultRule{
			{Node: -1, Kind: cluster.FaultDiskWrite, Prob: 0.03, Fault: cluster.Fault{Err: errChaosTransient, Transient: true}},
			{Node: -1, Kind: cluster.FaultDiskRead, Prob: 0.03, Fault: cluster.Fault{Err: errChaosTransient, Transient: true}},
			{Node: -1, Kind: cluster.FaultMetaOp, Prob: 0.02, Fault: cluster.Fault{Err: errChaosTransient, Transient: true}},
			{Node: -1, Kind: cluster.FaultAny, Prob: 0.05, Fault: cluster.Fault{Slow: time.Millisecond}},
		}))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wrng := rng.Fork()
			wg.Add(1)
			go func() {
				defer wg.Done()
				wctx := storage.NewContext()
				for op := 0; op < opsPer; op++ {
					if wrng.Float64() < 0.15 {
						flaps.flap(wrng.Intn(flapRange), maxDown)
					}
					switch {
					case wrng.Float64() < 0.55: // write (single- or multi-chunk)
						off := int64(0)
						if cur, _ := m.data(keys[w]); len(cur) > 0 {
							off = int64(wrng.Intn(len(cur) + 24))
						}
						data := make([]byte, 1+wrng.Intn(40))
						wrng.Fill(data)
						s.WriteBlob(wctx, keys[w], off, data)
					default: // verifying read
						want, _ := m.data(keys[w])
						if len(want) == 0 {
							continue
						}
						got := make([]byte, len(want))
						n, err := s.ReadBlob(wctx, keys[w], 0, got)
						if err != nil {
							continue // unavailability is allowed; staleness is not
						}
						if n != len(got) || !bytes.Equal(got, want) {
							t.Errorf("seed %d worker %d: stale read: got %d bytes %q, want %q",
								seed, w, n, got, want)
							dumpChunkState(t, s, keys[w], got, want)
							return
						}
					}
				}
			}()
		}
		if membership {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mctx := storage.NewContext()
				if s.serving(4) {
					act("RemoveServer(4)")
					if err := s.RemoveServer(mctx, 4); err != nil {
						t.Errorf("seed %d: remove node 4: %v", seed, err)
					}
				} else {
					act("AddServer(4)")
					if err := s.AddServer(mctx, 4); err != nil {
						t.Errorf("seed %d: add node 4: %v", seed, err)
					}
				}
			}()
		}
		wg.Wait()
		s.cluster.SetFaultInjector(nil)
		if t.Failed() {
			return
		}

		// Quiescent barrier: heal every flapped node (repair pass runs per
		// rejoin), then crash one node — sometimes with a torn lane tail —
		// and recover it against its live peers.
		flaps.healAll()
		if rng.Float64() < 0.7 {
			victim := rng.Intn(flapRange)
			sv := s.servers[victim]
			if rng.Float64() < 0.5 {
				lane := rng.Intn(sv.wal.Lanes())
				if buf := sv.wal.LaneBuffer(lane); buf.Len() > 4 {
					buf.Truncate(buf.Len() - 1 - rng.Intn(3))
					act("tear node %d lane %d to %d bytes", victim, lane, buf.Len())
				}
			}
			act("Crash(%d), Recover(%d)", victim, victim)
			s.Crash(cluster.NodeID(victim))
			if err := s.Recover(cluster.NodeID(victim)); err != nil {
				t.Fatalf("seed %d: recover node %d: %v", seed, victim, err)
			}
		}
		checkSound(t, s, m)
	}

	// Re-seat node 4 if the last burst left it drained: the convergence
	// checks below must cover a cluster that went through a full
	// remove/add round trip.
	if membership && !s.serving(4) {
		act("AddServer(4)")
		if err := s.AddServer(ctx, 4); err != nil {
			t.Fatalf("seed %d: re-add node 4: %v", seed, err)
		}
	}

	// Heal everything, drain every remaining debt entry, and require full
	// convergence: no debt, byte-identical replicas, the model's content.
	flaps.healAll()
	s.Repair(ctx)
	if n := s.RepairPending(); n != 0 {
		t.Fatalf("seed %d: repair debt outstanding after heal: %d", seed, n)
	}
	checkSound(t, s, m)

	// Total power loss: every node rebuilds from its WAL alone and the
	// converged state must come back exactly (serial recovery on odd seeds).
	act("Crash and Recover every node")
	for n := 0; n < nodes; n++ {
		s.Crash(cluster.NodeID(n))
	}
	for n := 0; n < nodes; n++ {
		if err := s.Recover(cluster.NodeID(n)); err != nil {
			t.Fatalf("seed %d: full recover node %d: %v", seed, n, err)
		}
	}
	checkSound(t, s, m)
	checkSound(t, coldCopy(t, s), m)
}

// dumpChunkState prints, for every chunk of key where got and want differ,
// the chunk's repair-debt entry, and every non-wiped holder's version, down
// state, bytes and log history — the diagnostic for a stale-read failure.
func dumpChunkState(t *testing.T, s *Store, key string, got, want []byte) {
	t.Helper()
	cs := int64(s.cfg.ChunkSize)
	t.Logf("repairPending=%d intent=%+v", s.RepairPending(), s.migIntent.Load())
	for idx := int64(0); idx*cs < int64(len(want)); idx++ {
		lo := idx * cs
		hi := lo + cs
		if hi > int64(len(want)) {
			hi = int64(len(want))
		}
		g := got[lo:min(hi, int64(len(got)))]
		if int64(len(got)) >= hi && bytes.Equal(g, want[lo:hi]) {
			continue
		}
		id := chunkID{key, idx}
		h := id.ringHash()
		owners := s.ownersForHash(h)
		e := s.debt.entry(h, id)
		t.Logf("chunk %d (owners %v, debt %b need v%d): got %x want %x", idx, owners, e.mask, e.need, g, want[lo:hi])
		for i, sv := range s.servers {
			data, ver, ok := sv.chunkData(h, id)
			if sv.isWiped() || !ok && !containsNode(owners, i) {
				continue
			}
			t.Logf("  node %d: owner=%v down=%v ver=%d present=%v data=%x",
				i, containsNode(owners, i), sv.isDown(), ver, ok, data)
			var hist []string
			sv.wal.ReplayMerged(func(rec wal.Record) error {
				rid, within, rver, rdata, err := decChunkPayload(rec.Bytes())
				if err != nil || rid != id {
					return nil
				}
				hist = append(hist, fmt.Sprintf("%d:%v(w=%d v=%d len=%d)", rec.LSN, rec.Type, within, rver, len(rdata)))
				return nil
			})
			t.Logf("    log, lane %d, key:record: %v", sv.chunkLane(h), hist)
		}
	}
}

// TestSetDownFlapRace pins, under the race detector, that SetDown flapping
// is safe concurrently with reads, writes, and the repair passes rejoins
// trigger. Content correctness is covered by the chaos battery; this test
// exists to give -race a dense interleaving of exactly the flap paths.
func TestSetDownFlapRace(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 16, Replication: 3})
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "flap"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, "flap", 0, bytes.Repeat([]byte("a"), 64)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // flapper: one node at a time bounces
		defer wg.Done()
		rng := sim.NewRNG(9)
		for i := 0; i < 200; i++ {
			node := cluster.NodeID(rng.Intn(4))
			s.SetDown(node, true)
			s.SetDown(node, false)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRNG(uint64(100 + g))
			gctx := storage.NewContext()
			buf := make([]byte, 64)
			for i := 0; i < 150; i++ {
				if rng.Float64() < 0.5 {
					data := make([]byte, 1+rng.Intn(48))
					rng.Fill(data)
					s.WriteBlob(gctx, "flap", int64(rng.Intn(40)), data)
				} else {
					s.ReadBlob(gctx, "flap", 0, buf)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	// Converge and check.
	for n := 0; n < 4; n++ {
		s.SetDown(cluster.NodeID(n), false)
	}
	s.Repair(ctx)
	if n := s.RepairPending(); n != 0 {
		t.Fatalf("repair debt outstanding after flapping: %d", n)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
