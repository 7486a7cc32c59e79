// rebalance_crash_test.go pins the crash-safety and liveness claims of the
// epoch-versioned migration protocol (rebalance.go):
//
//   - TestMigrationCrashSweep{Add,Remove} crash the WHOLE cluster after every
//     append from the durable intent on — the sweep's, the drain's and each
//     server's RecMigrateEnd — and at every batch boundary, and at a torn
//     variant of each, the crash landing inside the last medium write — for
//     Replication 1, 2 and 3, then recover every node and require the
//     open intent to roll forward to a placement satisfying CheckInvariants,
//     with every blob byte-identical to the pre-migration oracle, on both
//     the parallel and serial recovery paths (byte-identical to each other:
//     state AND repaired media).
//   - TestMigrationCheckpointCarriesIntent checkpoints mid-migration (the
//     quiescent gap between two batches) and crashes after: the compacted
//     logs must still replay an open RecMigrateBegin — the planner re-logs
//     it ahead of the snapshot — and roll forward.
//   - TestRemoveServerResetsWAL: a drained node's lanes are reset once it
//     holds nothing, so a later crash/recover cycle cannot resurrect
//     pre-drain state; a node still holding a copy no owner can take keeps
//     its log and the open intent until the owners come back.
//   - TestMigrationThrottle pins the token bucket in virtual time.
//   - TestMigrationUnderLiveTraffic runs concurrent foreground readers and
//     writers (plain and 2PC) across a live join and drain, requiring every
//     write to succeed and every read to be read-your-writes exact — the
//     zero-stale-reads contract.
//   - FuzzRebalanceCrash drives fuzzer-chosen workloads into a membership
//     change at a fuzzer-chosen Replication, crashes after a fuzzer-chosen
//     record with an optional torn tail, and requires recovery equivalence
//     plus oracle-exact contents.
package blob

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// captureAllLanes snapshots every server's full lane media.
func captureAllLanes(s *Store) [][][]byte {
	out := make([][][]byte, len(s.servers))
	for i, sv := range s.servers {
		out[i] = captureLanes(sv)
	}
	return out
}

func restoreAllLanes(s *Store, snap [][][]byte) {
	for i, sv := range s.servers {
		restoreLanes(sv, snap[i])
	}
}

// tearMigrationTails chops 3 bytes off the tail of every lane that grew
// past its pre-migration length `base` — the whole-cluster crash landing
// mid-append of the migration's own last record per lane. Only
// migration-era records may tear: the seed workload's history was
// acknowledged long before the crash, so a tear landing there would be an
// illegitimate medium state, not a crash. One witness server is skipped
// entirely: a crash that tears the intent record on EVERY server makes the
// membership change itself non-durable, which the store-global ring (whose
// membership is durable out of band) cannot represent.
//
// This is harsher than any crash: the sweep has one write in flight, so only
// one lane can really tear, and the others' last records returned long ago.
// With Replication >= 2 an untouched owner of every chunk survives it anyway
// (one membership change moves at most one owner per chunk). With
// Replication 1 it is not a legal image: it can tear a gained owner's install
// whose stray, acting on that install's return, already logged its drop
// beneath a later record — leaving the chunk nowhere.
func tearMigrationTails(s *Store, base [][][]byte, witness int) {
	for i, sv := range s.servers {
		if i == witness {
			continue
		}
		for lane := 0; lane < sv.wal.Lanes(); lane++ {
			lb := sv.wal.LaneBuffer(lane)
			if lb.Len() >= len(base[i][lane])+3 {
				lb.Truncate(lb.Len() - 3)
			}
		}
	}
}

// crashRecoverAll crashes every node from the current media and recovers
// them all; the last Recover triggers the migration roll-forward if an
// intent replayed open.
func crashRecoverAll(t testing.TB, s *Store, serial bool) {
	t.Helper()
	for si := range s.servers {
		s.Crash(cluster.NodeID(si))
	}
	s.serialRecovery = serial
	for si := range s.servers {
		if err := s.Recover(cluster.NodeID(si)); err != nil {
			t.Fatalf("recover node %d (serial=%v): %v", si, serial, err)
		}
	}
	s.serialRecovery = false
}

// crashImage is one whole-cluster crash point of a membership change: every
// server's lane media as some append returned. node and lane locate that
// append — the one write in flight under InlineFanout; node < 0 marks a
// quiescent batch boundary instead.
type crashImage struct {
	media      [][][]byte
	node, lane int
}

// captureMigration runs one membership change of node 4 and returns a crash
// image at every batch boundary — the first being "intent durable, no
// batch" — after every append from there on, each located by its append
// event's node and lane, and at completion. The pre-intent state is NOT a
// valid crash image: the ring is store-global (membership is assumed durable
// out of band), so the earliest representable crash is "intent logged".
func captureMigration(t testing.TB, s *Store, m *refModel, ctx *storage.Context, remove bool) []crashImage {
	var images []crashImage
	s.Observe(func(ev Event) {
		m.observe(ev)
		switch {
		case ev.Kind == EventBatch:
			images = append(images, crashImage{captureAllLanes(s), -1, 0})
		case images != nil: // past batch -1, so not the intent itself
			images = append(images, crashImage{captureAllLanes(s), int(ev.Node), ev.Lane})
		}
	})
	defer s.Observe(m.observe)
	var err error
	if remove {
		err = s.RemoveServer(ctx, 4)
	} else {
		err = s.AddServer(ctx, 4)
	}
	if err != nil {
		t.Fatal(err)
	}
	return append(images, crashImage{captureAllLanes(s), -1, 0}) // completed (End logged)
}

// restore rewrites the cluster's media to the image. torn lands the crash
// inside the last medium write: the record whose append produced the image,
// or at a boundary — where nothing is in flight — every lane the migration
// grew past base, which only Replication >= 2 survives (tearMigrationTails).
func (img crashImage) restore(s *Store, base [][][]byte, torn bool) {
	restoreAllLanes(s, img.media)
	switch {
	case !torn:
	case img.node >= 0:
		lb := s.servers[img.node].wal.LaneBuffer(img.lane)
		lb.Truncate(lb.Len() - 3)
	case s.cfg.Replication >= 2:
		tearMigrationTails(s, base, 0)
	}
}

// runMigrationCrashSweep seeds a cluster, runs one membership change while
// capturing full cluster media after every record, then replays each capture
// (and its torn variant) as a whole-cluster crash.
func runMigrationCrashSweep(t *testing.T, replication int, remove bool) {
	c := cluster.New(cluster.Config{Nodes: 5, Seed: 91})
	initial := []cluster.NodeID{0, 1, 2, 3}
	if remove {
		initial = []cluster.NodeID{0, 1, 2, 3, 4}
	}
	// InlineFanout: one append is in flight at a time, so a media capture as
	// it returns is a consistent whole-cluster crash image, and the
	// roll-forward's own appends replay deterministically.
	s := NewOnNodes(c, Config{ChunkSize: 64, Replication: replication, WALLanes: 4,
		InlineFanout: true, MigrationBatchChunks: 4}, initial)
	ctx := storage.NewContext()
	m := seedBlobs(t, s, 24)

	base := captureAllLanes(s)
	images := captureMigration(t, s, m, ctx, remove)
	boundaries := 0
	for _, img := range images {
		if img.node < 0 {
			boundaries++
		}
	}
	if boundaries < 4 || len(images) < 4*boundaries {
		t.Fatalf("migration produced %d images over %d batch boundaries; workload too small to sweep", len(images), boundaries-2)
	}
	t.Logf("%d crash images, %d of them batch boundaries", len(images), boundaries)

	for si, img := range images {
		for _, torn := range []bool{false, true} {
			// Parallel recovery first.
			img.restore(s, base, torn)
			crashRecoverAll(t, s, false)
			if s.migIntent.Load() != nil {
				t.Fatalf("image %d torn=%v: migration intent still open after recovery", si, torn)
			}
			if msg := s.CheckInvariants(); msg != "" {
				t.Fatalf("image %d torn=%v: invariants: %s", si, torn, msg)
			}
			checkDurable(t, s, m)
			if remove {
				if s.DescriptorCount(4)+s.ChunkCount(4) != 0 {
					t.Fatalf("image %d torn=%v: drained node holds data after roll-forward", si, torn)
				}
			}
			parallel := make([]nodeState, len(s.servers))
			for ni, sv := range s.servers {
				parallel[ni] = captureNode(sv)
			}

			// The identical crash through the serial oracle must land on
			// identical bytes everywhere — state and repaired media, including
			// the roll-forward's own appends.
			img.restore(s, base, torn)
			crashRecoverAll(t, s, true)
			for ni, sv := range s.servers {
				serial := captureNode(sv)
				if !reflect.DeepEqual(parallel[ni], serial) {
					t.Fatalf("image %d torn=%v: node %d diverges between parallel and serial recovery\nparallel descs %v chunks %d\nserial   descs %v chunks %d",
						si, torn, ni, parallel[ni].descs, len(parallel[ni].chunks),
						serial.descs, len(serial.chunks))
				}
			}
		}
	}
}

func sweepReplications(t *testing.T, remove bool) {
	for r := 1; r <= 3; r++ {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) { runMigrationCrashSweep(t, r, remove) })
	}
}

func TestMigrationCrashSweepAdd(t *testing.T)    { sweepReplications(t, false) }
func TestMigrationCrashSweepRemove(t *testing.T) { sweepReplications(t, true) }

// TestMigrationCheckpointCarriesIntent checkpoints in the quiescent gap
// between two migration batches — which resets every lane — and crashes
// right after. The compacted logs must still replay the open intent (the
// checkpoint planner re-logs RecMigrateBegin ahead of the snapshot) and the
// recovery roll-forward must complete the migration.
func TestMigrationCheckpointCarriesIntent(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 5, Seed: 23})
	s := NewOnNodes(c, Config{ChunkSize: 64, Replication: 2, WALLanes: 4,
		InlineFanout: true, MigrationBatchChunks: 4}, []cluster.NodeID{0, 1, 2, 3})
	ctx := storage.NewContext()
	m := seedBlobs(t, s, 24)

	var snap [][][]byte
	s.Observe(func(ev Event) {
		m.observe(ev)
		if ev.Kind == EventBatch && ev.Batch == 1 {
			s.CheckpointAll()
			snap = captureAllLanes(s)
		}
	})
	if err := s.AddServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	s.Observe(m.observe)
	if snap == nil {
		t.Fatal("migration finished before batch 1; workload too small")
	}

	restoreAllLanes(s, snap)
	crashRecoverAll(t, s, false)
	if s.migIntent.Load() != nil {
		t.Fatal("intent not closed after post-checkpoint crash recovery")
	}
	checkSound(t, s, m)
	if s.DescriptorCount(4)+s.ChunkCount(4) == 0 {
		t.Fatal("joined server received no data through the roll-forward")
	}
}

// TestRemoveServerResetsWAL pins the drain-the-logs fix: after RemoveServer
// the drained node's lanes are empty, and a crash/recover cycle of the whole
// cluster resurrects none of its pre-drain state. In "only-copy-blocked" the
// drained node holds a copy no owner can take — each is faulted, two are down
// — so the node keeps its copy, its log and the open intent until the owners
// come back up, and only then is reset.
func TestRemoveServerResetsWAL(t *testing.T) {
	for _, row := range []struct {
		name string
		// drain builds a store and drains one node; heal, when set, is what
		// the drain waits for before it can finish.
		drain func(t *testing.T) (s *Store, node cluster.NodeID, verify func())
		heal  func(s *Store)
	}{
		{"fault-free", func(t *testing.T) (*Store, cluster.NodeID, func()) {
			c := cluster.New(cluster.Config{Nodes: 4, Seed: 6})
			s := New(c, Config{ChunkSize: 64, Replication: 2, WALLanes: 4, InlineFanout: true})
			m := seedBlobs(t, s, 20)
			if err := s.RemoveServer(storage.NewContext(), 1); err != nil {
				t.Fatal(err)
			}
			return s, 1, func() { checkSound(t, s, m) }
		}, nil},
		{"only-copy-blocked", func(t *testing.T) (*Store, cluster.NodeID, func()) {
			s, m := onlyCopyOnNode4(t)
			faultK3Owners(s)
			if err := s.RemoveServer(storage.NewContext(), 4); err != nil {
				t.Fatal(err)
			}
			return s, 4, func() { checkSound(t, s, m) }
		}, func(s *Store) {
			s.cluster.SetFaultInjector(nil)
			s.SetDown(1, false)
			s.SetDown(0, false)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, node, verify := row.drain(t)
			if row.heal != nil {
				if recs, err := s.LogRecords(node); err != nil || len(recs) == 0 || s.migIntent.Load() == nil {
					t.Fatalf("drain with its only copy blocked: %d log records (%v), intent %v; want the log and the intent kept",
						len(recs), err, s.migIntent.Load())
				}
				row.heal(s)
				if s.migIntent.Load() != nil {
					t.Fatal("the drain's intent is still open after the owners came back")
				}
			}
			recs, err := s.LogRecords(node)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("drained node's WAL still holds %d records (first: %v)", len(recs), recs[0].Type)
			}
			crashRecoverAll(t, s, false)
			if got := s.DescriptorCount(node) + s.ChunkCount(node); got != 0 {
				t.Fatalf("crash/recover resurrected %d objects on the drained node", got)
			}
			if len(s.ServingNodes()) != len(s.servers)-1 {
				t.Fatalf("serving nodes = %v", s.ServingNodes())
			}
			verify()
		})
	}
}

// TestMigrationThrottle pins the token bucket: the same join under a tight
// migrationRate must charge more virtual time to the migration caller
// than under an effectively unlimited rate.
func TestMigrationThrottle(t *testing.T) {
	run := func(rate int) int64 {
		c := cluster.New(cluster.Config{Nodes: 5, Seed: 9})
		s := NewOnNodes(c, Config{ChunkSize: 64, Replication: 2, WALLanes: 4,
			InlineFanout: true}, []cluster.NodeID{0, 1, 2, 3})
		s.migrationRate = rate
		ctx := storage.NewContext()
		seedBlobs(t, s, 30)
		start := ctx.Clock.Now()
		if err := s.AddServer(ctx, 4); err != nil {
			t.Fatal(err)
		}
		return int64(ctx.Clock.Now() - start)
	}
	throttled := run(256)
	unthrottled := run(1 << 30)
	if throttled <= unthrottled {
		t.Fatalf("throttled join (%d) not slower than unthrottled (%d)", throttled, unthrottled)
	}
	// The deficit sleeps are whole migrationTicks; a 256 B/tick budget
	// against kilobytes of moved chunks must cost at least a few.
	if throttled-unthrottled < 3*int64(migrationTick) {
		t.Fatalf("throttle charged only %d over the unthrottled join", throttled-unthrottled)
	}
}

// TestMigrationUnderLiveTraffic is the online-elasticity contract test:
// foreground readers and writers run full-speed across a live join and a
// live drain. Every write must succeed (nothing is down), and every read
// must return exactly the worker's last acknowledged bytes — never a stale
// or empty copy from a mid-handover replica.
func TestMigrationUnderLiveTraffic(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 6, Seed: 17})
	s := NewOnNodes(c, Config{ChunkSize: 32, Replication: 3, MigrationBatchChunks: 2},
		[]cluster.NodeID{0, 1, 2, 3, 4})
	m := newModel(s)
	ctx := storage.NewContext()

	const workers = 4
	keys := []string{"live-0", "live-1", "live-2", "live-3", "live-ro"}
	for w, key := range keys {
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteBlob(ctx, key, 0, pattern(w, 200+100*(w/workers))); err != nil {
			t.Fatal(err) // multi-chunk from the start
		}
	}

	// Stretch the sweep in real time so the workers genuinely interleave
	// with every migration stage. This test asserts model equality, not
	// timing, so the real-time pacing cannot leak into any replayed log.
	s.Observe(func(ev Event) {
		m.observe(ev)
		if ev.Kind == EventBatch {
			//blobvet:allow virtualtime test-only real-time pacing to force goroutine interleaving; assertions are model-based, not timing-based
			time.Sleep(200 * time.Microsecond)
		}
	})
	// read requires key to read back exactly as the model holds it.
	read := func(wctx *storage.Context, key string) error {
		want, _ := m.data(key)
		got := make([]byte, len(want))
		if _, err := s.ReadBlob(wctx, key, 0, got); err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("read %q: %v, stale: %v", key, err, !bytes.Equal(got, want))
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := storage.NewContext()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.WriteBlob(wctx, keys[w], int64((i*17)%180), pattern(w*31+i, 30+i%70)); err != nil {
					t.Errorf("worker %d write %d during migration: %v", w, i, err)
					return
				}
				if err := errors.Join(read(wctx, keys[w]), read(wctx, "live-ro")); err != nil {
					t.Errorf("worker %d op %d during migration: %v", w, i, err)
					return
				}
			}
		}()
	}
	if err := s.AddServer(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveServer(ctx, 0); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	s.Observe(m.observe)
	if t.Failed() {
		return
	}

	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	checkDurable(t, s, m)
	if s.DescriptorCount(0)+s.ChunkCount(0) != 0 {
		t.Fatal("drained node still holds data")
	}
}

// FuzzRebalanceCrash: a fuzzer-derived workload, then a membership change at
// a fuzzer-chosen Replication crashed after a fuzzer-chosen record (optionally
// torn). Recovery must close the intent, satisfy the invariants, serve every
// blob oracle-exact, and agree byte-for-byte between the parallel and serial
// paths. Registered alongside the other Fuzz targets in
// scripts/benchcheck.sh's fuzz loop.
func FuzzRebalanceCrash(f *testing.F) {
	// replicas 1 is Replication 2, what every seed ran under before the
	// fuzzer chose it.
	f.Add([]byte{}, uint32(0), false, false, uint8(1))
	f.Add([]byte{0, 0, 0, 1, 0, 120, 0, 1, 0, 1, 1, 70, 1, 0, 40}, uint32(1), false, false, uint8(1))
	f.Add([]byte{0, 0, 0, 1, 0, 200, 0, 1, 0, 1, 1, 90, 3, 0, 50, 1, 2, 0, 1, 2, 60}, uint32(2), true, true, uint8(1))
	f.Add([]byte{0, 0, 0, 1, 0, 90, 5, 0, 0, 1, 0, 80, 0, 1, 0, 1, 1, 100}, uint32(0), false, true, uint8(1))

	f.Fuzz(func(t *testing.T, script []byte, crashAt uint32, torn, remove bool, replicas uint8) {
		initial := []cluster.NodeID{0, 1, 2, 3}
		if remove {
			initial = []cluster.NodeID{0, 1, 2, 3, 4}
		}
		s := NewOnNodes(cluster.New(cluster.Config{Nodes: 5, Seed: 3}),
			Config{ChunkSize: 32, Replication: 1 + int(replicas)%3, WALLanes: 4,
				InlineFanout: true, MigrationBatchChunks: 3}, initial)
		ctx := storage.NewContext()
		m := runScript(t, s, []string{"m0", "m1", "m2"}, script)

		base := captureAllLanes(s)
		images := captureMigration(t, s, m, ctx, remove)
		img := images[int(crashAt)%len(images)]

		check := func(serial bool) []nodeState {
			img.restore(s, base, torn)
			crashRecoverAll(t, s, serial)
			if s.migIntent.Load() != nil {
				t.Fatalf("serial=%v: intent still open after recovery", serial)
			}
			if msg := s.CheckInvariants(); msg != "" {
				t.Fatalf("serial=%v: invariants: %s", serial, msg)
			}
			checkDurable(t, s, m)
			states := make([]nodeState, len(s.servers))
			for ni, sv := range s.servers {
				states[ni] = captureNode(sv)
			}
			return states
		}
		parallel := check(false)
		serial := check(true)
		for ni := range parallel {
			if !reflect.DeepEqual(parallel[ni], serial[ni]) {
				t.Fatalf("node %d diverges between parallel and serial recovery", ni)
			}
		}
	})
}
