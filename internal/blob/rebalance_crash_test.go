// rebalance_crash_test.go pins the crash-safety and liveness claims of the
// epoch-versioned migration protocol (rebalance.go):
//
//   - TestMigrationCrashSweep{Add,Remove} crash the WHOLE cluster after every
//     record the sweep appends and at every batch boundary — and at a torn
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
//   - TestRemoveServerResetsWAL is the satellite regression: a drained
//     node's lanes are reset with its memory, so a later crash/recover
//     cycle cannot resurrect pre-drain state.
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
func crashRecoverAll(t *testing.T, s *Store, serial bool) {
	t.Helper()
	for si := range s.servers {
		s.Crash(cluster.NodeID(si))
	}
	s.cfg.SerialRecovery = serial
	for si := range s.servers {
		if err := s.Recover(cluster.NodeID(si)); err != nil {
			t.Fatalf("recover node %d (serial=%v): %v", si, serial, err)
		}
	}
	s.cfg.SerialRecovery = false
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
// image after every record its sweep appends (the data plane's trace fires
// right after each descriptor handover and each chunk install, drop and debt
// append, naming node, key and — for a chunk — its index), at every
// batch boundary — the first being "intent durable, no batch" — and at
// completion. The pre-intent state is NOT a valid crash image: the ring is
// store-global (membership is assumed durable out of band), so the earliest
// representable crash is "intent logged".
func captureMigration(t testing.TB, s *Store, ctx *storage.Context, remove bool) []crashImage {
	var images []crashImage
	s.cfg.MigrationBatchHook = func(int) { images = append(images, crashImage{captureAllLanes(s), -1, 0}) }
	chaosTrace = func(ev traceEvent) {
		sv := s.servers[ev.node]
		lane := sv.metaLane(ev.key)
		if ev.chunk {
			lane = sv.chunkLane(chunkID{ev.key, ev.idx}.ringHash())
		}
		images = append(images, crashImage{captureAllLanes(s), int(sv.node), lane})
	}
	defer func() { s.cfg.MigrationBatchHook, chaosTrace = nil, nil }()
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
	expect := seedBlobs(t, s, ctx, 24)

	base := captureAllLanes(s)
	images := captureMigration(t, s, ctx, remove)
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
			verifyBlobs(t, s, ctx, expect)
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
	expect := seedBlobs(t, s, ctx, 24)

	var snap [][][]byte
	s.cfg.MigrationBatchHook = func(batch int) {
		if batch == 1 {
			s.CheckpointAll()
			snap = captureAllLanes(s)
		}
	}
	if err := s.AddServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	s.cfg.MigrationBatchHook = nil
	if snap == nil {
		t.Fatal("migration finished before batch 1; workload too small")
	}

	restoreAllLanes(s, snap)
	crashRecoverAll(t, s, false)
	if s.migIntent.Load() != nil {
		t.Fatal("intent not closed after post-checkpoint crash recovery")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	verifyBlobs(t, s, ctx, expect)
	if s.DescriptorCount(4)+s.ChunkCount(4) == 0 {
		t.Fatal("joined server received no data through the roll-forward")
	}
}

// TestRemoveServerResetsWAL pins the drain-the-logs fix: after RemoveServer
// the drained node's lanes are empty, and a crash/recover cycle of the whole
// cluster resurrects none of its pre-drain state.
func TestRemoveServerResetsWAL(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 4, Seed: 6})
	s := New(c, Config{ChunkSize: 64, Replication: 2, WALLanes: 4, InlineFanout: true})
	ctx := storage.NewContext()
	expect := seedBlobs(t, s, ctx, 20)

	if err := s.RemoveServer(ctx, 1); err != nil {
		t.Fatal(err)
	}
	recs, err := s.LogRecords(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("drained node's WAL still holds %d records (first: %v)", len(recs), recs[0].Type)
	}
	crashRecoverAll(t, s, false)
	if got := s.DescriptorCount(1) + s.ChunkCount(1); got != 0 {
		t.Fatalf("crash/recover resurrected %d objects on the drained node", got)
	}
	if len(s.ServingNodes()) != 3 {
		t.Fatalf("serving nodes = %v", s.ServingNodes())
	}
	verifyBlobs(t, s, ctx, expect)
}

// TestMigrationThrottle pins the token bucket: the same join under a tight
// MigrationRateBytes must charge more virtual time to the migration caller
// than under an effectively unlimited rate.
func TestMigrationThrottle(t *testing.T) {
	run := func(rate int) int64 {
		c := cluster.New(cluster.Config{Nodes: 5, Seed: 9})
		s := NewOnNodes(c, Config{ChunkSize: 64, Replication: 2, WALLanes: 4,
			InlineFanout: true, MigrationRateBytes: rate}, []cluster.NodeID{0, 1, 2, 3})
		ctx := storage.NewContext()
		seedBlobs(t, s, ctx, 30)
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
	ctx := storage.NewContext()

	const workers = 4
	keys := make([]string, workers)
	oracle := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		keys[w] = fmt.Sprintf("live-%d", w)
		if err := s.CreateBlob(ctx, keys[w]); err != nil {
			t.Fatal(err)
		}
		oracle[w] = pattern(w, 200) // multi-chunk from the start
		if _, err := s.WriteBlob(ctx, keys[w], 0, oracle[w]); err != nil {
			t.Fatal(err)
		}
	}
	roData := pattern(99, 300)
	if err := s.CreateBlob(ctx, "live-ro"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, "live-ro", 0, roData); err != nil {
		t.Fatal(err)
	}

	// Stretch the sweep in real time so the workers genuinely interleave
	// with every migration stage. This test asserts oracle equality, not
	// timing, so the real-time pacing cannot leak into any replayed log.
	//blobvet:allow virtualtime test-only real-time pacing to force goroutine interleaving; assertions are oracle-based, not timing-based
	s.cfg.MigrationBatchHook = func(int) { time.Sleep(200 * time.Microsecond) }
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
				data := pattern(w*31+i, 30+i%70)
				off := int64((i * 17) % 180)
				var err error
				if i%4 == 3 { // transactional variant: 2PC under migration
					txn := s.Begin(wctx)
					if err = txn.Write(keys[w], off, data); err == nil {
						err = txn.Commit()
					}
				} else {
					_, err = s.WriteBlob(wctx, keys[w], off, data)
				}
				if err != nil {
					t.Errorf("worker %d write %d during migration: %v", w, i, err)
					return
				}
				oracle[w] = applyOracle(oracle[w], off, data)
				got := make([]byte, len(oracle[w]))
				if _, err := s.ReadBlob(wctx, keys[w], 0, got); err != nil {
					t.Errorf("worker %d read %d during migration: %v", w, i, err)
					return
				}
				if !bytes.Equal(got, oracle[w]) {
					t.Errorf("worker %d: stale read during migration at op %d", w, i)
					return
				}
				ro := make([]byte, len(roData))
				if _, err := s.ReadBlob(wctx, "live-ro", 0, ro); err != nil {
					t.Errorf("worker %d: read-only blob unavailable during migration: %v", w, err)
					return
				}
				if !bytes.Equal(ro, roData) {
					t.Errorf("worker %d: read-only blob went stale during migration", w)
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
	s.cfg.MigrationBatchHook = nil
	if t.Failed() {
		return
	}

	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	for w := 0; w < workers; w++ {
		got := make([]byte, len(oracle[w]))
		if _, err := s.ReadBlob(ctx, keys[w], 0, got); err != nil || !bytes.Equal(got, oracle[w]) {
			t.Fatalf("worker %d key diverged after churn: %v", w, err)
		}
	}
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

	keys := []string{"m0", "m1", "m2"}
	f.Fuzz(func(t *testing.T, script []byte, crashAt uint32, torn, remove bool, replicas uint8) {
		initial := []cluster.NodeID{0, 1, 2, 3}
		if remove {
			initial = []cluster.NodeID{0, 1, 2, 3, 4}
		}
		s := NewOnNodes(cluster.New(cluster.Config{Nodes: 5, Seed: 3}),
			Config{ChunkSize: 32, Replication: 1 + int(replicas)%3, WALLanes: 4,
				InlineFanout: true, MigrationBatchChunks: 3}, initial)
		ctx := storage.NewContext()
		want := make(map[string][]byte)
		live := make(map[string]bool)
		for i := 0; i+3 <= len(script); i += 3 {
			key := keys[int(script[i+1])%len(keys)]
			arg := int(script[i+2])
			switch script[i] % 6 {
			case 0:
				if !live[key] {
					if err := s.CreateBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
					live[key] = true
					want[key] = []byte{}
				}
			case 1, 2:
				if live[key] {
					data := pattern(i, arg+1)
					off := int64(arg % 48)
					if _, err := s.WriteBlob(ctx, key, off, data); err != nil {
						t.Fatal(err)
					}
					want[key] = applyOracle(want[key], off, data)
				}
			case 3:
				if live[key] {
					if err := s.TruncateBlob(ctx, key, int64(arg)); err != nil {
						t.Fatal(err)
					}
					cur := want[key]
					if arg <= len(cur) {
						want[key] = cur[:arg]
					} else {
						want[key] = append(cur, make([]byte, arg-len(cur))...)
					}
				}
			case 4:
				if live[key] {
					if err := s.DeleteBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
					live[key] = false
					delete(want, key)
				}
			case 5:
				s.CheckpointAll()
			}
		}

		base := captureAllLanes(s)
		images := captureMigration(t, s, ctx, remove)
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
			for key, data := range want {
				size, err := s.BlobSize(ctx, key)
				if err != nil || size != int64(len(data)) {
					t.Fatalf("serial=%v: blob %q size (%d, %v), want %d", serial, key, size, err, len(data))
				}
				if len(data) == 0 {
					continue
				}
				got := make([]byte, len(data))
				if _, err := s.ReadBlob(ctx, key, 0, got); err != nil {
					t.Fatalf("serial=%v: read %q: %v", serial, key, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("serial=%v: blob %q diverged from the oracle", serial, key)
				}
			}
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
