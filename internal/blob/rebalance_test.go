package blob

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// seedBlobs subscribes a model to s, writes a spread of blobs and returns
// the model.
func seedBlobs(t *testing.T, s *Store, n int) *refModel {
	t.Helper()
	m, ctx, rng := newModel(s), storage.NewContext(), sim.NewRNG(77)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("data/blob-%03d", i)
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 100+i*13)
		rng.Fill(data)
		if _, err := s.WriteBlob(ctx, key, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func verifyBlobs(t *testing.T, s *Store, ctx *storage.Context, expect map[string][]byte) {
	t.Helper()
	for key, want := range expect {
		got := make([]byte, len(want))
		n, err := s.ReadBlob(ctx, key, 0, got)
		if err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("%s after rebalance: (%d, %v), match=%v", key, n, err, bytes.Equal(got, want))
		}
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
	// Scan still complete.
	infos, err := s.Scan(ctx, "data/")
	if err != nil || len(infos) != len(expect) {
		t.Fatalf("scan after rebalance: (%d, %v), want %d", len(infos), err, len(expect))
	}
}

func TestAddServerRebalances(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 6, Seed: 1})
	// Start on 4 of the 6 nodes.
	s := NewOnNodes(c, Config{ChunkSize: 64, Replication: 2},
		[]cluster.NodeID{0, 1, 2, 3})
	ctx := storage.NewContext()
	m := seedBlobs(t, s, 40)

	if got := len(s.ServingNodes()); got != 4 {
		t.Fatalf("serving nodes = %d", got)
	}
	if err := s.AddServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ServingNodes()); got != 5 {
		t.Fatalf("serving nodes after join = %d", got)
	}
	checkSound(t, s, m)

	// The new server must actually hold data (rebalancing happened).
	if s.DescriptorCount(4)+s.ChunkCount(4) == 0 {
		t.Fatal("joined server received no data")
	}
}

func TestAddServerValidation(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 3, Seed: 1})
	s := New(c, Config{Replication: 2})
	ctx := storage.NewContext()
	if err := s.AddServer(ctx, 1); !errors.Is(err, storage.ErrExists) {
		t.Fatalf("re-adding serving node: %v", err)
	}
	if err := s.AddServer(ctx, 99); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("adding unknown node: %v", err)
	}
}

func TestRemoveServerDrains(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 5, Seed: 2})
	s := New(c, Config{ChunkSize: 64, Replication: 2})
	ctx := storage.NewContext()
	m := seedBlobs(t, s, 40)

	if err := s.RemoveServer(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ServingNodes()); got != 4 {
		t.Fatalf("serving nodes after drain = %d", got)
	}
	if s.DescriptorCount(2)+s.ChunkCount(2) != 0 {
		t.Fatal("drained server still holds data")
	}
	checkSound(t, s, m)
}

// onlyCopyOnNode4 builds the shape the drain regressions share: 5 nodes,
// seed 1, ChunkSize 16, R 3, and blob k3, whose chunk 0 is owned by [1 0 4]
// and by [1 0 3] once node 4 leaves. With nodes 1 and 0 down, its 16-byte
// write lands on node 4 alone, which lists them as repair debt. The model
// subscribed to the store comes back with it.
func onlyCopyOnNode4(t *testing.T) (*Store, *refModel) {
	t.Helper()
	cfg := Config{ChunkSize: 16, Replication: 3}
	s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 1}), cfg)
	after := NewOnNodes(cluster.New(cluster.Config{Nodes: 5, Seed: 1}), cfg, []cluster.NodeID{0, 1, 2, 3})
	id := chunkID{"k3", 0}
	if got := fmt.Sprint(s.chunkOwners(id), after.chunkOwners(id)); got != "[1 0 4] [1 0 3]" {
		t.Fatalf("chunk 0 of k3 owned by %s before and after the drain, want [1 0 4] [1 0 3]", got)
	}
	m, ctx := newModel(s), storage.NewContext()
	if err := s.CreateBlob(ctx, "k3"); err != nil {
		t.Fatal(err)
	}
	s.SetDown(1, true)
	s.SetDown(0, true)
	if _, err := s.WriteBlob(ctx, "k3", 0, pattern(3, 16)); err != nil {
		t.Fatal(err)
	}
	return s, m
}

// faultK3Owners fails every disk write on nodes 1, 0 and 3, the owners of
// k3's chunk 0 once node 4 has left.
func faultK3Owners(s *Store) {
	var rules []cluster.FaultRule
	for _, n := range []cluster.NodeID{1, 0, 3} {
		rules = append(rules, cluster.FaultRule{Node: n, Kind: cluster.FaultDiskWrite, Prob: 1,
			Fault: cluster.Fault{Err: errors.New("injected: disk write refused")}})
	}
	s.cluster.SetFaultInjector(cluster.NewFaultPlan(1, rules))
}

// TestDrainKeepsOnlyCopy: a drain must not lose an acknowledged write whose
// only copy sits on the drained node. In "faulted-owners" every owner refuses
// the sweep's install until batch 0 has ended, so the copy and the debt that
// names the owners are still node 4's when the sweep is done; resetting the
// node then, or dropping the copy together with that debt once one owner has
// caught up, leaves the others behind with nothing naming them. In "wiped"
// node 4 has crashed before the drain, so its log is the copy's only home
// until Recover replays it; resetting that log loses it.
func TestDrainKeepsOnlyCopy(t *testing.T) {
	for _, arm := range []struct {
		name  string
		drain func(t *testing.T, s *Store, m *refModel)
	}{
		{"faulted-owners", func(t *testing.T, s *Store, m *refModel) {
			faultK3Owners(s)
			s.Observe(func(ev Event) {
				m.observe(ev)
				if ev.Kind == EventBatch && ev.Batch == 0 {
					s.cluster.SetFaultInjector(nil)
				}
			})
			if err := s.RemoveServer(storage.NewContext(), 4); err != nil {
				t.Fatal(err)
			}
			s.Observe(m.observe)
			s.SetDown(1, false)
			s.SetDown(0, false)
		}},
		{"wiped", func(t *testing.T, s *Store, _ *refModel) {
			s.Crash(4)
			if err := s.RemoveServer(storage.NewContext(), 4); err != nil {
				t.Fatal(err)
			}
			s.SetDown(1, false)
			s.SetDown(0, false)
			if err := s.Recover(4); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			s, m := onlyCopyOnNode4(t)
			arm.drain(t, s, m)
			checkSound(t, s, m)
			if s.migIntent.Load() != nil {
				t.Fatal("the drain's intent is still open")
			}
			if n := s.ChunkCount(4) + s.DescriptorCount(4); n != 0 {
				t.Fatalf("drained node 4 still holds %d entries", n)
			}
			if recs, err := s.LogRecords(4); err != nil || len(recs) != 0 {
				t.Fatalf("drained node 4's log holds %d records (%v)", len(recs), err)
			}
		})
	}
}

func TestRemoveServerValidation(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 1})
	s := NewOnNodes(c, Config{Replication: 1}, []cluster.NodeID{0})
	ctx := storage.NewContext()
	if err := s.RemoveServer(ctx, 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("removing non-serving node: %v", err)
	}
	if err := s.RemoveServer(ctx, 0); !errors.Is(err, ErrLastServer) {
		t.Fatalf("removing last server: %v", err)
	}
	if err := s.RemoveServer(ctx, 7); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("removing unknown node: %v", err)
	}
}

// diff returns the elements of a absent from b.
func diff(a, b []int) []int {
	inB := make(map[int]bool, len(b))
	for _, x := range b {
		inB[x] = true
	}
	var out []int
	for _, x := range a {
		if !inB[x] {
			out = append(out, x)
		}
	}
	return out
}

// Consistent hashing promise: a join moves only data whose replica set
// changed — the bulk of placements stay put.
func TestJoinMovesMinority(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 9, Seed: 3})
	s := NewOnNodes(c, Config{ChunkSize: 1 << 20, Replication: 2},
		[]cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7})
	ctx := storage.NewContext()
	seedBlobs(t, s, 120)

	before := make(map[string][]int)
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("data/blob-%03d", i)
		before[key] = s.descOwners(key)
	}
	if err := s.AddServer(ctx, 8); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key, old := range before {
		now := s.descOwners(key)
		if len(diff(now, old)) > 0 {
			moved++
		}
	}
	// Expect roughly 2/9 of descriptor placements to involve the new node;
	// far less than half must move.
	if moved > 60 {
		t.Fatalf("%d of 120 descriptor placements changed — not minimal movement", moved)
	}
	if moved == 0 {
		t.Fatal("join moved nothing — new server unused")
	}
}

// TestLeftoverStrayNeverOutranksRecreatedBlob: a join whose install onto the
// new owner faults leaves the old holder's copy in place, a stray. The repair
// that later catches the owner up must drop it, and until one does, the
// stray's debt entry must stay. Otherwise, once the blob is
// deleted and a clean checkpoint has forgotten the owner's tombstone, the
// stray's version 2 outranks the recreated blob's first write: a read during
// the next migration serves the old bytes, and the sweep installs them over
// the acknowledged write.
func TestLeftoverStrayNeverOutranksRecreatedBlob(t *testing.T) {
	const holder, joined = 0, 3
	cfg := Config{ChunkSize: 64, Replication: 1}
	s := NewOnNodes(cluster.New(cluster.Config{Nodes: 4, Seed: 1}), cfg, []cluster.NodeID{0, 1, 2})
	after := New(cluster.New(cluster.Config{Nodes: 4, Seed: 1}), cfg) // the ring once node 3 has joined
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("stray-%d", i)
		if s.chunkOwners(chunkID{k, 0})[0] == holder && after.chunkOwners(chunkID{k, 0})[0] == joined {
			key = k
		}
	}
	removed := 1 // uninvolved: neither copy's holder nor the descriptor's
	if after.descOwners(key)[0] == removed {
		removed = 2
	}
	id := chunkID{key, 0}
	ctx, m := storage.NewContext(), newModel(s)
	write := func(data string) {
		t.Helper()
		if _, err := s.WriteBlob(ctx, key, 0, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	write("aaaaaaaaaa")
	write("bbbbbbbbbb") // version 2

	s.cluster.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{
		{Node: joined, Kind: cluster.FaultDiskWrite, Prob: 1, Fault: cluster.Fault{Err: errors.New("injected: disk write refused")}},
	}))
	if err := s.AddServer(ctx, joined); err != nil {
		t.Fatal(err)
	}
	s.cluster.SetFaultInjector(nil)
	// A writer's own drain during a migration catches the owner up but leaves
	// strays to the sweep, so the debt entry the stray holds must stay too.
	s.migIntent.Store(&migrationIntent{})
	s.repairDrain(ctx, joined)
	s.migIntent.Store(nil)
	if s.RepairPending() == 0 {
		t.Errorf("a writer's drain during a migration cleared the debt that names the leftover stray")
	}
	s.Repair(ctx)
	if ver := s.servers[joined].chunkVer(id.ringHash(), id); ver != 2 {
		t.Fatalf("repair left the joined owner at v%d, want v2", ver)
	}
	if _, ver, held := s.servers[holder].chunkData(id.ringHash(), id); held {
		t.Errorf("node %d kept its v%d copy after repair caught the owner up", holder, ver)
	}

	if err := s.DeleteBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	s.CheckpointAll() // clean: the tombstone is forgotten
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	write("NEWNEWNEW!")
	if msg := s.CheckInvariants(); msg != "" {
		t.Errorf("after the recreated blob's write: %s", msg)
	}
	s.Observe(func(ev Event) {
		if m.observe(ev); ev.Kind == EventBatch {
			checkDurable(t, s, m) // the acknowledged NEWNEWNEW! at every batch
		}
	})
	if err := s.RemoveServer(ctx, cluster.NodeID(removed)); err != nil {
		t.Fatal(err)
	}
	s.Observe(m.observe)
	checkSound(t, s, m)
}

func TestJoinThenDrainRoundTrip(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 6, Seed: 4})
	s := NewOnNodes(c, Config{ChunkSize: 64, Replication: 2},
		[]cluster.NodeID{0, 1, 2})
	ctx := storage.NewContext()
	m := seedBlobs(t, s, 30)
	if err := s.AddServer(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.AddServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	checkSound(t, s, m)
	if err := s.RemoveServer(ctx, 0); err != nil {
		t.Fatal(err)
	}
	checkSound(t, s, m)
	// Mutations still work after churn.
	if _, err := s.WriteBlob(ctx, "data/blob-000", 0, []byte("post-churn")); err != nil {
		t.Fatal(err)
	}
	checkSound(t, s, m)
}

// joinStoreWithBlob returns a store serving nodes 0–2 of four, R 2, holding
// one 10-byte blob whose descriptor primary becomes node 3 when it joins:
// until the join's handover reaches the blob, ops find its descriptor only on
// its old holders. The model subscribed to the store comes back with it.
func joinStoreWithBlob(t *testing.T) (*Store, string, *refModel) {
	t.Helper()
	build := func() *Store {
		return NewOnNodes(cluster.New(cluster.Config{Nodes: 4, Seed: 1}), Config{ChunkSize: 64, Replication: 2}, []cluster.NodeID{0, 1, 2})
	}
	probe := build()
	if err := probe.AddServer(storage.NewContext(), 3); err != nil {
		t.Fatal(err)
	}
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("data/k%d", i); probe.descOwners(k)[0] == 3 {
			key = k
		}
	}
	s, ctx := build(), storage.NewContext()
	m := newModel(s)
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, key, 0, pattern(1, 10)); err != nil {
		t.Fatal(err)
	}
	return s, key, m
}

// TestCreateAndDeleteBeforeHandover: during a join, before the handover
// reaches a blob whose new primary holds no copy yet, a create of its key
// answers ErrExists and leaves it whole, a delete removes it for good, and a
// rename moves it; each outcome survives node 3, the new primary, crashing
// and recovering. The create used to succeed and reset the blob's size to 0;
// the delete dropped only the new owners' copies, and the handover then moved
// an old holder's copy to the new primary, so the deleted blob came back.
func TestCreateAndDeleteBeforeHandover(t *testing.T) {
	for _, arm := range []struct {
		name string
		op   func(s *Store, ctx *storage.Context, key string) error
		want error
	}{
		{"create", func(s *Store, ctx *storage.Context, key string) error { return s.CreateBlob(ctx, key) }, storage.ErrExists},
		{"delete", func(s *Store, ctx *storage.Context, key string) error { return s.DeleteBlob(ctx, key) }, nil},
		{"rename", func(s *Store, ctx *storage.Context, key string) error { return s.RenameBlob(ctx, key, key+"-renamed") }, nil},
	} {
		t.Run(arm.name, func(t *testing.T) {
			s, key, m := joinStoreWithBlob(t)
			ctx := storage.NewContext()
			var err error
			s.Observe(func(ev Event) {
				m.observe(ev)
				if ev.Kind == EventBatch && ev.Batch == -1 {
					err = arm.op(s, storage.NewContext(), key)
				}
			})
			if err := s.AddServer(ctx, 3); err != nil {
				t.Fatal(err)
			}
			s.Observe(m.observe)
			if !errors.Is(err, arm.want) {
				t.Fatalf("%s before the handover: %v, want %v", arm.name, err, arm.want)
			}
			checkSound(t, s, m)
			s.Crash(3)
			if err := s.Recover(3); err != nil {
				t.Fatal(err)
			}
			checkSound(t, s, m)
		})
	}
}

// TestWriteLatchedAcrossHandoverLogsOnNewPrimary: a write that resolved a
// blob through the migration fallback, while its new primary held no copy,
// and was granted the latch only after the handover moved the descriptor
// there, logs its size on the new primary. It used to log on the old holder,
// so the new primary's memory held a size its log did not (rule 5). Write A
// holds the latch while write B resolves and queues; the handover's read
// latch is granted before B's.
func TestWriteLatchedAcrossHandoverLogsOnNewPrimary(t *testing.T) {
	s, key, _ := joinStoreWithBlob(t)
	ctx := storage.NewContext()
	write := func(off int64, done chan<- error) {
		_, err := s.WriteBlob(storage.NewContext(), key, off, pattern(int(off), 10))
		done <- err
	}
	var step atomic.Int32
	doneA, doneB := make(chan error, 1), make(chan error, 1)
	s.Observe(func(ev Event) {
		switch {
		case ev.Kind == EventBatch && ev.Batch == -1 && step.CompareAndSwap(0, 1):
			go write(10, doneA)
			//blobvet:allow virtualtime test-only real-time pacing: A latches, then the handover queues on the latch; the assertions are outcome-based
			time.Sleep(20 * time.Millisecond)
		case ev.Kind == EventAppend && step.CompareAndSwap(1, 2):
			go write(20, doneB)
			//blobvet:allow virtualtime test-only real-time pacing: A holds the latch while B resolves and queues; the assertions are outcome-based
			time.Sleep(40 * time.Millisecond)
		}
	})
	if err := s.AddServer(ctx, 3); err != nil {
		t.Fatal(err)
	}
	errA, errB := <-doneA, <-doneB
	s.Observe(nil)
	if errA != nil || errB != nil {
		t.Fatalf("writes during the handover: %v, %v", errA, errB)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
	s.Crash(3)
	if err := s.Recover(3); err != nil {
		t.Fatal(err)
	}
	if size, err := s.BlobSize(ctx, key); err != nil || size != 30 {
		t.Errorf("after the new primary recovered: size %d, %v; want 30", size, err)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Errorf("invariants after the new primary recovered: %s", msg)
	}
}

// TestWriteRacingDeleteAfterHandover: mid-migration, after the handover gave
// every owner of a blob its descriptor, a write that reaches the blob while a
// delete is dropping those copies waits for the key's latch and then finds
// nothing. Acting on a copy the delete had not dropped yet, the write would
// leave a chunk behind the deleted blob.
func TestWriteRacingDeleteAfterHandover(t *testing.T) {
	s, key, _ := joinStoreWithBlob(t)
	ctx := storage.NewContext()
	seedBlobs(t, s, 20) // chunks for the join to move, so batch events fire
	var step atomic.Int32
	var errDel error
	done := make(chan error, 1)
	s.Observe(func(ev Event) {
		switch {
		case ev.Kind == EventBatch && ev.Batch == 0 && step.CompareAndSwap(0, 1):
			errDel = s.DeleteBlob(storage.NewContext(), key)
		case ev.Kind == EventAppend && ev.Type == wal.RecDelete && step.CompareAndSwap(1, 2):
			go func() { _, err := s.WriteBlob(storage.NewContext(), key, 0, pattern(2, 10)); done <- err }()
			//blobvet:allow virtualtime test-only real-time pacing lets the write look the blob up mid-delete; the assertions are outcome-based
			time.Sleep(20 * time.Millisecond)
		}
	})
	if err := s.AddServer(ctx, 3); err != nil {
		t.Fatal(err)
	}
	errWrite := <-done // the write reports its end to the observer too
	s.Observe(nil)
	if errDel != nil {
		t.Fatal(errDel)
	}
	if !errors.Is(errWrite, storage.ErrNotFound) {
		t.Errorf("write racing the delete: %v, want ErrNotFound", errWrite)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}

// TestChunkPlanAllocsFlat: chunkPlan allocates the same few times whatever
// the chunk count — one slice of replicas and one of moves — so a
// membership change on a big store does not allocate a record per chunk.
func TestChunkPlanAllocsFlat(t *testing.T) {
	var allocs []float64
	for _, chunks := range []int{1024, 4096} {
		s := mkStore(5, Config{ChunkSize: 1 << 10, Replication: 3}, false)
		ctx := storage.NewContext()
		payload := pattern(1, 1<<10)
		for i := range chunks {
			key := fmt.Sprintf("c/%05d", i)
			if err := s.CreateBlob(ctx, key); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteBlob(ctx, key, 0, payload); err != nil {
				t.Fatal(err)
			}
		}
		var moves []migMove
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			moves = s.chunkPlan(func(uint64, uint64, uint64) bool { return true })
		}))
		if len(moves) != chunks || !slices.IsSortedFunc(moves, func(a, b migMove) int { return a.id.cmp(b.id) }) {
			t.Fatalf("%d chunks: the plan holds %d moves, want every chunk once in ID order", chunks, len(moves))
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("chunkPlan allocates %v times over 1024 chunks and %v over 4096, want the same", allocs[0], allocs[1])
	}
}
