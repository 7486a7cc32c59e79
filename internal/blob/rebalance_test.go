package blob

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// seedBlobs writes a spread of blobs and returns the expected contents.
func seedBlobs(t *testing.T, s *Store, ctx *storage.Context, n int) map[string][]byte {
	t.Helper()
	rng := sim.NewRNG(77)
	expect := make(map[string][]byte, n)
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
		expect[key] = data
	}
	return expect
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
	expect := seedBlobs(t, s, ctx, 40)

	if got := len(s.ServingNodes()); got != 4 {
		t.Fatalf("serving nodes = %d", got)
	}
	if err := s.AddServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ServingNodes()); got != 5 {
		t.Fatalf("serving nodes after join = %d", got)
	}
	verifyBlobs(t, s, ctx, expect)

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
	expect := seedBlobs(t, s, ctx, 40)

	if err := s.RemoveServer(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(s.ServingNodes()); got != 4 {
		t.Fatalf("serving nodes after drain = %d", got)
	}
	if s.DescriptorCount(2)+s.ChunkCount(2) != 0 {
		t.Fatal("drained server still holds data")
	}
	verifyBlobs(t, s, ctx, expect)
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
	seedBlobs(t, s, ctx, 120)

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
	ctx := storage.NewContext()
	write := func(data string) {
		t.Helper()
		if _, err := s.WriteBlob(ctx, key, 0, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(when string) {
		t.Helper()
		got := make([]byte, 10)
		if n, err := s.ReadBlob(storage.NewContext(), key, 0, got); err != nil || string(got[:n]) != "NEWNEWNEW!" {
			t.Errorf("%s: read (%q, %v), want the acknowledged NEWNEWNEW!", when, got[:n], err)
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
	s.migrating.Add(1)
	s.repairDrain(ctx, joined)
	s.migrating.Add(-1)
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
		if ev.Kind == EventBatch {
			read(fmt.Sprintf("RemoveServer(%d) at batch %d", removed, ev.Batch))
		}
	})
	if err := s.RemoveServer(ctx, cluster.NodeID(removed)); err != nil {
		t.Fatal(err)
	}
	s.Observe(nil)
	read(fmt.Sprintf("after RemoveServer(%d)", removed))
	if msg := s.CheckInvariants(); msg != "" {
		t.Errorf("after RemoveServer(%d): %s", removed, msg)
	}
}

func TestJoinThenDrainRoundTrip(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 6, Seed: 4})
	s := NewOnNodes(c, Config{ChunkSize: 64, Replication: 2},
		[]cluster.NodeID{0, 1, 2})
	ctx := storage.NewContext()
	expect := seedBlobs(t, s, ctx, 30)
	if err := s.AddServer(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.AddServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	verifyBlobs(t, s, ctx, expect)
	if err := s.RemoveServer(ctx, 0); err != nil {
		t.Fatal(err)
	}
	verifyBlobs(t, s, ctx, expect)
	// Mutations still work after churn.
	if _, err := s.WriteBlob(ctx, "data/blob-000", 0, []byte("post-churn")); err != nil {
		t.Fatal(err)
	}
	expect["data/blob-000"] = append([]byte("post-churn"), expect["data/blob-000"][10:]...)
	verifyBlobs(t, s, ctx, expect)
}

// joinStoreWithBlob returns a store serving nodes 0–2 of four, R 2, holding
// one 10-byte blob whose descriptor primary becomes node 3 when it joins:
// until the join's handover reaches the blob, ops find its descriptor only on
// its old holders.
func joinStoreWithBlob(t *testing.T) (*Store, string) {
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
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, key, 0, pattern(1, 10)); err != nil {
		t.Fatal(err)
	}
	return s, key
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
		left func(key string) map[string][]byte // the blobs the join leaves
	}{
		{"create", func(s *Store, ctx *storage.Context, key string) error { return s.CreateBlob(ctx, key) }, storage.ErrExists,
			func(key string) map[string][]byte { return map[string][]byte{key: pattern(1, 10)} }},
		{"delete", func(s *Store, ctx *storage.Context, key string) error { return s.DeleteBlob(ctx, key) }, nil,
			func(string) map[string][]byte { return nil }},
		{"rename", func(s *Store, ctx *storage.Context, key string) error { return s.RenameBlob(ctx, key, key+"-renamed") }, nil,
			func(key string) map[string][]byte { return map[string][]byte{key + "-renamed": pattern(1, 10)} }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			s, key := joinStoreWithBlob(t)
			ctx := storage.NewContext()
			var err error
			s.Observe(func(ev Event) {
				if ev.Kind == EventBatch && ev.Batch == -1 {
					err = arm.op(s, storage.NewContext(), key)
				}
			})
			if err := s.AddServer(ctx, 3); err != nil {
				t.Fatal(err)
			}
			s.Observe(nil)
			if !errors.Is(err, arm.want) {
				t.Fatalf("%s before the handover: %v, want %v", arm.name, err, arm.want)
			}
			left := arm.left(key)
			check := func(when string) {
				t.Helper()
				if _, kept := left[key]; !kept {
					if size, err := s.BlobSize(ctx, key); !errors.Is(err, storage.ErrNotFound) {
						t.Errorf("%s: %s has size %d, %v; want ErrNotFound", when, key, size, err)
					}
				}
				verifyBlobs(t, s, ctx, left)
			}
			check("after the join")
			s.Crash(3)
			if err := s.Recover(3); err != nil {
				t.Fatal(err)
			}
			check("after node 3 recovered")
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
	s, key := joinStoreWithBlob(t)
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
	s, key := joinStoreWithBlob(t)
	ctx := storage.NewContext()
	seedBlobs(t, s, ctx, 20) // chunks for the join to move, so batch events fire
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
	s.Observe(nil)
	if errDel != nil {
		t.Fatal(errDel)
	}
	if err := <-done; !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("write racing the delete: %v, want ErrNotFound", err)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}
