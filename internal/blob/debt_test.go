package blob

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// debt_test.go pins the repair-debt table (debt.go): a holder's crash takes
// no debt along, and while a crash-wiped server hides a chunk's true maximum,
// a replica the table names behind neither serves nor takes a write.

// holderCrashStore builds the shape the holder-crash tests use: 4 nodes,
// cluster seed 1, 64-byte chunks, R 2, and the first key w-N whose chunk-0
// owners h and x do not include its descriptor primary (w-0: h = node 0,
// x = node 1). It subscribes a model, creates the key and writes v1 to both
// owners.
func holderCrashStore(t *testing.T) (s *Store, m *refModel, key string, h, x cluster.NodeID) {
	t.Helper()
	s = New(cluster.New(cluster.Config{Nodes: 4, Seed: 1}), Config{ChunkSize: 64, Replication: 2})
	m = newModel(s)
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("w-%d", i)
		if o := s.chunkOwners(chunkID{k, 0}); !containsNode(o, s.descOwners(k)[0]) {
			key, h, x = k, cluster.NodeID(o[1]), cluster.NodeID(o[0])
		}
	}
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, key, 0, []byte("v1v1v1v1v1")); err != nil {
		t.Fatal(err)
	}
	return s, m, key, h, x
}

// writeDegraded takes x down and writes v2, which only h applies.
func writeDegraded(t *testing.T, s *Store, key string, x cluster.NodeID) {
	t.Helper()
	s.SetDown(x, true)
	if _, err := s.WriteBlob(storage.NewContext(), key, 0, []byte("v2v2v2v2v2")); err != nil {
		t.Fatal(err)
	}
}

// requireBlind checks that, with the holder of the newest copy crashed, the
// chunk neither reads nor takes a write: the behind replica must not serve
// its older bytes, nor take a version that collides with the crashed one's.
func requireBlind(t *testing.T, s *Store, key string) {
	t.Helper()
	ctx := storage.NewContext()
	got := make([]byte, 10)
	if n, err := s.ReadBlob(ctx, key, 0, got); !errors.Is(err, storage.ErrUnavailable) {
		t.Errorf("read with the newest copy's holder crashed: (%q, %v), want ErrUnavailable", got[:n], err)
	}
	if _, err := s.WriteBlob(ctx, key, 0, []byte("v3v3v3")); !errors.Is(err, storage.ErrUnavailable) {
		t.Errorf("write with the newest copy's holder crashed: %v, want ErrUnavailable", err)
	}
}

// requireHealed recovers h and checks that the store holds every
// acknowledged write and converged.
func requireHealed(t *testing.T, s *Store, m *refModel, h cluster.NodeID) {
	t.Helper()
	if err := s.Recover(h); err != nil {
		t.Fatal(err)
	}
	checkDurable(t, s, m)
	if n, msg := s.RepairPending(), s.CheckInvariants(); n != 0 || msg != "" {
		t.Errorf("after the holder's recovery: %d chunks owe repair, invariants %q", n, msg)
	}
}

// TestHolderCrashAfterFaultedRepair: x rejoins, but its repair install
// faults, so it is up at v1 while h alone holds v2. One crash of h must not
// let x serve v1, or take a write stamped v2 that h's recovery then
// contradicts.
func TestHolderCrashAfterFaultedRepair(t *testing.T) {
	s, m, key, h, x := holderCrashStore(t)
	writeDegraded(t, s, key, x)
	s.cluster.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{
		{Node: x, Kind: cluster.FaultDiskWrite, Prob: 1, Fault: cluster.Fault{Err: errors.New("injected: disk write refused")}},
	}))
	s.SetDown(x, false)
	s.cluster.SetFaultInjector(nil)
	id := chunkID{key, 0}
	if ver := s.servers[x].chunkVer(id.ringHash(), id); ver != 1 {
		t.Fatalf("node %d at v%d after its faulted repair, want v1", x, ver)
	}
	s.Crash(h)
	requireBlind(t, s, key)
	requireHealed(t, s, m, h)
}

// TestHolderCrashBeforeRejoin: h crashes while x is still down, then x
// rejoins. No fault at all, and x must still not serve v1, nor may a repair
// clear its debt entry while h, which may hold the version it needs, is
// crashed.
func TestHolderCrashBeforeRejoin(t *testing.T) {
	s, m, key, h, x := holderCrashStore(t)
	writeDegraded(t, s, key, x)
	s.Crash(h)
	s.SetDown(x, false)
	requireBlind(t, s, key)
	if s.Repair(storage.NewContext()); s.RepairPending() != 1 {
		t.Fatalf("%d chunks owe repair with the holder crashed, want x's entry", s.RepairPending())
	}
	requireHealed(t, s, m, h)
}

// TestColdRestartRederivesDebt: after a degraded write, h holds v2 and x,
// down, v1, and only the debt table says x is behind. A cold restart from
// the lanes alone has no table: h recovers first, x last (coldCopy's order),
// and x's resync must pull v2 from h before the copy serves.
func TestColdRestartRederivesDebt(t *testing.T) {
	s, m, key, h, x := holderCrashStore(t)
	if h > x {
		t.Fatalf("h = node %d recovers after x = node %d; the pull goes unused", h, x)
	}
	writeDegraded(t, s, key, x)
	c := coldCopy(t, s)
	checkSound(t, c, m)
	if n := c.RepairPending(); n != 0 {
		t.Fatalf("cold restart: %d chunks owe repair", n)
	}
}

// TestTornDegradedWriteDoesNotBlockChunk: a degraded write whose only record
// is torn off before its ack leaves a debt entry whose version no surviving
// copy holds. Once no server is wiped, a survey finds no copy at that
// version, so the entry settles; the chunk reads and takes writes again.
func TestTornDegradedWriteDoesNotBlockChunk(t *testing.T) {
	s, _, key, h, x := holderCrashStore(t)
	lane, at := -1, 0
	s.Observe(func(ev Event) {
		if ev.Kind == EventAppend && ev.Node == h && lane < 0 {
			lane, at = ev.Lane, s.servers[h].wal.LaneBuffer(ev.Lane).Len()-ev.Bytes
		}
	})
	writeDegraded(t, s, key, x)
	s.Observe(nil)
	if lane < 0 {
		t.Fatal("the degraded write appended nothing on its one owner")
	}
	s.servers[h].wal.LaneBuffer(lane).Truncate(at + 1)
	s.Crash(h)
	s.SetDown(x, false)
	requireBlind(t, s, key)
	if err := s.Recover(h); err != nil {
		t.Fatal(err)
	}
	ctx := storage.NewContext()
	got := make([]byte, 10)
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || string(got[:n]) != "v1v1v1v1v1" {
		t.Fatalf("read once no server is wiped: (%q, %v), want v1v1v1v1v1", got[:n], err)
	}
	if n := s.RepairPending(); n != 0 {
		t.Fatalf("%d chunks owe repair once no server is wiped, want 0: no copy holds the torn write's version", n)
	}
	if _, err := s.WriteBlob(ctx, key, 0, []byte("v3v3v3v3v3")); err != nil {
		t.Fatalf("write once no server is wiped: %v", err)
	}
	s.Repair(ctx)
	if n, msg := s.RepairPending(), s.CheckInvariants(); n != 0 || msg != "" {
		t.Fatalf("after the next write and a repair: %d chunks owe repair, invariants %q", n, msg)
	}
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || string(got[:n]) != "v3v3v3v3v3" {
		t.Fatalf("read after the next write: (%q, %v), want v3v3v3v3v3", got[:n], err)
	}
}

// TestStrayHolderCrashKeepsDebt: a join whose install onto the new owner
// faults leaves the old holder's copy as a stray, and the owner listed
// behind it. A crash and recovery of the stray's holder, with the owner's
// disk still refusing writes, must leave that entry in place, and the repair
// after the fault clears must catch the owner up and drop the stray.
func TestStrayHolderCrashKeepsDebt(t *testing.T) {
	const holder, joined = 0, 3
	cfg := Config{ChunkSize: 64, Replication: 1}
	s := NewOnNodes(cluster.New(cluster.Config{Nodes: 4, Seed: 1}), cfg, []cluster.NodeID{0, 1, 2})
	after := New(cluster.New(cluster.Config{Nodes: 4, Seed: 1}), cfg) // the ring once node 3 has joined
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("stray-%d", i)
		if s.chunkOwners(chunkID{k, 0})[0] == holder && after.chunkOwners(chunkID{k, 0})[0] == joined &&
			after.descOwners(k)[0] != holder {
			key = k
		}
	}
	id := chunkID{key, 0}
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{"aaaaaaaaaa", "bbbbbbbbbb"} {
		if _, err := s.WriteBlob(ctx, key, 0, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	s.cluster.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{
		{Node: joined, Kind: cluster.FaultDiskWrite, Prob: 1, Fault: cluster.Fault{Err: errors.New("injected: disk write refused")}},
	}))
	if err := s.AddServer(ctx, joined); err != nil {
		t.Fatal(err)
	}
	s.Crash(holder)
	if err := s.Recover(holder); err != nil {
		t.Fatal(err)
	}
	if n := s.RepairPending(); n != 1 {
		t.Fatalf("%d chunks owe repair after the stray holder's crash and recovery, want 1", n)
	}
	s.cluster.SetFaultInjector(nil)
	s.Repair(ctx)
	if ver := s.servers[joined].chunkVer(id.ringHash(), id); ver != 2 {
		t.Fatalf("repair left the joined owner at v%d, want v2", ver)
	}
	if _, ver, held := s.servers[holder].chunkData(id.ringHash(), id); held {
		t.Errorf("node %d kept its v%d copy after repair caught the owner up", holder, ver)
	}
	got := make([]byte, 10)
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || !bytes.Equal(got[:n], []byte("bbbbbbbbbb")) {
		t.Errorf("read after repair: (%q, %v), want bbbbbbbbbb", got[:n], err)
	}
	if n, msg := s.RepairPending(), s.CheckInvariants(); n != 0 || msg != "" {
		t.Errorf("after repair: %d chunks owe repair, invariants %q", n, msg)
	}
}

// TestCrashedDescriptorPrimaryIsUnavailable: with a key's descriptor primary
// crashed, its other owners still hold the descriptor, so every op that
// resolves the key answers ErrUnavailable, not ErrNotFound: the crashed
// table cannot say the key is absent.
func TestCrashedDescriptorPrimaryIsUnavailable(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 1}), Config{ChunkSize: 64, Replication: 3})
	ctx := storage.NewContext()
	const key = "wp"
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, key, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	s.Crash(cluster.NodeID(s.descOwners(key)[0]))
	buf := make([]byte, 5)
	ops := []struct {
		name string
		run  func() error
	}{
		{"ReadBlob", func() error { _, err := s.ReadBlob(ctx, key, 0, buf); return err }},
		{"BlobSize", func() error { _, err := s.BlobSize(ctx, key); return err }},
		{"WriteBlob", func() error { _, err := s.WriteBlob(ctx, key, 0, []byte("HELLO")); return err }},
		{"TruncateBlob", func() error { return s.TruncateBlob(ctx, key, 2) }},
		{"DeleteBlob", func() error { return s.DeleteBlob(ctx, key) }},
		{"DeleteBlobVersion", func() error { return s.DeleteBlobVersion(ctx, key, 1) }},
		{"RenameBlob", func() error { return s.RenameBlob(ctx, key, key+"-moved") }},
		{"CreateBlob", func() error { return s.CreateBlob(ctx, key) }},
	}
	for _, op := range ops {
		if err := op.run(); !errors.Is(err, storage.ErrUnavailable) {
			t.Errorf("%s with the descriptor primary crashed: %v, want ErrUnavailable", op.name, err)
		}
	}
	if err := s.Recover(cluster.NodeID(s.descOwners(key)[0])); err != nil {
		t.Fatal(err)
	}
	if n, err := s.ReadBlob(ctx, key, 0, buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read after the primary's recovery: (%q, %v), want hello", buf[:n], err)
	}
}
