package blob

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
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
