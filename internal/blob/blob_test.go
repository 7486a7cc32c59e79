package blob

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

func newStore(t *testing.T, nodes int, cfg Config) *Store {
	t.Helper()
	return New(cluster.New(cluster.Config{Nodes: nodes, Seed: 1}), cfg)
}

// TestConfigFieldsRatchet: every Config field multiplies the configurations
// the batteries and crash sweeps must cover. A ratchet, not a target — the
// count may only go down; a new mode replaces a field or lives in its test.
func TestConfigFieldsRatchet(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n > 7 {
		t.Fatalf("Config grew to %d fields; the budget is 7", n)
	}
}

// TestObserveSeesEveryAppend pins the observer seam. Through create, a
// multi-chunk 2PC write, a single-chunk write, a shrinking truncate, delete, a
// flap with its rejoin repair and a join, the append events account for every
// byte each lane grew and for every order key each node drew, exactly once,
// and the batch events count -1, 0, 1, … in order. An append path that
// bypasses walAppendLane and walAppendBatch fails it. The events also show
// each mutation's record type, and a commit for every prepare.
func TestObserveSeesEveryAppend(t *testing.T) {
	// A fresh store: every lane starts empty, every node's order keys at 1.
	s := NewOnNodes(cluster.New(cluster.Config{Nodes: 4, Seed: 3}),
		Config{ChunkSize: 32, Replication: 2, WALLanes: 4, InlineFanout: true}, []cluster.NodeID{0, 1, 2})
	ctx := storage.NewContext()
	type at struct{ node, n int } // a (node, lane) or a (node, order key)
	grew, reported, types := make(map[at]int), make(map[at]int), make(map[wal.RecordType]int)
	var batches []int
	s.Observe(func(ev Event) {
		if ev.Kind == EventBatch {
			batches = append(batches, ev.Batch)
			return
		}
		grew[at{int(ev.Node), ev.Lane}] += ev.Bytes
		types[ev.Type] += ev.Records // by first type: only a shrinking install mixes two
		for k := ev.Key; k < ev.Key+uint64(ev.Records); k++ {
			reported[at{int(ev.Node), int(k)}]++
		}
	})
	write := func(key string, tag, n int) error {
		_, err := s.WriteBlob(ctx, key, 0, pattern(tag, n))
		return err
	}
	// In argument order: two 8-chunk 2PC writes, a direct one, then a blob
	// shrinks and goes.
	if err := errors.Join(s.CreateBlob(ctx, "gone"), s.CreateBlob(ctx, "kept"), write("gone", 1, 8*32),
		write("kept", 1, 8*32), write("kept", 3, 16), s.TruncateBlob(ctx, "gone", 40), s.DeleteBlob(ctx, "gone")); err != nil {
		t.Fatal(err)
	}
	for _, rt := range []wal.RecordType{wal.RecMeta, wal.RecWrite, wal.RecPrepWrite, wal.RecChunkDelete, wal.RecDelete} {
		if types[rt] == 0 {
			t.Errorf("no %v append: %v", rt, types)
		}
	}
	flapped := cluster.NodeID((s.descOwners("kept")[0] + 1) % 3)
	s.SetDown(flapped, true)
	if err := write("kept", 2, 8*32); err != nil || s.RepairPending() == 0 {
		t.Fatalf("write during the flap: %v with %d debt entries, want a degraded write", err, s.RepairPending())
	}
	s.SetDown(flapped, false)
	if err := s.AddServer(ctx, 3); err != nil {
		t.Fatal(err)
	}
	s.Observe(nil)

	drawn := 0
	for i, sv := range s.servers {
		for l := 0; l < sv.wal.Lanes(); l++ {
			if got, want := grew[at{i, l}], sv.wal.LaneBuffer(l).Len(); got != want {
				t.Errorf("node %d lane %d: events report %d bytes, the lane grew %d", i, l, got, want)
			}
		}
		for k := 1; k < int(sv.wal.NextKey()); k++ {
			if n := reported[at{i, k}]; n != 1 {
				t.Errorf("node %d: order key %d reported %d times", i, k, n)
			}
			drawn++
		}
	}
	if len(reported) != drawn {
		t.Errorf("events name %d order keys, the nodes drew %d", len(reported), drawn)
	}
	// Every replica holding a prepare logs its commit, or its own crash
	// replay would discard the data.
	if types[wal.RecChunkCommit] != types[wal.RecPrepWrite] {
		t.Errorf("prepares (%d) and chunk commits (%d) diverge", types[wal.RecPrepWrite], types[wal.RecChunkCommit])
	}
	if len(batches) < 2 {
		t.Fatalf("batch events %v: the join moved nothing", batches)
	}
	for i, b := range batches {
		if b != i-1 {
			t.Fatalf("batch events %v, want -1, 0, 1, …", batches)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	s := newStore(t, 4, Config{})
	cfg := s.Config()
	if cfg.ChunkSize != 4<<20 || cfg.Replication != 3 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	s := newStore(t, 2, Config{Replication: 5})
	if got := s.Config().Replication; got != 2 {
		t.Fatalf("Replication = %d, want clamped to 2", got)
	}
}

func TestCreateReadWriteRoundTrip(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 64})
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "results/output.dat"); err != nil {
		t.Fatal(err)
	}
	data := []byte("the quick brown fox jumps over the lazy dog")
	n, err := s.WriteBlob(ctx, "results/output.dat", 0, data)
	if err != nil || n != len(data) {
		t.Fatalf("WriteBlob = (%d, %v)", n, err)
	}
	got := make([]byte, len(data))
	n, err = s.ReadBlob(ctx, "results/output.dat", 0, got)
	if err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("ReadBlob = (%d, %v), data %q", n, err, got)
	}
	size, err := s.BlobSize(ctx, "results/output.dat")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("BlobSize = (%d, %v)", size, err)
	}
}

func TestCreateValidation(t *testing.T) {
	s := newStore(t, 3, Config{})
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, ""); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("empty key: err = %v", err)
	}
	if err := s.CreateBlob(ctx, "a\x00b"); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("NUL key: err = %v", err)
	}
	if err := s.CreateBlob(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBlob(ctx, "k"); !errors.Is(err, storage.ErrExists) {
		t.Fatalf("duplicate create: err = %v", err)
	}
}

func TestOpsOnMissingBlob(t *testing.T) {
	s := newStore(t, 3, Config{})
	ctx := storage.NewContext()
	if _, err := s.ReadBlob(ctx, "ghost", 0, make([]byte, 4)); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("read: %v", err)
	}
	if _, err := s.WriteBlob(ctx, "ghost", 0, []byte("x")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("write: %v", err)
	}
	if err := s.TruncateBlob(ctx, "ghost", 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("truncate: %v", err)
	}
	if err := s.DeleteBlob(ctx, "ghost"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("delete: %v", err)
	}
	if _, err := s.BlobSize(ctx, "ghost"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("size: %v", err)
	}
}

func TestNegativeOffsetsRejected(t *testing.T) {
	s := newStore(t, 3, Config{})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "k")
	if _, err := s.ReadBlob(ctx, "k", -1, make([]byte, 1)); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("read: %v", err)
	}
	if _, err := s.WriteBlob(ctx, "k", -1, []byte("x")); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("write: %v", err)
	}
	if err := s.TruncateBlob(ctx, "k", -1); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("truncate: %v", err)
	}
}

func TestMultiChunkWriteAndRead(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 16})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "big")
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := s.WriteBlob(ctx, "big", 5, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 120)
	n, err := s.ReadBlob(ctx, "big", 0, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 105 {
		t.Fatalf("read %d bytes, want 105", n)
	}
	for i := 0; i < 5; i++ {
		if got[i] != 0 {
			t.Fatalf("leading gap byte %d = %d, want 0 (sparse)", i, got[i])
		}
	}
	if !bytes.Equal(got[5:105], data) {
		t.Fatal("multi-chunk payload corrupted")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestReadPastEOF(t *testing.T) {
	s := newStore(t, 3, Config{ChunkSize: 8})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "k")
	s.WriteBlob(ctx, "k", 0, []byte("hello"))
	n, err := s.ReadBlob(ctx, "k", 5, make([]byte, 10))
	if err != nil || n != 0 {
		t.Fatalf("read at EOF = (%d, %v), want (0, nil)", n, err)
	}
	n, err = s.ReadBlob(ctx, "k", 100, make([]byte, 10))
	if err != nil || n != 0 {
		t.Fatalf("read past EOF = (%d, %v)", n, err)
	}
	buf := make([]byte, 10)
	n, err = s.ReadBlob(ctx, "k", 3, buf)
	if err != nil || n != 2 || string(buf[:n]) != "lo" {
		t.Fatalf("short read = (%d, %v, %q)", n, err, buf[:n])
	}
}

func TestEmptyWriteNoop(t *testing.T) {
	s := newStore(t, 3, Config{})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "k")
	n, err := s.WriteBlob(ctx, "k", 10, nil)
	if err != nil || n != 0 {
		t.Fatalf("empty write = (%d, %v)", n, err)
	}
	if size, _ := s.BlobSize(ctx, "k"); size != 0 {
		t.Fatalf("empty write changed size to %d", size)
	}
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 8})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "t")
	s.WriteBlob(ctx, "t", 0, []byte("abcdefghijklmnopqrstuvwxyz"))

	if err := s.TruncateBlob(ctx, "t", 10); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.BlobSize(ctx, "t"); size != 10 {
		t.Fatalf("size after shrink = %d", size)
	}
	buf := make([]byte, 26)
	n, _ := s.ReadBlob(ctx, "t", 0, buf)
	if n != 10 || string(buf[:n]) != "abcdefghij" {
		t.Fatalf("after shrink read = (%d, %q)", n, buf[:n])
	}

	if err := s.TruncateBlob(ctx, "t", 20); err != nil {
		t.Fatal(err)
	}
	n, _ = s.ReadBlob(ctx, "t", 0, buf)
	if n != 20 {
		t.Fatalf("after grow read %d bytes, want 20", n)
	}
	if string(buf[:10]) != "abcdefghij" {
		t.Fatalf("grow corrupted prefix: %q", buf[:10])
	}
	for i := 10; i < 20; i++ {
		if buf[i] != 0 {
			t.Fatalf("grown region byte %d = %d, want 0", i, buf[i])
		}
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestDeleteRemovesEverything(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 8})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "d")
	s.WriteBlob(ctx, "d", 0, make([]byte, 100))
	if err := s.DeleteBlob(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BlobSize(ctx, "d"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("blob survived delete: %v", err)
	}
	total := 0
	for i := 0; i < 4; i++ {
		total += s.ChunkCount(cluster.NodeID(i)) + s.DescriptorCount(cluster.NodeID(i))
	}
	if total != 0 {
		t.Fatalf("delete left %d descriptors/chunks behind", total)
	}
}

// TestOpsOnDeletedBlobSeeNotFound: an op on a blob that a concurrent delete
// has latched answers ErrNotFound once the delete releases the latch, and
// after every node recovers nothing is listed. It must not act on the removed
// blob: a write would leave an orphan chunk and, past the old size, log a
// size that brings the blob back once every node recovers; a read would
// return zeros; a rename would leave its target behind. The delete's first
// append is held for 20 ms, latch taken and descriptor still mapped, while
// the op queues on the latch.
func TestOpsOnDeletedBlobSeeNotFound(t *testing.T) {
	late, buf := []byte("late"), make([]byte, 100)
	arms := []struct {
		name string
		op   func(s *Store, ctx *storage.Context) error
	}{
		{"write", func(s *Store, ctx *storage.Context) error { _, err := s.WriteBlob(ctx, "k", 0, late); return err }},
		{"read", func(s *Store, ctx *storage.Context) error { _, err := s.ReadBlob(ctx, "k", 0, buf); return err }},
		{"write past the end", func(s *Store, ctx *storage.Context) error { _, err := s.WriteBlob(ctx, "k", 120, late); return err }},
		{"truncate", func(s *Store, ctx *storage.Context) error { return s.TruncateBlob(ctx, "k", 10) }},
		{"size", func(s *Store, ctx *storage.Context) error { _, err := s.BlobSize(ctx, "k"); return err }},
		{"delete", func(s *Store, ctx *storage.Context) error { return s.DeleteBlob(ctx, "k") }},
		{"rename", func(s *Store, ctx *storage.Context) error { return s.RenameBlob(ctx, "k", "k2") }},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			s := newStore(t, 4, Config{ChunkSize: 64, Replication: 2})
			ctx := storage.NewContext()
			if err := s.CreateBlob(ctx, "k"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteBlob(ctx, "k", 0, pattern(1, 100)); err != nil {
				t.Fatal(err)
			}
			var armed atomic.Bool
			armed.Store(true)
			done := make(chan error, 1)
			s.Observe(func(Event) {
				if armed.CompareAndSwap(true, false) {
					go func() { done <- arm.op(s, storage.NewContext()) }()
					//blobvet:allow virtualtime test-only real-time pacing lets the op reach the latch; the assertions are outcome-based
					time.Sleep(20 * time.Millisecond)
				}
			})
			if err := s.DeleteBlob(ctx, "k"); err != nil {
				t.Fatal(err)
			}
			err := <-done
			s.Observe(nil)
			if !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("%s racing the delete: %v, want ErrNotFound", arm.name, err)
			}
			if msg := s.CheckInvariants(); msg != "" {
				t.Errorf("invariants: %s", msg)
			}
			for n := range s.servers {
				s.Crash(cluster.NodeID(n))
			}
			for n := range s.servers {
				if err := s.Recover(cluster.NodeID(n)); err != nil {
					t.Fatal(err)
				}
			}
			if size, err := s.BlobSize(ctx, "k"); !errors.Is(err, storage.ErrNotFound) {
				t.Errorf("after every node recovered: size %d, %v; want ErrNotFound", size, err)
			}
			if infos, err := s.Scan(ctx, ""); err != nil || len(infos) != 0 {
				t.Errorf("after every node recovered: scan %v, %v; want nothing listed", infos, err)
			}
			if msg := s.CheckInvariants(); msg != "" {
				t.Errorf("invariants after every node recovered: %s", msg)
			}
		})
	}
}

// TestOpsRacingCreate: an op that finds a blob while its create is still
// replicating the descriptor waits until every replica holds it. Unlatched,
// the op reached replicas that did not hold the key yet, so the create's
// replication then brought back a deleted blob, or reset an acknowledged
// size to 0 on the replicas, and the descriptor primary's recovery adopted
// that from them. The create's first append on the descriptor primary is held
// for 20 ms while the op runs; then only that node crashes and recovers,
// since recovering every node can hide the loss.
func TestOpsRacingCreate(t *testing.T) {
	ten := pattern(1, 10)
	arms := []struct {
		name string
		size int64 // -1: the blob must be gone
		op   func(s *Store, ctx *storage.Context) error
	}{
		{"delete", -1, func(s *Store, ctx *storage.Context) error { return s.DeleteBlob(ctx, "k") }},
		{"write", 10, func(s *Store, ctx *storage.Context) error { _, err := s.WriteBlob(ctx, "k", 0, ten); return err }},
		{"truncate", 10, func(s *Store, ctx *storage.Context) error { return s.TruncateBlob(ctx, "k", 10) }},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			s := newStore(t, 4, Config{ChunkSize: 64, Replication: 3})
			ctx := storage.NewContext()
			primary := cluster.NodeID(s.descOwners("k")[0])
			var armed atomic.Bool
			armed.Store(true)
			done := make(chan error, 1)
			s.Observe(func(ev Event) {
				if ev.Type == wal.RecMeta && ev.Node == primary && armed.CompareAndSwap(true, false) {
					go func() { done <- arm.op(s, storage.NewContext()) }()
					//blobvet:allow virtualtime test-only real-time pacing lets the op find the key; the assertions are outcome-based
					time.Sleep(20 * time.Millisecond)
				}
			})
			if err := s.CreateBlob(ctx, "k"); err != nil {
				t.Fatal(err)
			}
			err := <-done
			s.Observe(nil)
			if err != nil {
				t.Fatalf("%s racing the create: %v", arm.name, err)
			}
			check := func(when string) {
				t.Helper()
				size, err := s.BlobSize(ctx, "k")
				infos, _ := s.Scan(ctx, "")
				switch {
				case arm.size < 0 && (!errors.Is(err, storage.ErrNotFound) || len(infos) != 0):
					t.Errorf("%s: size %d, %v, scan %v; want ErrNotFound and nothing listed", when, size, err, infos)
				case arm.size >= 0 && (err != nil || size != arm.size):
					t.Errorf("%s: size %d, %v; want %d", when, size, err, arm.size)
				}
				if msg := s.CheckInvariants(); msg != "" {
					t.Errorf("invariants %s: %s", when, msg)
				}
			}
			check("after the race")
			s.Crash(primary)
			if err := s.Recover(primary); err != nil {
				t.Fatal(err)
			}
			check("after the descriptor primary recovered")
			if arm.size < 0 {
				for n := range s.servers {
					if c := s.DescriptorCount(cluster.NodeID(n)); c != 0 {
						t.Errorf("node %d still holds %d descriptors", n, c)
					}
				}
			}
		})
	}
}

func TestScanPrefixAndOrder(t *testing.T) {
	s := newStore(t, 4, Config{})
	ctx := storage.NewContext()
	for _, k := range []string{"logs/b", "logs/a", "data/x", "logs/c"} {
		if err := s.CreateBlob(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	s.WriteBlob(ctx, "logs/a", 0, []byte("12345"))
	infos, err := s.Scan(ctx, "logs/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("Scan returned %d blobs, want 3: %v", len(infos), infos)
	}
	wantKeys := []string{"logs/a", "logs/b", "logs/c"}
	for i, info := range infos {
		if info.Key != wantKeys[i] {
			t.Fatalf("scan order: got %v", infos)
		}
	}
	if infos[0].Size != 5 {
		t.Fatalf("scan size for logs/a = %d, want 5", infos[0].Size)
	}
	all, _ := s.Scan(ctx, "")
	if len(all) != 4 {
		t.Fatalf("full scan returned %d, want 4", len(all))
	}
}

func TestReplicationFactor(t *testing.T) {
	s := newStore(t, 6, Config{ChunkSize: 1 << 20, Replication: 3})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "r")
	s.WriteBlob(ctx, "r", 0, []byte("payload"))
	descs, chunks := 0, 0
	for i := 0; i < 6; i++ {
		descs += s.DescriptorCount(cluster.NodeID(i))
		chunks += s.ChunkCount(cluster.NodeID(i))
	}
	if descs != 3 {
		t.Fatalf("descriptor copies = %d, want 3", descs)
	}
	if chunks != 3 {
		t.Fatalf("chunk copies = %d, want 3", chunks)
	}
}

func TestReadFallbackWhenPrimaryDown(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 1 << 20, Replication: 3})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "f")
	data := []byte("survives failure")
	s.WriteBlob(ctx, "f", 0, data)
	// Take down the chunk primary.
	owners := s.chunkOwners(chunkID{"f", 0})
	s.SetDown(cluster.NodeID(owners[0]), true)
	got := make([]byte, len(data))
	n, err := s.ReadBlob(ctx, "f", 0, got)
	if err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read with primary down = (%d, %v, %q)", n, err, got)
	}
	// All replicas down -> error.
	for _, o := range owners {
		s.SetDown(cluster.NodeID(o), true)
	}
	if _, err := s.ReadBlob(ctx, "f", 0, got); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("read with all replicas down: %v", err)
	}
}

// TestDegradedWriteWhenReplicaDown: a write whose chunk replica set has a
// down node succeeds on the live subset (primary promotion included),
// records the miss as repair debt, and converges byte-identical after the
// node rejoins.
func TestDegradedWriteWhenReplicaDown(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 4, Replication: 2})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "w")
	id := chunkID{"w", 0}
	owners := s.chunkOwners(id)
	// Keep the descriptor primary up — with it down the write fails before
	// ever reaching the chunk layer, which is not the path under test.
	down := owners[0]
	if down == s.descOwners("w")[0] {
		down = owners[1]
	}
	s.SetDown(cluster.NodeID(down), true)
	if _, err := s.WriteBlob(ctx, "w", 0, []byte("data")); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if s.RepairPending() == 0 {
		t.Fatal("degraded write recorded no repair debt")
	}
	// Reads in degraded state serve the fresh live copy, never the stale one.
	got := make([]byte, 4)
	if _, err := s.ReadBlob(ctx, "w", 0, got); err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("degraded read = (%v, %q)", err, got)
	}
	// Rejoin kicks repair; the debt drains and the copies converge.
	s.SetDown(cluster.NodeID(down), false)
	if n := s.RepairPending(); n != 0 {
		t.Fatalf("repair debt outstanding after rejoin: %d", n)
	}
	h := id.ringHash()
	a, av, _ := s.servers[owners[0]].chunkData(h, id)
	b, bv, _ := s.servers[owners[1]].chunkData(h, id)
	if !bytes.Equal(a, b) || av != bv {
		t.Fatalf("replicas diverge after repair: %q(v%d) vs %q(v%d)", a, av, b, bv)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

// TestDescriptorPrimaryDownRefusalSet pins the refusal rule the package doc
// states under "Failure semantics": with one node down, a mutation is refused
// with ErrUnavailable exactly when the descriptor primary of a key it names is
// that node; a refusal changes nothing (bytes, size, repair debt, no key
// created) and leaves the key readable; every other key is served degraded.
func TestDescriptorPrimaryDownRefusalSet(t *testing.T) {
	const down, keys = 4, 72
	s := newStore(t, 9, Config{ChunkSize: 32, Replication: 3})
	ctx := storage.NewContext()
	model := writeWorkload(t, s, ctx, sim.NewRNG(1), "k", keys) // every blob >= 64 bytes
	refusedKey := func(key string) bool { return s.descOwners(key)[0] == down }
	// fresh mints an unused key whose descriptor primary is up.
	minted := 0
	fresh := func() string {
		for {
			minted++
			if key := fmt.Sprintf("f-%d", minted); !refusedKey(key) {
				return key
			}
		}
	}
	src := fresh() // the "RenameBlob to" row's source; it follows its renames
	model[src] = []byte("rename me")
	s.CreateBlob(ctx, src)
	s.WriteBlob(ctx, src, 0, model[src])
	s.SetDown(down, true)

	payload := bytes.Repeat([]byte{0xEE}, 24) // at offset 20 it spans chunks 0 and 1
	// Each row mutates through key and updates the model only on success, so
	// a refusal that changed anything shows up in verify.
	rows := []struct {
		name   string
		prefix string // "k": the seeded keys; anything else: keys that do not exist yet
		do     func(key string) error
	}{
		{"WriteBlob", "k", func(key string) error {
			_, err := s.WriteBlob(ctx, key, 20, payload)
			if err == nil {
				copy(model[key][20:], payload)
			}
			return err
		}},
		{"TruncateBlob", "k", func(key string) error {
			err := s.TruncateBlob(ctx, key, 10)
			if err == nil {
				model[key] = model[key][:10]
			}
			return err
		}},
		{"RenameBlob from", "k", func(key string) error {
			to := fresh()
			err := s.RenameBlob(ctx, key, to)
			if err == nil {
				model[to] = model[key]
				delete(model, key)
			}
			return err
		}},
		{"DeleteBlob", "k", func(key string) error {
			err := s.DeleteBlob(ctx, key)
			if err == nil {
				delete(model, key)
			}
			return err
		}},
		{"CreateBlob", "c", func(key string) error {
			err := s.CreateBlob(ctx, key)
			if err == nil {
				model[key] = nil
			}
			return err
		}},
		{"RenameBlob to", "r", func(key string) error {
			err := s.RenameBlob(ctx, src, key)
			if err == nil {
				model[key] = model[src]
				delete(model, src)
				src = key
			}
			return err
		}},
	}
	// The store holds exactly the model: every key whole, no key beyond them.
	verify := func(phase string) {
		t.Helper()
		for key, want := range model {
			got := make([]byte, len(want)+1)
			if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || !bytes.Equal(got[:n], want) {
				t.Fatalf("%s: read %q = (%d, %v), want %d bytes", phase, key, n, err, len(want))
			}
		}
		if infos, err := s.Scan(ctx, ""); err != nil || len(infos) != len(model) {
			t.Fatalf("%s: scan = (%d keys, %v), want %d", phase, len(infos), err, len(model))
		}
	}

	const seeded = 5 // the leading "k" rows
	refused, served := make([]int, len(rows)), make([]int, len(rows))
	for i := 0; i < keys; i++ {
		for r, row := range rows {
			key := fmt.Sprintf("%s-%03d", row.prefix, i)
			if row.prefix == "k" && !refusedKey(key) && r != i%seeded {
				continue // a served mutation consumes its key: one row each
			}
			debt := s.RepairPending()
			err := row.do(key)
			switch {
			case !refusedKey(key) && err != nil:
				t.Fatalf("%s %q, descriptor primary up: %v", row.name, key, err)
			case !refusedKey(key):
				served[r]++
			case !errors.Is(err, storage.ErrUnavailable) || s.RepairPending() != debt:
				t.Fatalf("%s %q, descriptor primary down: %v (repair debt %d -> %d), want ErrUnavailable and no debt",
					row.name, key, err, debt, s.RepairPending())
			default:
				refused[r]++
			}
		}
	}
	for r, row := range rows {
		if refused[r] == 0 || served[r] == 0 {
			t.Fatalf("%s: %d refused, %d served: one side of the rule went unexercised", row.name, refused[r], served[r])
		}
	}
	verify("node down")
	if s.RepairPending() == 0 {
		t.Fatal("no served mutation was degraded")
	}

	s.SetDown(down, false)
	verify("rejoined")
	if n, msg := s.RepairPending(), s.CheckInvariants(); n != 0 || msg != "" {
		t.Fatalf("after rejoin: repair debt %d, invariants %q", n, msg)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 1 << 20})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "t")
	before := ctx.Clock.Now()
	s.WriteBlob(ctx, "t", 0, make([]byte, 1<<20))
	afterWrite := ctx.Clock.Now()
	if afterWrite <= before {
		t.Fatal("write did not advance virtual time")
	}
	s.ReadBlob(ctx, "t", 0, make([]byte, 1<<20))
	if ctx.Clock.Now() <= afterWrite {
		t.Fatal("read did not advance virtual time")
	}
}

func TestHigherReplicationCostsMore(t *testing.T) {
	data := make([]byte, 1<<20)
	costs := map[int]int64{}
	for _, rep := range []int{1, 3} {
		s := newStore(t, 6, Config{ChunkSize: 1 << 20, Replication: rep})
		ctx := storage.NewContext()
		s.CreateBlob(ctx, "k")
		before := ctx.Clock.Now()
		s.WriteBlob(ctx, "k", 0, data)
		costs[rep] = int64(ctx.Clock.Now() - before)
	}
	if costs[3] <= costs[1] {
		t.Fatalf("replication 3 write (%d) not costlier than replication 1 (%d)", costs[3], costs[1])
	}
}

func TestConcurrentWritersDisjointBlobs(t *testing.T) {
	s := newStore(t, 8, Config{ChunkSize: 256})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := storage.NewContext()
			key := fmt.Sprintf("blob-%d", i)
			if err := s.CreateBlob(ctx, key); err != nil {
				errs <- err
				return
			}
			payload := bytes.Repeat([]byte{byte(i)}, 1000)
			if _, err := s.WriteBlob(ctx, key, 0, payload); err != nil {
				errs <- err
				return
			}
			got := make([]byte, 1000)
			if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != 1000 {
				errs <- fmt.Errorf("read %s: (%d, %v)", key, n, err)
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- fmt.Errorf("blob %s corrupted", key)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

// Multi-chunk writes must be atomically visible: concurrent whole-blob
// writers of distinct patterns must never leave a mixed pattern.
func TestAtomicMultiChunkVisibility(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 16})
	setup := storage.NewContext()
	s.CreateBlob(setup, "atomic")
	const size = 128
	s.WriteBlob(setup, "atomic", 0, bytes.Repeat([]byte{0xAA}, size))

	var writers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(pattern byte) {
			defer writers.Done()
			ctx := storage.NewContext()
			for i := 0; i < 30; i++ {
				s.WriteBlob(ctx, "atomic", 0, bytes.Repeat([]byte{pattern}, size))
			}
		}(byte(0x10 * (w + 1)))
	}
	violation := make(chan string, 1)
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		ctx := storage.NewContext()
		buf := make([]byte, size)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := s.ReadBlob(ctx, "atomic", 0, buf)
			if err != nil || n != size {
				continue
			}
			for i := 1; i < size; i++ {
				if buf[i] != buf[0] {
					select {
					case violation <- fmt.Sprintf("mixed write visible: %x vs %x at %d", buf[0], buf[i], i):
					default:
					}
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	select {
	case v := <-violation:
		t.Fatal(v)
	default:
	}
}
