package blob

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// populate drives a varied mutation history across several blobs.
func populate(t *testing.T, s *Store, ctx *storage.Context, rng *sim.RNG) map[string][]byte {
	t.Helper()
	expect := make(map[string][]byte)
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("obj-%d", i)
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 200+i*97)
		rng.Fill(data)
		if _, err := s.WriteBlob(ctx, key, 0, data); err != nil {
			t.Fatal(err)
		}
		expect[key] = data
	}
	// Overwrite part of one, truncate another, delete a third.
	patch := []byte("patched-region")
	if _, err := s.WriteBlob(ctx, "obj-1", 50, patch); err != nil {
		t.Fatal(err)
	}
	copy(expect["obj-1"][50:], patch)
	if err := s.TruncateBlob(ctx, "obj-2", 100); err != nil {
		t.Fatal(err)
	}
	expect["obj-2"] = expect["obj-2"][:100]
	if err := s.DeleteBlob(ctx, "obj-3"); err != nil {
		t.Fatal(err)
	}
	delete(expect, "obj-3")
	return expect
}

func verifyAll(t *testing.T, s *Store, ctx *storage.Context, expect map[string][]byte) {
	t.Helper()
	for key, want := range expect {
		size, err := s.BlobSize(ctx, key)
		if err != nil {
			t.Fatalf("%s: size: %v", key, err)
		}
		if size != int64(len(want)) {
			t.Fatalf("%s: size = %d, want %d", key, size, len(want))
		}
		got := make([]byte, len(want))
		n, err := s.ReadBlob(ctx, key, 0, got)
		if err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("%s: read = (%d, %v), content match=%v", key, n, err, bytes.Equal(got, want))
		}
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

func TestCrashRecoverySingleNode(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 1}), Config{ChunkSize: 64, Replication: 2})
	ctx := storage.NewContext()
	expect := populate(t, s, ctx, sim.NewRNG(11))

	// Crash and recover every node in turn; data must survive bit-for-bit.
	for node := 0; node < 5; node++ {
		s.Crash(cluster.NodeID(node))
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatalf("recover node %d: %v", node, err)
		}
		verifyAll(t, s, ctx, expect)
	}
}

func TestCrashRecoveryAllNodes(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 4, Seed: 2}), Config{ChunkSize: 32, Replication: 2})
	ctx := storage.NewContext()
	expect := populate(t, s, ctx, sim.NewRNG(12))

	// Power loss: every server loses volatile state at once.
	for node := 0; node < 4; node++ {
		s.Crash(cluster.NodeID(node))
	}
	// Nothing is readable while down.
	if _, err := s.BlobSize(ctx, "obj-0"); err == nil {
		t.Fatal("crashed cluster still served metadata")
	}
	for node := 0; node < 4; node++ {
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatalf("recover node %d: %v", node, err)
		}
	}
	verifyAll(t, s, ctx, expect)
}

func TestRecoveredStateIdenticalToLive(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 4, Seed: 3}), Config{ChunkSize: 48, Replication: 3})
	ctx := storage.NewContext()
	populate(t, s, ctx, sim.NewRNG(13))

	// Snapshot live state of node 2, crash+recover, compare.
	sv := s.servers[2]
	sv.mu.RLock()
	liveDesc := make(map[string]int64, len(sv.blobs))
	for k, d := range sv.blobs {
		liveDesc[k] = d.size
	}
	sv.mu.RUnlock()
	liveChunks := make(map[chunkID]string)
	sv.forEachChunk(func(id chunkID, c []byte, _ uint64) {
		liveChunks[id] = string(c)
	})

	s.Crash(2)
	if err := s.Recover(2); err != nil {
		t.Fatal(err)
	}

	sv.mu.RLock()
	if len(sv.blobs) != len(liveDesc) {
		t.Fatalf("descriptor count after recovery = %d, want %d", len(sv.blobs), len(liveDesc))
	}
	for k, size := range liveDesc {
		d, ok := sv.blobs[k]
		if !ok || d.size != size {
			t.Fatalf("descriptor %q diverges after recovery", k)
		}
	}
	sv.mu.RUnlock()
	if got := sv.chunkCount(); got != len(liveChunks) {
		t.Fatalf("chunk count after recovery = %d, want %d", got, len(liveChunks))
	}
	for id, c := range liveChunks {
		got, _, ok := sv.copyChunk(id.ringHash(), id)
		if !ok || string(got) != c {
			t.Fatalf("chunk %v diverges after recovery", id)
		}
	}
}

// TestCheckpointPreservesRecovery: compacting the WAL into a state
// snapshot must leave crash recovery bit-for-bit equivalent, and the log
// must actually shrink.
func TestCheckpointPreservesRecovery(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 9}), Config{ChunkSize: 64, Replication: 2})
	ctx := storage.NewContext()
	expect := populate(t, s, ctx, sim.NewRNG(31))

	// Grow the logs with overwrites, then checkpoint everywhere.
	for i := 0; i < 20; i++ {
		if _, err := s.WriteBlob(ctx, "obj-0", 0, []byte("overwrite-cycle")); err != nil {
			t.Fatal(err)
		}
	}
	copy(expect["obj-0"], "overwrite-cycle")
	grown := s.servers[0].wal.Size()
	s.CheckpointAll()
	if after := s.servers[0].wal.Size(); after >= grown {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", grown, after)
	}

	// Crash + recover every node: the snapshot must reconstruct the state.
	for node := 0; node < 5; node++ {
		s.Crash(cluster.NodeID(node))
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatalf("recover node %d after checkpoint: %v", node, err)
		}
	}
	verifyAll(t, s, ctx, expect)

	// Post-checkpoint mutations append to the compacted log and survive
	// another crash cycle.
	if _, err := s.WriteBlob(ctx, "obj-0", 4, []byte("post-ckpt")); err != nil {
		t.Fatal(err)
	}
	copy(expect["obj-0"][4:], "post-ckpt")
	for node := 0; node < 5; node++ {
		s.Crash(cluster.NodeID(node))
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatal(err)
		}
	}
	verifyAll(t, s, ctx, expect)
}

// TestCheckpointSkipsDownServer: a crashed server's WAL is its only
// recovery source; checkpointing must not wipe it.
func TestCheckpointSkipsDownServer(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 4, Seed: 10}), Config{ChunkSize: 64, Replication: 2})
	ctx := storage.NewContext()
	expect := populate(t, s, ctx, sim.NewRNG(41))

	s.Crash(2)
	s.CheckpointAll() // must leave node 2's WAL intact
	if err := s.Recover(2); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, s, ctx, expect)
	if n := s.DescriptorCount(2) + s.ChunkCount(2); n == 0 {
		t.Fatal("node 2 recovered empty: checkpoint wiped a down server's WAL")
	}
}

func TestRecoveryAfterTornTail(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 4}), Config{ChunkSize: 64, Replication: 1})
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "durable"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, "durable", 0, []byte("first-write")); err != nil {
		t.Fatal(err)
	}
	// Tear the tail of every non-empty log lane (a crash mid-append on
	// several lanes at once); recovery must stop cleanly at the merged
	// order-key prefix rather than fail.
	for node := 0; node < 3; node++ {
		sv := s.servers[node]
		for lane := 0; lane < sv.wal.Lanes(); lane++ {
			if buf := sv.wal.LaneBuffer(lane); buf.Len() > 3 {
				buf.Truncate(buf.Len() - 3)
			}
		}
		s.Crash(cluster.NodeID(node))
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatalf("recover with torn tail, node %d: %v", node, err)
		}
	}
}

// TestCheckpointThenCrashMidAppendTornSlab drives the segmented WAL buffer
// through a full compaction cycle and then a crash mid-append: after a
// checkpoint (Buffer.Reset + Log.ResetSize) the log is refilled across
// several slabs, the final slab is torn mid-record, and replay must still
// see a consistent prefix — every fully-appended write, nothing of the torn
// one, on every replica identically.
func TestCheckpointThenCrashMidAppendTornSlab(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 4, Seed: 21}), Config{ChunkSize: 1024, Replication: 2})
	ctx := storage.NewContext()
	key := "slab-blob"
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	base := make([]byte, 4096)
	sim.NewRNG(77).Fill(base)
	if _, err := s.WriteBlob(ctx, key, 0, base); err != nil {
		t.Fatal(err)
	}

	// Compact everywhere: every log restarts at a snapshot (ResetAll).
	s.CheckpointAll()
	for node := 0; node < 4; node++ {
		sv := s.servers[node]
		for lane := 0; lane < sv.wal.Lanes(); lane++ {
			if got, want := sv.wal.LaneSize(lane), int64(sv.wal.LaneBuffer(lane).Len()); got != want {
				t.Fatalf("node %d lane %d: size %d != buffer length %d after checkpoint", node, lane, got, want)
			}
		}
	}

	// Refill chunk 0's replica logs well past one slab: 200 overwrites of
	// the same chunk, each a distinct pattern, all landing on the same
	// replica set.
	pattern := func(i int) []byte {
		p := make([]byte, 1024)
		for j := range p {
			p[j] = byte(i + j*7)
		}
		return p
	}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if _, err := s.WriteBlob(ctx, key, 0, pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	// All 200 overwrites address chunk 0, so they all land on its log lane.
	h0 := chunkID{key, 0}.ringHash()
	owners := s.chunkOwners(chunkID{key, 0})
	for _, o := range owners {
		sv := s.servers[o]
		if slabs := sv.wal.LaneBuffer(sv.chunkLane(h0)).Slabs(); slabs < 2 {
			t.Fatalf("node %d: chunk-0 lane holds %d slab(s); the test needs multi-slab growth", o, slabs)
		}
	}

	// Crash mid-append: tear the final slab of every replica's chunk-0
	// lane a few bytes short, cutting into the last (round-199) record.
	for _, o := range owners {
		sv := s.servers[o]
		buf := sv.wal.LaneBuffer(sv.chunkLane(h0))
		buf.Truncate(buf.Len() - 3)
	}
	// Correlated crash: every replica goes down BEFORE any recovers, so
	// rejoin resync finds no live peer holding the torn round-199 write.
	// (Sequential crash/recover would let the surviving replicas' retained
	// memory legitimately re-supply it — that is resync working, not a torn
	// prefix.)
	for _, o := range owners {
		s.Crash(cluster.NodeID(o))
	}
	for _, o := range owners {
		if err := s.Recover(cluster.NodeID(o)); err != nil {
			t.Fatalf("recover node %d: %v", o, err)
		}
	}

	// The consistent prefix: rounds 0..198 fully applied, the torn round
	// 199 invisible, replicas identical, untouched chunks intact.
	got := make([]byte, 4096)
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != len(got) {
		t.Fatalf("read after recovery: (%d, %v)", n, err)
	}
	if !bytes.Equal(got[:1024], pattern(rounds-2)) {
		t.Fatal("chunk 0 after torn-tail recovery is not the last fully-logged write")
	}
	if !bytes.Equal(got[1024:], base[1024:]) {
		t.Fatal("untouched chunks diverged across checkpoint + recovery")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}

	// The recovered servers keep appending into the recycled slabs: another
	// write and clean crash cycle must replay exactly.
	if _, err := s.WriteBlob(ctx, key, 0, pattern(1000)); err != nil {
		t.Fatal(err)
	}
	for _, o := range owners {
		s.Crash(cluster.NodeID(o))
	}
	for _, o := range owners {
		if err := s.Recover(cluster.NodeID(o)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != len(got) {
		t.Fatalf("read after second recovery: (%d, %v)", n, err)
	}
	if !bytes.Equal(got[:1024], pattern(1000)) {
		t.Fatal("write after torn-tail recovery did not survive the next crash")
	}
}

// TestRecoverTwoLaneCrashConverges extends the torn-slab test to the
// sharded log: checkpoint, refill two DIFFERENT lanes (two blobs whose
// chunk-0 placement hashes select distinct lanes), then crash mid-append
// on both lanes at once on every replica. Recovery must converge every
// replica to the same consistent prefix — the merged order-key prefix
// stops at the earlier torn record, so the later lane's clean records
// past it are discarded everywhere identically — and post-recovery
// appends must survive the next crash cycle.
func TestRecoverTwoLaneCrashConverges(t *testing.T) {
	// Replication == nodes: every server logs the same record sequence, so
	// identical tears recover to identical prefixes on every replica.
	s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 33}), Config{ChunkSize: 1024, Replication: 3})
	ctx := storage.NewContext()

	// Two keys whose chunk 0 lands on different log lanes.
	sv0 := s.servers[0]
	keyA := ""
	keyB := ""
	laneOf := func(key string) int { return sv0.chunkLane(chunkID{key, 0}.ringHash()) }
	for i := 0; keyB == ""; i++ {
		key := fmt.Sprintf("lane-blob-%d", i)
		switch {
		case keyA == "":
			keyA = key
		case laneOf(key) != laneOf(keyA):
			keyB = key
		}
	}
	hA, hB := chunkID{keyA, 0}.ringHash(), chunkID{keyB, 0}.ringHash()

	pattern := func(seed int) []byte {
		p := make([]byte, 1024)
		for j := range p {
			p[j] = byte(seed + j*11)
		}
		return p
	}
	for _, key := range []string{keyA, keyB} {
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteBlob(ctx, key, 0, pattern(0)); err != nil {
			t.Fatal(err)
		}
	}
	s.CheckpointAll()

	// Interleave single-chunk overwrites: lane(A) and lane(B) fill in
	// lockstep, A's round-i record always logically before B's.
	const rounds = 10
	for i := 1; i <= rounds; i++ {
		if _, err := s.WriteBlob(ctx, keyA, 0, pattern(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteBlob(ctx, keyB, 0, pattern(i+100)); err != nil {
			t.Fatal(err)
		}
	}

	// Crash mid-append on BOTH lanes of every server: each lane's final
	// record (A's and B's round-10 write) is torn a few bytes short.
	for _, sv := range s.servers {
		for _, h := range []uint64{hA, hB} {
			buf := sv.wal.LaneBuffer(sv.chunkLane(h))
			buf.Truncate(buf.Len() - 3)
		}
	}
	// Correlated crash: all replicas down before any recovers (see the
	// torn-slab test above — live peers' retained memory would otherwise
	// resync the torn write back in).
	for node := 0; node < 3; node++ {
		s.Crash(cluster.NodeID(node))
	}
	for node := 0; node < 3; node++ {
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatalf("recover node %d: %v", node, err)
		}
	}

	// The consistent prefix: A's torn round-10 write creates the earlier
	// key gap, so both blobs recover to round 9 — B's round-10 record is
	// discarded by the prefix rule (and torn) — on every replica alike.
	got := make([]byte, 1024)
	if _, err := s.ReadBlob(ctx, keyA, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(rounds-1)) {
		t.Fatalf("%s after two-lane torn recovery is not the last fully-merged write", keyA)
	}
	if _, err := s.ReadBlob(ctx, keyB, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(rounds-1+100)) {
		t.Fatalf("%s after two-lane torn recovery is not the last fully-merged write", keyB)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("replicas diverged after two-lane crash recovery: %s", msg)
	}

	// Post-recovery appends extend the repaired lanes and survive the next
	// full crash cycle.
	if _, err := s.WriteBlob(ctx, keyA, 0, pattern(42)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, keyB, 0, pattern(43)); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 3; node++ {
		s.Crash(cluster.NodeID(node))
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatalf("second recover node %d: %v", node, err)
		}
	}
	if _, err := s.ReadBlob(ctx, keyA, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(42)) {
		t.Fatal("write after two-lane recovery did not survive the next crash")
	}
	if _, err := s.ReadBlob(ctx, keyB, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(43)) {
		t.Fatal("write after two-lane recovery did not survive the next crash")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after post-recovery crash cycle: %s", msg)
	}
}

// TestRecoverySingleLaneConfig pins the WALLanes=1 degenerate case: the
// lane plumbing must behave exactly like the historical single log across
// a full mutation history and crash cycle.
func TestRecoverySingleLaneConfig(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 7}), Config{ChunkSize: 64, Replication: 2, WALLanes: 1})
	ctx := storage.NewContext()
	expect := populate(t, s, ctx, sim.NewRNG(55))
	if got := s.servers[0].wal.Lanes(); got != 1 {
		t.Fatalf("WALLanes=1 built %d lanes", got)
	}
	for node := 0; node < 5; node++ {
		s.Crash(cluster.NodeID(node))
		if err := s.Recover(cluster.NodeID(node)); err != nil {
			t.Fatalf("recover node %d: %v", node, err)
		}
	}
	verifyAll(t, s, ctx, expect)
}

func TestWritesFailWhileCrashed(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 5}), Config{ChunkSize: 64, Replication: 1})
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	owners := s.descOwners("k")
	s.Crash(cluster.NodeID(owners[0]))
	if _, err := s.WriteBlob(ctx, "k", 0, []byte("x")); err == nil {
		t.Fatal("write succeeded against a crashed descriptor primary")
	}
	if err := s.Recover(cluster.NodeID(owners[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, "k", 0, []byte("x")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestSetDownCannotReviveWipedServer: SetDown(node, false) on a crash-wiped
// server is ignored. Its tables are empty and the clean read path asks only
// isDown(), so marking it up would serve zeros for acknowledged bytes with a
// nil error; only Recover can bring it back.
func TestSetDownCannotReviveWipedServer(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 8, Replication: 2})
	ctx := storage.NewContext()
	// A key whose chunk-0 owners both differ from its descriptor primary, so
	// crashing a chunk owner leaves the blob writable.
	var key string
	var owners []int
	for i := 0; ; i++ {
		key = fmt.Sprintf("w-%d", i)
		owners = s.chunkOwners(chunkID{key, 0})
		if dp := s.descOwners(key)[0]; owners[0] != dp && owners[1] != dp {
			break
		}
	}
	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, key, 0, []byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	wiped := cluster.NodeID(owners[0])
	s.Crash(wiped)
	s.SetDown(wiped, false)
	got := make([]byte, 8)
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != 8 || string(got) != "abcdefgh" {
		t.Fatalf("read after the ignored up-flip = (%d, %v, %q), want the surviving owner's bytes", n, err, got)
	}
	if !s.servers[owners[0]].isDown() {
		t.Fatal("SetDown(false) marked a crash-wiped server up without Recover")
	}
	if _, err := s.WriteBlob(ctx, key, 0, []byte("ABCD")); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(wiped); err != nil {
		t.Fatal(err)
	}
	if s.servers[owners[0]].isDown() {
		t.Fatal("Recover left the server down")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after Recover: %s", msg)
	}
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != 8 || string(got) != "ABCDefgh" {
		t.Fatalf("read after Recover = (%d, %v, %q)", n, err, got)
	}
}
