package blob

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// chunkData returns what a replica holds for a chunk: its bytes, its
// version, and whether it holds an entry at all.
func (sv *server) chunkData(h uint64, id chunkID) ([]byte, uint64, bool) {
	c, ver, ok := sv.chunkEntry(h, id)
	return c.b, ver, ok
}

// holdsView reports which of sv's lanes hold p, -1 for none.
func holdsView(sv *server, p []byte) int {
	for lane := 0; lane < sv.wal.Lanes(); lane++ {
		if sv.wal.LaneBuffer(lane).Holds(p) {
			return lane
		}
	}
	return -1
}

// checkOwnLogViews fails unless every chunk entry holding bytes is a view of
// a payload its own server's lanes store, starting on a 64-byte boundary,
// and lies in no other server's lanes. It returns how many entries each
// server holds.
func checkOwnLogViews(t *testing.T, s *Store, when string) []int {
	t.Helper()
	held := make([]int, len(s.servers))
	for i, sv := range s.servers {
		sv.forEachChunk(func(id chunkID, data []byte, _ uint64) {
			if len(data) == 0 {
				return // a tombstone
			}
			held[i]++
			if holdsView(sv, data) < 0 {
				t.Errorf("%s: node %d's chunk %d of %q is not in its own lanes", when, i, id.idx, id.key)
			}
			if a := uintptr(unsafe.Pointer(unsafe.SliceData(data))); a%64 != 0 {
				t.Errorf("%s: node %d's chunk %d of %q starts %d bytes past a 64-byte boundary", when, i, id.idx, id.key, a%64)
			}
			for j, other := range s.servers {
				if j != i && holdsView(other, data) >= 0 {
					t.Errorf("%s: node %d's chunk %d of %q lies in node %d's lanes", when, i, id.idx, id.key, j)
				}
			}
		})
	}
	return held
}

// wholeChunkAddrs maps every entry holding a whole chunk of cs bytes, by
// node and chunk, to the address its bytes start at.
func wholeChunkAddrs(s *Store, cs int) map[string]uintptr {
	at := map[string]uintptr{}
	for i, sv := range s.servers {
		sv.forEachChunk(func(id chunkID, data []byte, _ uint64) {
			if len(data) == cs {
				at[fmt.Sprintf("node %d's chunk %d of %q", i, id.idx, id.key)] = uintptr(unsafe.Pointer(unsafe.SliceData(data)))
			}
		})
	}
	return at
}

// TestChunkBytesAreOwnLog pins the aliasing rule: a chunk entry's bytes are
// the payload its own server's log stored — after a direct write, a 2PC
// write, a degraded write and its repair, a join and a drain, after a
// checkpoint has re-logged every lane, and after a crashed node has replayed
// its log — never a private copy and never another server's bytes. Both
// payload classes are covered: chunks that pack into the log's slabs and
// chunks that get a buffer of their own. A checkpoint relinks a chunk's own
// buffer instead of copying it, so with 64 KiB chunks every entry keeps its
// address across two checkpoints, and across the checkpoint after a
// Crash + Recover too.
func TestChunkBytesAreOwnLog(t *testing.T) {
	for _, cs := range []int{1 << 10, 64 << 10} {
		t.Run(fmt.Sprintf("chunk%d", cs), func(t *testing.T) {
			s := NewOnNodes(cluster.New(cluster.Config{Nodes: 6, Seed: 9}),
				Config{ChunkSize: cs, Replication: 3, WALLanes: 4}, []cluster.NodeID{0, 1, 2, 3, 4})
			ctx, m := storage.NewContext(), newModel(s)
			write := func(key string, data []byte) {
				t.Helper()
				if _, ok := m.data(key); !ok {
					if err := s.CreateBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.WriteBlob(ctx, key, 0, data); err != nil {
					t.Fatal(err)
				}
			}
			write("direct", pattern(1, cs))
			write("tx", pattern(2, 3*cs))

			// A degraded write: one chunk owner, not the descriptor
			// primary, is down for it and gets the bytes by repair.
			write("degraded", pattern(3, cs))
			id := chunkID{"degraded", 0}
			down := -1
			for _, o := range s.chunkOwners(id) {
				if o != s.descOwners("degraded")[0] {
					down = o
				}
			}
			s.SetDown(cluster.NodeID(down), true)
			write("degraded", pattern(4, cs))
			if s.RepairPending() == 0 {
				t.Fatal("the degraded write listed no repair debt")
			}
			s.SetDown(cluster.NodeID(down), false)
			s.Repair(ctx)
			if got, _, _ := s.servers[down].chunkData(id.ringHash(), id); !bytes.Equal(got, pattern(4, cs)) {
				t.Fatalf("repair did not bring node %d the degraded write", down)
			}

			if err := s.AddServer(ctx, 5); err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveServer(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if held := checkOwnLogViews(t, s, "before the checkpoint"); held[5] == 0 {
				t.Fatal("the join installed nothing on node 5")
			}
			checkpoint := func(when string) {
				t.Helper()
				before := wholeChunkAddrs(s, cs)
				s.CheckpointAll()
				checkOwnLogViews(t, s, when)
				if cs != 64<<10 {
					return // chunks packed into slabs are copied
				}
				after := wholeChunkAddrs(s, cs)
				if len(after) != len(before) {
					t.Fatalf("%s: %d whole-chunk entries, %d before", when, len(after), len(before))
				}
				for entry, at := range before {
					if after[entry] != at {
						t.Fatalf("%s: %s moved: the checkpoint copied it instead of relinking its log buffer", when, entry)
					}
				}
			}
			checkpoint("after CheckpointAll")
			checkpoint("after a second CheckpointAll")

			// Recovered: the replayed entries are views of the node's own
			// lanes, exact log buffers with their sums, so the next
			// checkpoint relinks them like any other.
			s.Crash(1)
			if err := s.Recover(1); err != nil {
				t.Fatal(err)
			}
			if held := checkOwnLogViews(t, s, "after Crash + Recover"); held[1] == 0 {
				t.Fatal("node 1 recovered no chunk")
			}
			checkpoint("after the CheckpointAll that follows Recover")
			checkSound(t, s, m)
		})
	}
}

// readFromNode0 checks that node 0 alone serves every acknowledged byte:
// its peers are soft-down for the reads.
func readFromNode0(t *testing.T, s *Store, ctx *storage.Context, want map[string][]byte, when string) {
	t.Helper()
	for node := 1; node < len(s.servers); node++ {
		s.SetDown(cluster.NodeID(node), true)
	}
	for key, data := range want {
		got := make([]byte, len(data))
		if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
			t.Errorf("%s: node 0 served %q as (%d, %v), not its acknowledged %d bytes", when, key, n, err, len(data))
		}
	}
	for node := 1; node < len(s.servers); node++ {
		s.SetDown(cluster.NodeID(node), false)
	}
}

// TestLaneDamageLeavesLiveChunks: tearing and flipping the log lanes of a
// live server touches its log, never its memory, though its chunk entries
// are views of those lanes. Each lane is torn inside its last record, a
// chunk payload, and more writes follow; then bytes are flipped and more
// writes follow again. Node 0 must serve every acknowledged byte throughout,
// a checkpoint rewrites its log from that memory, and Crash + Recover then
// leaves the store clean.
func TestLaneDamageLeavesLiveChunks(t *testing.T) {
	const cs = 256
	s := mkStore(3, Config{ChunkSize: cs, Replication: 3, WALLanes: 2}, false)
	ctx := storage.NewContext()
	want := map[string][]byte{}
	write := func(key string, tag int) {
		t.Helper()
		if _, ok := want[key]; !ok {
			if err := s.CreateBlob(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
		data := pattern(tag, cs)
		if _, err := s.WriteBlob(ctx, key, 0, data); err != nil {
			t.Fatal(err)
		}
		want[key] = data
	}
	for i := 0; i < 8; i++ {
		write(fmt.Sprintf("old-%d", i), i)
	}
	// Overwrites that keep each blob's size log no descriptor record, so
	// each lane now ends in a chunk payload a live entry views.
	for i := 0; i < 8; i++ {
		write(fmt.Sprintf("old-%d", i), 10+i)
	}
	victim := s.servers[0]
	for lane := 0; lane < victim.wal.Lanes(); lane++ {
		lb := victim.wal.LaneBuffer(lane)
		lb.Truncate(lb.Len() - 3)
	}
	for i := 0; i < 8; i++ {
		write(fmt.Sprintf("new-%d", i), 20+i)
	}
	readFromNode0(t, s, ctx, want, "after tears")

	for lane := 0; lane < victim.wal.Lanes(); lane++ {
		lb := victim.wal.LaneBuffer(lane)
		for off := lb.Len() - 5; off > 0; off -= 61 {
			if err := lb.Corrupt(off); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		write(fmt.Sprintf("old-%d", i), 30+i)
		write(fmt.Sprintf("more-%d", i), 40+i)
	}
	readFromNode0(t, s, ctx, want, "after flips")
	if t.Failed() {
		return
	}

	s.CheckpointAll()
	readFromNode0(t, s, ctx, want, "after the checkpoint")
	s.Crash(0)
	if err := s.Recover(0); err != nil {
		t.Fatal(err)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	readFromNode0(t, s, ctx, want, "after Recover")
}

// copyBytes reads the store's blob.copy.bytes counter.
func copyBytes(s *Store) int64 { return s.Metrics().Counter("blob.copy.bytes").Value() }

// TestCopyBytesCounted pins blob.copy.bytes, the bytes the store copies into
// chunk memory, at exact values: whole-chunk writes, 2PC and direct, copy
// nothing, and neither does a Crash + Recover + CheckpointAll at 64 KiB
// chunks, where every recovered entry is its own log buffer; a partial write
// copies its merged chunk on each of its R replicas, and the next checkpoint
// copies that merged entry once more on each. The small-object arm packs
// three 20 KiB objects to a 64 KiB slab: checkpoints copy nothing while every
// slab is dense, and once two of a slab's three objects are overwritten, the
// checkpoint copies exactly the survivor, on each replica.
func TestCopyBytesCounted(t *testing.T) {
	const cs, r = 64 << 10, 3
	s := NewOnNodes(cluster.New(cluster.Config{Nodes: 5, Seed: 4}),
		Config{ChunkSize: cs, Replication: r, WALLanes: 4}, nil)
	ctx := storage.NewContext()
	step := func(what string, err error, want int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := copyBytes(s); got != want {
			t.Fatalf("%s: blob.copy.bytes is %d, want %d", what, got, want)
		}
	}
	write := func(key string, off int64, tag, n int) error {
		_, err := s.WriteBlob(ctx, key, off, pattern(tag, n))
		return err
	}
	for i := range 4 {
		key := fmt.Sprintf("b%d", i)
		step("create", s.CreateBlob(ctx, key), 0)
		step("2PC write of three whole chunks", write(key, 0, i, 3*cs), 0)
		step("direct write of a whole chunk", write(key, cs, 10+i, cs), 0)
	}
	s.Crash(2)
	step("Crash + Recover", s.Recover(2), 0)
	s.CheckpointAll()
	step("the CheckpointAll after Recover", nil, 0)

	step("partial write inside a whole chunk", write("b0", 100, 20, 10), r*cs)
	step("partial write past the end", write("b0", 3*cs+5, 21, 7), r*cs+r*12)
	s.CheckpointAll()
	step("the CheckpointAll after the partial writes", nil, 2*(r*cs+r*12))
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}

	// Small objects: one lane per server, every server an owner of all.
	const obj = 20 << 10
	s = NewOnNodes(cluster.New(cluster.Config{Nodes: r, Seed: 4}),
		Config{ChunkSize: cs, Replication: r, WALLanes: 1}, nil)
	for i := range 6 {
		key := fmt.Sprintf("s%d", i)
		step("create", s.CreateBlob(ctx, key), 0)
		step("whole write of a small object", write(key, 0, 30+i, obj), 0)
	}
	s.CheckpointAll()
	step("a CheckpointAll over dense slabs", nil, 0)
	s.CheckpointAll()
	step("a second CheckpointAll over dense slabs", nil, 0)
	step("overwrite of the first object", write("s0", 0, 40, obj), 0)
	step("overwrite of the second object", write("s1", 0, 41, obj), 0)
	s.CheckpointAll()
	step("the CheckpointAll after two of a slab's three objects moved", nil, r*obj)
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestDrainRecyclesItsLog: a drained node holds nothing once its drain ends,
// so its retired log backing goes back to its free list, and the join that
// brings it back reuses those buffers instead of allocating fresh ones. The
// 48 KiB chunks get log buffers of their own in a size class no slab shares,
// and each is written once, so the node's buffers of that size are exactly
// its chunk entries: every chunk the join installs must land in one of them.
func TestDrainRecyclesItsLog(t *testing.T) {
	const cs = 48 << 10
	s := NewOnNodes(cluster.New(cluster.Config{Nodes: 5, Seed: 3}),
		Config{ChunkSize: cs, Replication: 3, WALLanes: 4}, nil)
	ctx := storage.NewContext()
	for i := range 8 {
		key := fmt.Sprintf("b%d", i)
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteBlob(ctx, key, 0, pattern(i, 3*cs)); err != nil {
			t.Fatal(err)
		}
	}
	entries := func() map[uintptr]bool {
		at := map[uintptr]bool{}
		s.servers[0].forEachChunk(func(_ chunkID, data []byte, _ uint64) {
			if len(data) == cs {
				at[uintptr(unsafe.Pointer(unsafe.SliceData(data)))] = true
			}
		})
		return at
	}
	held := entries()
	if len(held) == 0 {
		t.Fatal("node 0 holds no chunk")
	}
	if err := s.RemoveServer(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if s.ChunkCount(0) != 0 || s.migIntent.Load() != nil {
		t.Fatal("the drain of node 0 did not finish")
	}
	if err := s.AddServer(ctx, 0); err != nil {
		t.Fatal(err)
	}
	back := entries()
	if len(back) != len(held) {
		t.Fatalf("the join installed %d chunks on node 0, it held %d before the drain", len(back), len(held))
	}
	reused := 0
	for at := range back {
		if held[at] {
			reused++
		}
	}
	if reused != len(back) {
		t.Fatalf("the join reused %d of node 0's %d retired chunk buffers: the drain did not recycle its log", reused, len(back))
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestCheckpointAllocsFlat: a warm CheckpointAll allocates a small fixed
// count, however many objects the store holds. Its plan lists and its
// AppendNV batches are kept on each server across checkpoints, the relogged
// records land in recycled or relinked log buffers, and wal.Buffer keeps the
// storage of its own bookkeeping, so 4096 small objects cost the allocations
// 1024 do. After three warm-up checkpoints the count is the largest of ten
// runs: every run must stay at the floor, not just the best one. The runs
// take one P: with more, on a busy host, the runtime now and then allocates
// a semaphore waiter (a sudog) for parallelDo's WaitGroup.Wait, which is
// the scheduler's allocation, not the checkpoint's.
func TestCheckpointAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const maxAllocs = 32
	var allocs []float64
	for _, objects := range []int{1024, 4096} {
		s := mkStore(9, Config{ChunkSize: 64 << 10, Replication: 3}, false)
		ctx := storage.NewContext()
		payload := pattern(1, 4<<10)
		for i := range objects {
			key := fmt.Sprintf("o/%05d", i)
			if err := s.CreateBlob(ctx, key); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteBlob(ctx, key, 0, payload); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			s.CheckpointAll() // the lists and the log buffers reach their size
		}
		a := 0.0
		procs := runtime.GOMAXPROCS(1)
		for range 10 {
			a = max(a, testing.AllocsPerRun(1, s.CheckpointAll))
		}
		runtime.GOMAXPROCS(procs)
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		allocs = append(allocs, a)
	}
	t.Logf("a warm CheckpointAll: %v allocations at 1024 objects, %v at 4096", allocs[0], allocs[1])
	if allocs[0] != allocs[1] || allocs[1] > maxAllocs {
		t.Fatalf("a warm CheckpointAll allocates %v times at 1024 objects and %v at 4096, want the same and at most %d",
			allocs[0], allocs[1], maxAllocs)
	}
}
