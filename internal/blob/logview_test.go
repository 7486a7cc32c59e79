package blob

import (
	"bytes"
	"fmt"
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
// write, a degraded write and its repair, a join and a drain, and after a
// checkpoint has re-logged every lane — never a private copy and never
// another server's bytes. Both payload classes are covered: chunks that pack
// into the log's slabs and chunks that get a buffer of their own. A
// checkpoint relinks a chunk's own buffer instead of copying it, so with
// 64 KiB chunks every entry keeps its address across two checkpoints.
func TestChunkBytesAreOwnLog(t *testing.T) {
	for _, cs := range []int{1 << 10, 64 << 10} {
		t.Run(fmt.Sprintf("chunk%d", cs), func(t *testing.T) {
			s := NewOnNodes(cluster.New(cluster.Config{Nodes: 6, Seed: 9}),
				Config{ChunkSize: cs, Replication: 3, WALLanes: 4}, []cluster.NodeID{0, 1, 2, 3, 4})
			ctx := storage.NewContext()
			want := map[string][]byte{}
			write := func(key string, data []byte) {
				t.Helper()
				if _, ok := want[key]; !ok {
					if err := s.CreateBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.WriteBlob(ctx, key, 0, data); err != nil {
					t.Fatal(err)
				}
				want[key] = data
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
			if got, _, _ := s.servers[down].chunkData(id.ringHash(), id); !bytes.Equal(got, want["degraded"]) {
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
			before := wholeChunkAddrs(s, cs)
			for _, when := range []string{"after CheckpointAll", "after a second CheckpointAll"} {
				s.CheckpointAll()
				checkOwnLogViews(t, s, when)
				if cs != 64<<10 {
					continue // chunks packed into slabs are copied
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
			verifyAll(t, s, ctx, want)
			if msg := s.CheckInvariants(); msg != "" {
				t.Fatal(msg)
			}
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
