package blob

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// FuzzRecoverParallel is the end-to-end crash battery for the parallel
// recovery pipeline: a store workload derived deterministically from the
// fuzz input (creates, single- and multi-chunk 2PC writes, truncates,
// deletes, checkpoints) that must pass CheckInvariants, every log redoing to
// its server's memory included; then arbitrary lane tears on fuzzer-chosen
// servers and an optional byte flip — then the whole cluster is crashed and
// recovered twice from identical media, once through the pool-prefetched
// lane-decode pipeline and once through the serial oracle
// (Config.SerialRecovery). The contract is total equivalence: same error
// class (nil or ErrCorrupt, never a panic), same descriptors, same chunk
// bytes, same repaired lane media. When the damage lands on one server, the
// other replica of every chunk (Replication 2) is intact, so every live blob
// must also read back exactly as the reference model says, every deleted one
// stay gone, and Scan list exactly the model's keys and sizes: no
// acknowledged write, size change or delete may be lost.
func FuzzRecoverParallel(f *testing.F) {
	// Script grammar (see below): each op consumes 3 bytes — op selector,
	// key selector, size/offset argument.
	f.Add([]byte{}, uint32(0), uint32(0), false, uint32(0))
	// Create + multi-chunk write + checkpoint + more writes, tear mid-log.
	f.Add([]byte{0, 0, 0, 1, 0, 100, 5, 0, 0, 1, 0, 40, 2, 0, 9}, uint32(37), uint32(11), false, uint32(0))
	// 2PC-heavy: interleaved multi-chunk writes on two blobs, two tears.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 200, 1, 1, 150, 1, 0, 90, 1, 1, 60}, uint32(101), uint32(53), false, uint32(0))
	// Truncate + delete + corruption flip.
	f.Add([]byte{0, 2, 0, 1, 2, 120, 3, 2, 33, 4, 2, 0, 0, 2, 0, 1, 2, 80}, uint32(0), uint32(0), true, uint32(77))
	// Checkpoint-then-append with a tear landing in the appended suffix.
	f.Add([]byte{0, 3, 0, 1, 3, 64, 5, 0, 0, 1, 3, 32, 1, 3, 96}, uint32(29), uint32(0), false, uint32(0))
	// Delete -> recreate -> write: 49 bytes at 48 twice, delete, create,
	// 49 bytes at 48; node 1's lane 1 loses the delete's record.
	f.Add([]byte{0, 2, 0, 1, 2, 48, 1, 2, 48, 4, 2, 0, 0, 2, 0, 1, 2, 48}, uint32(112), uint32(112), false, uint32(0))
	// Truncate -> regrow: the same writes, truncate to 0, write again; node
	// 1's lane 1 loses the truncate's record.
	f.Add([]byte{0, 2, 0, 1, 2, 48, 1, 2, 48, 3, 2, 0, 1, 2, 48}, uint32(16), uint32(16), false, uint32(0))

	keys := []string{"f0", "f1", "f2", "f3"}
	f.Fuzz(func(t *testing.T, script []byte, tearA, tearB uint32, flip bool, flipAt uint32) {
		const lanes = 4
		s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 5}),
			Config{ChunkSize: 32, Replication: 2, WALLanes: lanes, InlineFanout: true})
		ctx := storage.NewContext()
		model := make(map[string]*refBlob)
		for i := 0; i+3 <= len(script); i += 3 {
			key := keys[int(script[i+1])%len(keys)]
			arg := int(script[i+2])
			ref := model[key]
			switch script[i] % 6 {
			case 0:
				if ref == nil {
					if err := s.CreateBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
					model[key] = &refBlob{}
				}
			case 1: // write: sizes up to 256 bytes span up to 9 chunks (2PC)
				if ref != nil {
					data := make([]byte, arg+1)
					for j := range data {
						data[j] = byte(i + 7*j)
					}
					if _, err := s.WriteBlob(ctx, key, int64(arg%64), data); err != nil {
						t.Fatal(err)
					}
					ref.write(int64(arg%64), data)
				}
			case 2: // small single-chunk overwrite
				if ref != nil {
					data := []byte{byte(i), byte(arg)}
					if _, err := s.WriteBlob(ctx, key, 0, data); err != nil {
						t.Fatal(err)
					}
					ref.write(0, data)
				}
			case 3:
				if ref != nil {
					if err := s.TruncateBlob(ctx, key, int64(arg)); err != nil {
						t.Fatal(err)
					}
					ref.truncate(int64(arg))
				}
			case 4:
				if ref != nil {
					if err := s.DeleteBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
					delete(model, key)
				}
			case 5:
				s.CheckpointAll()
			}
		}
		// Before any damage, every server's log must redo to its memory.
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("before the crash: %s", msg)
		}

		// Crash damage: two fuzzer-positioned lane tears and an optional
		// byte flip, each on a fuzzer-chosen server.
		victim, several := -1, false
		damage := func(node int) {
			several = several || victim >= 0 && victim != node
			victim = node
		}
		for _, tear := range []uint32{tearA, tearB} {
			node := int(tear) % len(s.servers)
			lb := s.servers[node].wal.LaneBuffer(int(tear/3) % lanes)
			if cut := int(tear/12) % (lb.Len() + 1); cut < lb.Len() {
				lb.Truncate(cut)
				damage(node)
			}
		}
		if flip {
			node := int(flipAt) % len(s.servers)
			lb := s.servers[node].wal.LaneBuffer(int(flipAt/3) % lanes)
			if lb.Len() > 0 {
				if err := lb.Corrupt(int(flipAt/12) % lb.Len()); err != nil {
					t.Fatal(err)
				}
				damage(node)
			}
		}

		// The damaged server recovers last, against peers that replayed
		// intact logs.
		compareRecoveryModes(t, s, max(victim, 0))
		if several {
			return
		}
		// The namespace too: every key whose descriptor primary recovered is
		// listed and read as the model holds it, and a deleted one is gone.
		recovered := func(key string) bool { return !s.servers[s.descOwners(key)[0]].isDown() }
		var want []storage.BlobInfo
		for _, key := range keys {
			ref := model[key]
			if !recovered(key) {
				continue
			}
			if ref == nil {
				if size, err := s.BlobSize(ctx, key); !errors.Is(err, storage.ErrNotFound) {
					t.Fatalf("blob %q after recovering node %d: size (%d, %v), want it deleted", key, victim, size, err)
				}
				continue
			}
			want = append(want, storage.BlobInfo{Key: key, Size: int64(len(ref.data))})
			got := make([]byte, len(ref.data)+1)
			n, err := s.ReadBlob(ctx, key, 0, got)
			if err != nil || !bytes.Equal(got[:n], ref.data) {
				t.Fatalf("blob %q after recovering node %d: read (%d, %v), want the %d bytes the model holds",
					key, victim, n, err, len(ref.data))
			}
		}
		infos, err := s.Scan(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		infos = slices.DeleteFunc(infos, func(bi storage.BlobInfo) bool { return !recovered(bi.Key) })
		if !slices.Equal(infos, want) {
			t.Fatalf("after recovering node %d: Scan lists %v, want %v", victim, infos, want)
		}
	})
}
