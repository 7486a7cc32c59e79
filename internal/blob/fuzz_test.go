package blob

import (
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
// (Store.serialRecovery). The contract is total equivalence: same error
// class (nil or ErrCorrupt, never a panic), same descriptors, same chunk
// bytes, same repaired lane media. When the damage lands on one server, the
// other replica of every chunk (Replication 2) is intact, so the durability
// ledger must hold against the model the script's op events built
// (checkDurable): no acknowledged write, size change or delete may be lost.
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

	f.Fuzz(func(t *testing.T, script []byte, tearA, tearB uint32, flip bool, flipAt uint32) {
		const lanes = 4
		s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 5}),
			Config{ChunkSize: 32, Replication: 2, WALLanes: lanes, InlineFanout: true})
		m := runScript(t, s, []string{"f0", "f1", "f2", "f3"}, script)
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
		// Only a server whose log is corrupt stays down; the ledger skips
		// the keys whose descriptor primary it is, and no other.
		if skipped := checkDurable(t, s, m); skipped > 0 && !s.servers[victim].isDown() {
			t.Fatalf("%d keys skipped with every server up", skipped)
		}
	})
}

// runScript drives s through a fuzz script and returns the model its op
// events built. Each op is 3 bytes: op%6 (create, write arg+1 bytes at
// arg%64 — up to 9 chunks at ChunkSize 32, so 2PC —, write 2 bytes at 0,
// truncate to arg, delete, CheckpointAll), a key selector and arg. An op
// that needs the key live (or, for a create, absent) is skipped otherwise;
// every op run must succeed.
func runScript(t *testing.T, s *Store, keys []string, script []byte) *refModel {
	m := newModel(s)
	ctx := storage.NewContext()
	for i := 0; i+3 <= len(script); i += 3 {
		key, arg, op := keys[int(script[i+1])%len(keys)], int(script[i+2]), script[i]%6
		if _, live := m.data(key); op != 5 && live != (op != 0) {
			continue
		}
		var err error
		switch op {
		case 0:
			err = s.CreateBlob(ctx, key)
		case 1:
			data := make([]byte, arg+1)
			for j := range data {
				data[j] = byte(i + 7*j)
			}
			_, err = s.WriteBlob(ctx, key, int64(arg%64), data)
		case 2:
			_, err = s.WriteBlob(ctx, key, 0, []byte{byte(i), byte(arg)})
		case 3:
			err = s.TruncateBlob(ctx, key, int64(arg))
		case 4:
			err = s.DeleteBlob(ctx, key)
		case 5:
			s.CheckpointAll()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return m
}
