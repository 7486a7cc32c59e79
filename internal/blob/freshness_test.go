package blob

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/chash"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// freshness_test.go pins the one freshness rule (survey.go): versions decide
// which replica serves, repair debt never does. Both tests are deterministic —
// no goroutines; faults are driven with SetDown and the migration batch hook.

// seed070Roles finds a one-chunk key whose chunk owners are {p, q, 4} with
// node 4 in the ring and {p, q, g} without it, and whose descriptor primary
// stays up through the script (never the node that is down when a write is
// issued). The ring is a pure function of its members, so a twin predicts it.
func seed070Roles(t *testing.T, s *Store) (key string, p, q, g int) {
	t.Helper()
	with, without := chash.New(vnodes), chash.New(vnodes)
	for n := 0; n < 5; n++ {
		with.Add(n)
		if n != 4 {
			without.Add(n)
		}
	}
	locate := func(r *chash.Ring, h uint64) []int {
		dst := make([]int, 3)
		return dst[:r.LocateHashNInto(h, dst)]
	}
	for i := 0; i < 4096; i++ {
		key = fmt.Sprintf("pin-%d", i)
		before := locate(with, chunkID{key, 0}.ringHash())
		after := locate(without, chunkID{key, 0}.ringHash())
		if !containsNode(before, 4) {
			continue
		}
		var rest, gained []int
		for _, o := range before {
			if o != 4 {
				rest = append(rest, o)
			}
		}
		for _, o := range after {
			if !containsNode(before, o) {
				gained = append(gained, o)
			}
		}
		if len(rest) != 2 || len(gained) != 1 {
			continue
		}
		p, q, g = rest[0], rest[1], gained[0]
		d0 := locate(with, descRingHash(key))[0]
		d1 := locate(without, descRingHash(key))[0]
		if d0 != p && d1 != q && d1 != g {
			return key, p, q, g
		}
	}
	t.Fatal("no key with the seed-070 placement shape")
	return
}

// TestVacuousDebtNeverHidesFreshestCopy replays the seed-070 stale read: a
// debt bit orphaned on a drained node came back naming the only holder of the
// chunk's highest version, the checked read skipped that holder as stale, and
// served sparse zeros off the live-but-empty owner the re-join had just gained.
func TestVacuousDebtNeverHidesFreshestCopy(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 70}),
		Config{ChunkSize: 16, Replication: 3, MigrationRateBytes: 1 << 30})
	ctx := storage.NewContext()
	key, p, q, g := seed070Roles(t, s)
	write := func(b byte) {
		t.Helper()
		if _, err := s.WriteBlob(ctx, key, 0, bytes.Repeat([]byte{b}, 16)); err != nil {
			t.Fatalf("write %q: %v", b, err)
		}
	}
	// The newest acknowledged bytes, or unavailable — never anything older.
	check := func(stage string, want byte) {
		t.Helper()
		got := make([]byte, 16)
		_, err := s.ReadBlob(ctx, key, 0, got)
		if errors.Is(err, storage.ErrUnavailable) {
			return
		}
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{want}, 16)) {
			t.Errorf("%s: read (%q, %v), want %q or ErrUnavailable", stage, got, err, want)
			dumpChunkState(t, s, key, got, bytes.Repeat([]byte{want}, 16))
		}
	}
	down := func(node int, d bool) { s.SetDown(cluster.NodeID(node), d) }

	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	write('a')
	// A degraded write leaves "p is behind" on owners q and 4.
	down(p, true)
	write('b')

	stage := 0
	s.cfg.MigrationBatchHook = func(batch int) {
		if batch != -1 {
			return
		}
		switch stage {
		case 0:
			// Node 4 is leaving (ring already flipped) while p rejoins and is
			// repaired. Then q and g fail and a write lands on p alone.
			down(p, false)
			down(q, true)
			down(g, true)
			write('c')
			check("mid-drain", 'c')
		case 1:
			// Node 4 is back in the ring, live and empty.
			check("mid-join", 'c')
		}
		stage++
	}
	if err := s.RemoveServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	check("drained", 'c')
	if err := s.AddServer(ctx, 4); err != nil {
		t.Fatal(err)
	}
	check("rejoined", 'c')
	if stage != 2 {
		t.Fatalf("batch hook ran %d times, want 2", stage)
	}

	down(q, false)
	down(g, false)
	if n := s.RepairPending(); n != 0 {
		t.Fatalf("repair debt outstanding after heal: %d", n)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	got := make([]byte, 16)
	if _, err := s.ReadBlob(ctx, key, 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'c'}, 16)) {
		t.Fatalf("after heal: read (%q, %v)", got, err)
	}
}

// replicaState is one server's fabricated copy of the chunk under test.
type replicaState struct {
	node int
	ver  uint64 // 0: holds nothing
	down bool
	debt uint64 // debt mask recorded on this holder
}

// TestReadAndRenameShareFreshnessRule drives ReadBlob and RenameBlob's
// snapshot over the same fabricated replica states and requires the same
// outcome from both: the bytes of the named version, or ErrUnavailable. Every
// row keeps the store dirty (some debt entry exists), so both take the
// surveyed path; "clean" is the control.
func TestReadAndRenameShareFreshnessRule(t *testing.T) {
	bytesOf := func(ver uint64) []byte { return bytes.Repeat([]byte{byte('0' + ver)}, 8) }
	type row struct {
		name string
		// owners[i] indexes the chunk's ring-order owner list.
		states func(owners []int, other int) []replicaState
		want   uint64 // version whose bytes must come back; 0 = ErrUnavailable
	}
	rows := []row{
		{"clean", func(o []int, _ int) []replicaState {
			return []replicaState{{node: o[0], ver: 2}, {node: o[1], ver: 2}}
		}, 2},
		{"behind owner is passed over", func(o []int, _ int) []replicaState {
			return []replicaState{{node: o[0], ver: 1}, {node: o[1], ver: 2, debt: 1 << uint(o[0])}}
		}, 2},
		{"only maximum holder soft-down, nobody lists the live one", func(o []int, other int) []replicaState {
			// The debt entry names an unrelated node: the store is dirty but
			// no mask says o[0] is stale. Versions alone must refuse it.
			return []replicaState{{node: o[0], ver: 1, debt: 1 << uint(other)}, {node: o[1], ver: 2, down: true}}
		}, 0},
		{"vacuous bit names the maximum holder", func(o []int, _ int) []replicaState {
			return []replicaState{{node: o[0], ver: 3, debt: 1 << uint(o[0])}, {node: o[1], ver: 2}}
		}, 3},
		{"freshest copy on a stray, owners empty", func(o []int, other int) []replicaState {
			return []replicaState{{node: other, ver: 2, debt: 1<<uint(o[0]) | 1<<uint(o[1])}}
		}, 2},
	}
	// A key whose chunk owner o[1] — the only node a row takes down — is the
	// descriptor primary of neither the source nor the rename target.
	probe := newStore(t, 5, Config{ChunkSize: 8, Replication: 2})
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("fresh-%d", i)
		o := probe.chunkOwners(chunkID{k, 0})
		if probe.descOwners(k)[0] != o[1] && probe.descOwners(k + "2")[0] != o[1] {
			key = k
		}
	}
	for _, r := range rows {
		for _, rename := range []bool{false, true} {
			name := r.name + "/read"
			if rename {
				name = r.name + "/rename"
			}
			t.Run(name, func(t *testing.T) {
				s := newStore(t, 5, Config{ChunkSize: 8, Replication: 2})
				ctx := storage.NewContext()
				if err := s.CreateBlob(ctx, key); err != nil {
					t.Fatal(err)
				}
				if _, err := s.WriteBlob(ctx, key, 0, bytesOf(1)); err != nil {
					t.Fatal(err)
				}
				id := chunkID{key, 0}
				h := id.ringHash()
				owners := s.ownersForHash(h)
				other := 0
				for containsNode(owners, other) {
					other++
				}
				for _, o := range owners {
					s.servers[o].deleteChunk(h, id)
				}
				cg := s.directCharge(ctx)
				for _, st := range r.states(owners, other) {
					sv := s.servers[st.node]
					sv.setChunk(h, id, bytesOf(st.ver), st.ver)
					if st.debt != 0 {
						s.recordDebt(&cg, sv, h, id, st.debt)
					}
					sv.mu.Lock()
					sv.down = st.down // not SetDown: no repair pass may rearrange the row
					sv.mu.Unlock()
				}

				got := make([]byte, 8)
				var err error
				if rename {
					if err = s.RenameBlob(ctx, key, key+"2"); err == nil {
						_, err = s.ReadBlob(ctx, key+"2", 0, got)
					}
				} else {
					_, err = s.ReadBlob(ctx, key, 0, got)
				}
				switch {
				case r.want == 0 && !errors.Is(err, storage.ErrUnavailable):
					t.Fatalf("got (%q, %v), want ErrUnavailable", got, err)
				case r.want != 0 && (err != nil || !bytes.Equal(got, bytesOf(r.want))):
					t.Fatalf("got (%q, %v), want version %d's bytes", got, err, r.want)
				}
			})
		}
	}
}

// TestShrinkingInstallReplaysExactly pins that installChunk logs what it did:
// RecWrite replays as a grow-only merge, so an install shorter than what the
// target held must log the cut with the write or the target's log rebuilds
// new bytes followed by a stale tail. Peers are soft-down for the final
// crash, so nothing but the target's own log can supply its bytes.
func TestShrinkingInstallReplaysExactly(t *testing.T) {
	// A one-chunk key and an owner of its chunk that holds no descriptor copy:
	// its log carries only the chunk's records, and writes proceed while it is
	// crashed.
	setup := func(t *testing.T) (s *Store, ctx *storage.Context, key string, target *server, id chunkID) {
		s = newStore(t, 3, Config{ChunkSize: 64, Replication: 2, WALLanes: 4})
		ctx = storage.NewContext()
		for i := 0; target == nil; i++ {
			key = fmt.Sprintf("shrink-%d", i)
			id = chunkID{key, 0}
			for _, o := range s.chunkOwners(id) {
				if !containsNode(s.descOwners(key), o) {
					target = s.servers[o]
				}
			}
		}
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteBlob(ctx, key, 0, pattern(1, 64)); err != nil {
			t.Fatal(err)
		}
		return
	}
	// crashAlone crashes and recovers target with every peer soft-down and
	// requires its copy to come back exactly as memory held it.
	crashAlone := func(t *testing.T, s *Store, target *server, id chunkID) {
		t.Helper()
		want, ver, _ := target.copyChunk(id.ringHash(), id)
		for _, sv := range s.servers {
			if sv != target {
				s.SetDown(sv.node, true)
			}
		}
		s.Crash(target.node)
		if err := s.Recover(target.node); err != nil {
			t.Fatal(err)
		}
		got, gotVer, _ := target.copyChunk(id.ringHash(), id)
		if gotVer != ver || !bytes.Equal(got, want) {
			t.Fatalf("replayed %d bytes at v%d, memory held %d bytes at v%d", len(got), gotVer, len(want), ver)
		}
		for _, sv := range s.servers {
			s.SetDown(sv.node, false)
		}
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
	}

	t.Run("direct", func(t *testing.T) {
		s, ctx, _, target, id := setup(t)
		cg := s.directCharge(ctx)
		if _, ok := s.installChunk(&cg, target, id.ringHash(), id, pattern(9, 10), 9); !ok {
			t.Fatal("install refused")
		}
		crashAlone(t, s, target, id)
	})

	// The way production gets there: the target loses its RecChunkTruncate to
	// a torn lane tail, so it replays the long chunk and resync installs the
	// peers' shorter, newer copy over it.
	t.Run("resync", func(t *testing.T) {
		s, ctx, key, target, id := setup(t)
		if err := s.TruncateBlob(ctx, key, 10); err != nil {
			t.Fatal(err)
		}
		s.Crash(target.node)
		lb := target.wal.LaneBuffer(target.chunkLane(id.ringHash()))
		lb.Truncate(lb.Len() - 3)
		if _, err := s.WriteBlob(ctx, key, 0, pattern(2, 10)); err != nil {
			t.Fatal(err)
		}
		if err := s.Recover(target.node); err != nil {
			t.Fatal(err)
		}
		crashAlone(t, s, target, id)
		got := make([]byte, 10)
		if _, err := s.ReadBlob(ctx, key, 0, got); err != nil || !bytes.Equal(got, pattern(2, 10)) {
			t.Fatalf("read (%q, %v)", got, err)
		}
	})
}
