package blob

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// refChunkPlan is chunkPlan as it was formulated before the per-stripe fold,
// kept as the oracle: every replica of every server in one slice, sorted by
// chunk ID, each chunk's run folded into its holders and highest version.
func refChunkPlan(s *Store, keep func(id chunkID, h, holders, maxVer uint64) bool) []migMove {
	type replica struct {
		id              chunkID
		holders, maxVer uint64
		bytes           int
	}
	var reps []replica
	for i, sv := range s.servers {
		sv.forEachChunk(func(id chunkID, data []byte, ver uint64) {
			reps = append(reps, replica{id, 1 << uint(i), ver, len(data)})
		})
	}
	slices.SortFunc(reps, func(a, b replica) int { return a.id.cmp(b.id) })
	var moves []migMove
	for i := 0; i < len(reps); {
		c := reps[i]
		for i++; i < len(reps) && reps[i].id == c.id; i++ {
			c.holders |= reps[i].holders
			c.maxVer = max(c.maxVer, reps[i].maxVer)
			c.bytes = max(c.bytes, reps[i].bytes)
		}
		if keep(c.id, c.id.ringHash(), c.holders, c.maxVer) {
			moves = append(moves, migMove{id: c.id, h: c.id.ringHash(), bytes: c.bytes})
		}
	}
	return moves
}

// refMigrationPlan probes each owner's version under its stripe lock, as
// migrationPlan did before it read the fold's at-max mask.
func refMigrationPlan(s *Store) []migMove {
	return refChunkPlan(s, func(id chunkID, h, holders, maxVer uint64) bool {
		for _, o := range s.ownersForHash(h) {
			if s.servers[o].chunkVer(h, id) < maxVer {
				return true
			}
			holders &^= 1 << uint(o)
		}
		return holders != 0
	})
}

// refResyncPlan is resyncPlan over the oracle.
func refResyncPlan(s *Store, me int) []migMove {
	return refChunkPlan(s, func(_ chunkID, h, _, _ uint64) bool { return containsNode(s.ownersForHash(h), me) })
}

// TestChunkPlanMatchesReference runs a seeded history of creates, writes,
// deletes, truncates, strays installed outside the owner set, owners left
// behind by a faulted append, SetDown, Crash without Recover, Recover, and
// RemoveServer and AddServer, at Replication 1, 2 and 3, and after every op
// requires migrationPlan and every node's resyncPlan to equal the oracle's,
// move for move: chunk ID, hash and bytes, in order. From Replication 2 on,
// the history must reach a plan that moves a chunk some owner holds behind
// its highest version, the case only the fold's at-max mask tells from a
// current owner (at 1, a faulted append fails outright instead).
func TestChunkPlanMatchesReference(t *testing.T) {
	for _, repl := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("R%d", repl), func(t *testing.T) {
			const nodes = 6
			s := NewOnNodes(cluster.New(cluster.Config{Nodes: nodes, Seed: 7}), Config{ChunkSize: 64, Replication: repl},
				[]cluster.NodeID{0, 1, 2, 3, 4})
			rng := sim.NewRNG(uint64(4400 + repl))
			ctx := storage.NewContext()
			behindMoves := 0
			check := func(op string) {
				t.Helper()
				got, want := s.migrationPlan(), refMigrationPlan(s)
				if !slices.Equal(got, want) {
					t.Fatalf("after %s: migrationPlan has %d moves %v, the reference %d %v", op, len(got), got, len(want), want)
				}
				for _, mv := range got {
					var vers []uint64
					for _, sv := range s.servers {
						vers = append(vers, sv.chunkVer(mv.h, mv.id))
					}
					for _, o := range s.ownersForHash(mv.h) {
						if v := vers[o]; v > 0 && v < slices.Max(vers) {
							behindMoves++
						}
					}
				}
				for me := range nodes {
					if got, want := s.resyncPlan(me), refResyncPlan(s, me); !slices.Equal(got, want) {
						t.Fatalf("after %s: node %d's resyncPlan has %d moves, the reference %d", op, me, len(got), len(want))
					}
				}
			}
			key := func() string { return fmt.Sprintf("k%02d", rng.Intn(12)) }
			downCount := func() int {
				n := 0
				for _, sv := range s.servers {
					if sv.isDown() {
						n++
					}
				}
				return n
			}
			node := func() cluster.NodeID { return cluster.NodeID(rng.Intn(nodes)) }
			did := make(map[string]int)
			for step := range 240 {
				var op, kind string
				switch r := rng.Intn(20); {
				case r < 4:
					k := key()
					op, kind = "create "+k, "create"
					_ = s.CreateBlob(ctx, k)
				case r < 9:
					k := key()
					off, n := rng.Int63n(400), 1+rng.Intn(200)
					op, kind = fmt.Sprintf("write %s at %d+%d", k, off, n), "write"
					_, _ = s.WriteBlob(ctx, k, off, pattern(step, n))
				case r < 10:
					k := key()
					op, kind = "delete "+k, "delete"
					_ = s.DeleteBlob(ctx, k)
				case r < 11:
					k := key()
					op, kind = "truncate "+k, "truncate"
					_ = s.TruncateBlob(ctx, k, rng.Int63n(300))
				case r < 13:
					op = "stray"
					if plantStray(s, rng) {
						kind = "stray"
					}
				case r < 15:
					op = "faulted append, no blob"
					blobs, _ := s.Scan(ctx, "")
					if len(blobs) == 0 {
						break
					}
					bl := blobs[rng.Intn(len(blobs))]
					id := chunkID{bl.Key, rng.Int63n(bl.Size/64 + 1)}
					owners := s.chunkOwners(id)
					n := cluster.NodeID(owners[rng.Intn(len(owners))])
					op, kind = fmt.Sprintf("append to %s chunk %d with owner %d's disk faulted", id.key, id.idx, n), "faulted append"
					s.cluster.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{{Node: n, Kind: cluster.FaultDiskWrite, Prob: 1,
						Fault: cluster.Fault{Err: errors.New("injected: disk write refused")}}}))
					_, _ = s.WriteBlob(ctx, id.key, id.idx*64, pattern(step, 32))
					s.cluster.SetFaultInjector(nil)
				case r < 16:
					n, down := node(), rng.Intn(2) == 0
					op = fmt.Sprintf("SetDown(%d, %v)", n, down)
					if !s.servers[n].isWiped() && (!down || downCount() == 0) {
						s.SetDown(n, down)
						kind = "SetDown"
					}
				case r < 17:
					n := node()
					op = fmt.Sprintf("Crash(%d)", n)
					if downCount() == 0 {
						s.Crash(n)
						kind = "Crash"
					}
				case r < 18:
					op = "Recover"
					for n, sv := range s.servers {
						if sv.isWiped() {
							op, kind = fmt.Sprintf("Recover(%d)", n), "Recover"
							if err := s.Recover(cluster.NodeID(n)); err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				default:
					n := node()
					if s.serving(int(n)) {
						op = fmt.Sprintf("RemoveServer(%d)", n)
						if len(s.ServingNodes()) > repl && s.RemoveServer(ctx, n) == nil {
							kind = "RemoveServer"
						}
					} else {
						op = fmt.Sprintf("AddServer(%d)", n)
						if s.AddServer(ctx, n) == nil {
							kind = "AddServer"
						}
					}
				}
				did[kind]++
				check(fmt.Sprintf("step %d, %s", step, op))
			}
			for _, kind := range []string{"create", "write", "delete", "truncate", "stray", "faulted append", "SetDown", "Crash", "Recover", "RemoveServer", "AddServer"} {
				if did[kind] == 0 {
					t.Errorf("the history never ran a %s", kind)
				}
			}
			if repl > 1 && behindMoves == 0 {
				t.Fatal("no plan moved a chunk an owner held behind its highest version")
			}
		})
	}
}

// plantStray installs the freshest copy of some held chunk on a live server
// outside its owner set, through the install path a migration uses.
func plantStray(s *Store, rng *sim.RNG) bool {
	src := s.servers[rng.Intn(len(s.servers))]
	var ids []chunkID
	src.forEachChunk(func(id chunkID, data []byte, _ uint64) {
		if len(data) > 0 {
			ids = append(ids, id)
		}
	})
	if len(ids) == 0 {
		return false
	}
	slices.SortFunc(ids, chunkID.cmp)
	id := ids[rng.Intn(len(ids))]
	h := id.ringHash()
	c, ver, _ := src.chunkEntry(h, id)
	for i, sv := range s.servers {
		if !containsNode(s.ownersForHash(h), i) && !sv.isWiped() {
			cg := s.directCharge(storage.NewContext())
			_, ok := s.installChunk(&cg, sv, h, id, c, ver)
			return ok
		}
	}
	return false
}

// BenchmarkMigrationPlan times the two reconcile plans on fault-drill's
// shape (9 nodes, R 3, 64 KiB chunks, 256 blobs of 16 chunks: 12 288
// replicas) with node 8 just dropped from the ring: the sweep's
// migrationPlan, and node 0's resyncPlan. A plan reads no chunk byte, so
// each chunk holds one. It is the -cpuprofile entry point for the plans;
// b.Fatal unless both are non-empty and sorted.
func BenchmarkMigrationPlan(b *testing.B) {
	s := New(cluster.New(cluster.Config{Nodes: 9, Seed: 1}), Config{ChunkSize: 64 << 10, Replication: 3})
	ctx := storage.NewContext()
	for i := range 256 {
		key := fmt.Sprintf("f/%03d", i)
		if err := s.CreateBlob(ctx, key); err != nil {
			b.Fatal(err)
		}
		for c := range 16 {
			if _, err := s.WriteBlob(ctx, key, int64(c)<<16, []byte{byte(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	s.ring.Remove(8)
	for _, bc := range []struct {
		name string
		plan func() []migMove
	}{
		{"migration", s.migrationPlan},
		{"resync", func() []migMove { return s.resyncPlan(0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var moves []migMove
			b.ReportAllocs()
			for range b.N {
				moves = bc.plan()
			}
			b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
			if len(moves) == 0 || !slices.IsSortedFunc(moves, func(a, c migMove) int { return a.id.cmp(c.id) }) {
				b.Fatalf("%s: %d moves, want a non-empty plan in ID order", bc.name, len(moves))
			}
		})
	}
}
