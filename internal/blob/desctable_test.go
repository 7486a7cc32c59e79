package blob

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestDescTableMatchesModel runs seeded random put/del/ascend scripts against
// a map plus a sorted slice. Each script grows the table past many block
// splits and then shrinks it to empty, so blocks empty out and go. Keys are
// short strings over an alphabet with bytes at and above 0x80, so many keys
// are prefixes of others; prefixes walked include "", one past the last key,
// held keys that prefix other keys, and random ones.
func TestDescTableMatchesModel(t *testing.T) {
	alphabet := []byte{'a', 'b', '/', 0x00, 0x80, 0xff}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		randKey := func() string {
			k := make([]byte, 1+rng.Intn(5))
			for i := range k {
				k[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(k)
		}
		var tbl descTable
		model := map[string]descriptor{}
		var sorted []string // the model's keys, ascending
		check := func(prefix string) {
			t.Helper()
			var got []string
			tbl.ascend(prefix, func(key string, d descriptor) {
				if want, ok := model[key]; !ok || want != d {
					t.Fatalf("seed %d: ascend(%q) gives %q a descriptor the model does not", seed, prefix, key)
				}
				got = append(got, key)
			})
			var want []string
			for _, k := range sorted {
				if strings.HasPrefix(k, prefix) {
					want = append(want, k)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: ascend(%q) = %q, want %q", seed, prefix, got, want)
			}
		}
		checkBlocks := func() {
			t.Helper()
			var all []string
			for i, b := range tbl.blocks {
				if len(b) == 0 || len(b) > descBlock {
					t.Fatalf("seed %d: block %d holds %d keys", seed, i, len(b))
				}
				all = append(all, b...)
			}
			if !slices.Equal(all, sorted) || tbl.len() != len(sorted) {
				t.Fatalf("seed %d: blocks hold %d keys, len %d, the model %d", seed, len(all), tbl.len(), len(sorted))
			}
		}
		maxBlocks := 0
		for phase := 0; phase < 4; phase++ {
			grow := phase%2 == 0
			for step := 0; step < 3000; step++ {
				key := randKey()
				if !grow && len(sorted) > 0 && rng.Intn(4) > 0 {
					key = sorted[rng.Intn(len(sorted))]
				}
				i, held := slices.BinarySearch(sorted, key)
				// Puts outnumber deletes 3:2 while growing, 2:3 while shrinking.
				if put := rng.Intn(5) < 3; put == grow {
					d := descriptor{size: int64(step)}
					tbl.put(key, d)
					model[key] = d
					if !held {
						sorted = slices.Insert(sorted, i, key)
					}
				} else {
					if tbl.del(key) != held {
						t.Fatalf("seed %d: del(%q) disagrees with the model (held %v)", seed, key, held)
					}
					delete(model, key)
					if held {
						sorted = slices.Delete(sorted, i, i+1)
					}
				}
				want, inModel := model[key]
				if d, ok := tbl.get(key); ok != inModel || d != want {
					t.Fatalf("seed %d: get(%q) disagrees with the model", seed, key)
				}
				maxBlocks = max(maxBlocks, len(tbl.blocks))
				if step%50 == 0 {
					checkBlocks()
					check("")
					check(randKey())
					if len(sorted) > 0 {
						k := sorted[rng.Intn(len(sorted))]
						check(k)
						check(k[:1+rng.Intn(len(k))])
						check(sorted[len(sorted)-1] + "\x00") // one past the last key
						check(sorted[len(sorted)-1] + "\xff")
					}
				}
			}
			if !grow {
				for _, key := range slices.Clone(sorted) {
					tbl.del(key)
				}
				sorted, model = nil, map[string]descriptor{}
				if len(tbl.blocks) != 0 || tbl.len() != 0 {
					t.Fatalf("seed %d: emptied table keeps %d blocks, %d keys", seed, len(tbl.blocks), tbl.len())
				}
				check("")
			}
		}
		if maxBlocks < 6 {
			t.Fatalf("seed %d: the script reached only %d blocks; it must cross splits", seed, maxBlocks)
		}
	}
}

// TestScanChargeCountsEveryDescriptor pins the flat-namespace charge: a Scan
// that matches nothing and a Scan of everything cost the caller the same
// simulated time, because each server is charged for every descriptor it
// holds, and that time grows with the descriptor count. The ordered table
// speeds up the wall-clock walk only; it must never reach the simulated cost.
func TestScanChargeCountsEveryDescriptor(t *testing.T) {
	s := newStore(t, 4, Config{Replication: 3})
	ctx := storage.NewContext()
	scanCost := func(prefix string) int64 {
		start := ctx.Clock.Now()
		if _, err := s.Scan(ctx, prefix); err != nil {
			t.Fatal(err)
		}
		return int64(ctx.Clock.Now() - start)
	}
	create := func(from, to int) {
		for i := from; i < to; i++ {
			if err := s.CreateBlob(ctx, fmt.Sprintf("k/%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	create(0, 40)
	none, all := scanCost("nothing/"), scanCost("")
	if none != all {
		t.Fatalf("40 blobs: Scan(%q) costs %d ns, Scan(\"\") %d ns; the flat scan charges both alike", "nothing/", none, all)
	}
	create(40, 400)
	noneMore, allMore := scanCost("nothing/"), scanCost("")
	if noneMore != allMore {
		t.Fatalf("400 blobs: Scan(%q) costs %d ns, Scan(\"\") %d ns", "nothing/", noneMore, allMore)
	}
	if noneMore <= none {
		t.Fatalf("Scan costs %d ns over 400 blobs, %d ns over 40: the charge must grow with the descriptors held", noneMore, none)
	}
}

// TestScanUnderConcurrentCreateDelete: while other keys, interleaved with
// them in key order, are created and deleted concurrently, every Scan lists
// each stable key, in strictly ascending order (so no key twice), and only
// keys that carry its prefix.
func TestScanUnderConcurrentCreateDelete(t *testing.T) {
	s := newStore(t, 5, Config{ChunkSize: 64, Replication: 3})
	ctx := storage.NewContext()
	var stable []string
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k/%02d/s", i)
		if err := s.CreateBlob(ctx, key); err != nil {
			t.Fatal(err)
		}
		stable = append(stable, key)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := storage.NewContext()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k/%02d/c%d", i%30, w)
				if i%60 < 30 {
					if err := s.CreateBlob(ctx, key); err != nil {
						t.Errorf("create %s: %v", key, err)
						return
					}
				} else if err := s.DeleteBlob(ctx, key); err != nil {
					t.Errorf("delete %s: %v", key, err)
					return
				}
			}
		}()
	}
	for _, prefix := range []string{"k/", "k/1", "k/07/"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := storage.NewContext()
			for range 60 {
				infos, err := s.Scan(ctx, prefix)
				if err != nil {
					t.Errorf("Scan(%q): %v", prefix, err)
					return
				}
				keys := make([]string, len(infos))
				for i, info := range infos {
					keys[i] = info.Key
					if !strings.HasPrefix(info.Key, prefix) || i > 0 && keys[i-1] >= info.Key {
						t.Errorf("Scan(%q) lists %q after %q", prefix, info.Key, keys[max(i-1, 0)])
						return
					}
				}
				for _, key := range stable {
					if _, found := slices.BinarySearch(keys, key); strings.HasPrefix(key, prefix) && !found {
						t.Errorf("Scan(%q) misses stable key %q: %q", prefix, key, keys)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestScanDuringMembershipChange: at every batch boundary of a live join and
// of a live drain, the ledger holds: Scan lists exactly the seeded blobs at
// the sizes BlobSize finds, and each reads back. Before the sweep hands
// descriptors to their new primaries, a blob's only copies sit on its old
// owners.
func TestScanDuringMembershipChange(t *testing.T) {
	for _, tc := range []struct {
		name    string
		serving []cluster.NodeID
		change  func(s *Store, ctx *storage.Context) error
	}{
		{"join", []cluster.NodeID{0, 1, 2, 3}, func(s *Store, ctx *storage.Context) error { return s.AddServer(ctx, 4) }},
		{"drain", []cluster.NodeID{0, 1, 2, 3, 4}, func(s *Store, ctx *storage.Context) error { return s.RemoveServer(ctx, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewOnNodes(cluster.New(cluster.Config{Nodes: 6, Seed: 1}), Config{ChunkSize: 64, Replication: 2}, tc.serving)
			m := seedBlobs(t, s, 40)
			var boundaries []int
			s.Observe(func(ev Event) {
				m.observe(ev)
				if ev.Kind == EventBatch {
					boundaries = append(boundaries, ev.Batch)
					checkDurable(t, s, m)
				}
			})
			if err := tc.change(s, storage.NewContext()); err != nil {
				t.Fatal(err)
			}
			s.Observe(m.observe)
			if len(boundaries) < 2 || boundaries[0] != -1 {
				t.Fatalf("batch boundaries %v: the change moved nothing", boundaries)
			}
			checkSound(t, s, m)
		})
	}
}
