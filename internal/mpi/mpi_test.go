package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

func cost() sim.CostModel { return sim.DefaultCostModel() }

func TestRunAllRanksExecute(t *testing.T) {
	seen := make([]bool, 8)
	errs := Run(8, cost(), func(r *Rank) error {
		seen[r.ID] = true
		if r.Size() != 8 {
			return fmt.Errorf("size = %d", r.Size())
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d never ran", i)
		}
	}
}

func TestRunPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run(0) did not panic")
		}
	}()
	Run(0, cost(), func(*Rank) error { return nil })
}

func TestFirstError(t *testing.T) {
	boom := errors.New("boom")
	if got := FirstError([]error{nil, boom, nil}); !errors.Is(got, boom) {
		t.Fatalf("FirstError = %v", got)
	}
	if got := FirstError([]error{nil, nil}); got != nil {
		t.Fatalf("FirstError = %v", got)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	clocks := make([]time.Duration, 4)
	errs := Run(4, cost(), func(r *Rank) error {
		// Each rank does a different amount of local work.
		r.Ctx.Clock.Advance(time.Duration(r.ID) * time.Millisecond)
		r.Barrier()
		clocks[r.ID] = r.Ctx.Clock.Now()
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if clocks[i] != clocks[0] {
			t.Fatalf("clocks diverge after barrier: %v", clocks)
		}
	}
	if clocks[0] < 3*time.Millisecond {
		t.Fatalf("barrier did not wait for the slowest rank: %v", clocks[0])
	}
}

func TestBcast(t *testing.T) {
	payload := []byte("from root")
	errs := Run(4, cost(), func(r *Rank) error {
		var in []byte
		if r.ID == 2 {
			in = payload
		}
		got := r.Bcast(2, in)
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d got %q", r.ID, got)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	errs := Run(5, cost(), func(r *Rank) error {
		data := []byte{byte(r.ID * 10)}
		got := r.Gather(0, data)
		if r.ID != 0 {
			if got != nil {
				return fmt.Errorf("non-root rank %d got %v", r.ID, got)
			}
			return nil
		}
		if len(got) != 5 {
			return fmt.Errorf("root got %d pieces", len(got))
		}
		for i, p := range got {
			if len(p) != 1 || p[0] != byte(i*10) {
				return fmt.Errorf("piece %d = %v", i, p)
			}
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	errs := Run(3, cost(), func(r *Rank) error {
		got := r.AllGather([]byte{byte(r.ID)})
		if len(got) != 3 {
			return fmt.Errorf("AllGather returned %d pieces", len(got))
		}
		for i, p := range got {
			if p[0] != byte(i) {
				return fmt.Errorf("piece %d = %v", i, p)
			}
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	errs := Run(6, cost(), func(r *Rank) error {
		sum := r.AllReduceInt64(int64(r.ID+1), func(a, b int64) int64 { return a + b })
		if sum != 21 { // 1+2+...+6
			return fmt.Errorf("rank %d: sum = %d", r.ID, sum)
		}
		max := r.AllReduceInt64(int64(r.ID), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if max != 5 {
			return fmt.Errorf("rank %d: max = %d", r.ID, max)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	errs := Run(2, cost(), func(r *Rank) error {
		if r.ID == 0 {
			r.Send(1, 7, []byte("hello"))
			reply := r.Recv(1, 8)
			if string(reply) != "world" {
				return fmt.Errorf("reply = %q", reply)
			}
			return nil
		}
		msg := r.Recv(0, 7)
		if string(msg) != "hello" {
			return fmt.Errorf("msg = %q", msg)
		}
		r.Send(0, 8, []byte("world"))
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvTagFiltering(t *testing.T) {
	errs := Run(2, cost(), func(r *Rank) error {
		if r.ID == 0 {
			r.Send(1, 1, []byte("first"))
			r.Send(1, 2, []byte("second"))
			return nil
		}
		// Receive out of order by tag.
		second := r.Recv(0, 2)
		first := r.Recv(0, 1)
		if string(first) != "first" || string(second) != "second" {
			return fmt.Errorf("tag filtering broken: %q / %q", first, second)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestRecvAdvancesClock(t *testing.T) {
	errs := Run(2, cost(), func(r *Rank) error {
		if r.ID == 0 {
			r.Ctx.Clock.Advance(10 * time.Millisecond)
			r.Send(1, 0, []byte("late message"))
			return nil
		}
		r.Recv(0, 0)
		if r.Ctx.Clock.Now() < 10*time.Millisecond {
			return fmt.Errorf("receiver clock %v behind sender", r.Ctx.Clock.Now())
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// Regression guard for generation bookkeeping: many collectives in a
	// row must not deadlock or cross-contaminate.
	errs := Run(4, cost(), func(r *Rank) error {
		for i := 0; i < 50; i++ {
			v := r.AllReduceInt64(1, func(a, b int64) int64 { return a + b })
			if v != 4 {
				return fmt.Errorf("iteration %d: %d", i, v)
			}
			r.Barrier()
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSendPanicsOnBadRank(t *testing.T) {
	errs := Run(1, cost(), func(r *Rank) error {
		defer func() {
			if recover() == nil {
				t.Error("Send to invalid rank did not panic")
			}
		}()
		r.Send(5, 0, nil)
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankCollectives(t *testing.T) {
	errs := Run(1, cost(), func(r *Rank) error {
		r.Barrier()
		if got := r.Bcast(0, []byte("solo")); string(got) != "solo" {
			return fmt.Errorf("Bcast = %q", got)
		}
		if got := r.AllReduceInt64(9, func(a, b int64) int64 { return a + b }); got != 9 {
			return fmt.Errorf("AllReduce = %d", got)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSplitFormsGroups(t *testing.T) {
	errs := Run(6, cost(), func(r *Rank) error {
		// Even/odd split.
		sub := r.Split(r.ID%2, r.ID)
		if sub == nil {
			return fmt.Errorf("rank %d got nil sub-communicator", r.ID)
		}
		if sub.Size() != 3 {
			return fmt.Errorf("rank %d: sub size = %d", r.ID, sub.Size())
		}
		if want := r.ID / 2; sub.ID != want {
			return fmt.Errorf("rank %d: sub rank = %d, want %d", r.ID, sub.ID, want)
		}
		// Collectives inside the group see only group members.
		sum := sub.AllReduceInt64(int64(r.ID), func(a, b int64) int64 { return a + b })
		want := int64(0 + 2 + 4)
		if r.ID%2 == 1 {
			want = 1 + 3 + 5
		}
		if sum != want {
			return fmt.Errorf("rank %d: group sum = %d, want %d", r.ID, sum, want)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	errs := Run(4, cost(), func(r *Rank) error {
		color := -1
		if r.ID < 2 {
			color = 0
		}
		sub := r.Split(color, 0)
		if r.ID < 2 {
			if sub == nil || sub.Size() != 2 {
				return fmt.Errorf("rank %d: sub = %v", r.ID, sub)
			}
			sub.Barrier()
		} else if sub != nil {
			return fmt.Errorf("rank %d: undefined color produced a communicator", r.ID)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	errs := Run(4, cost(), func(r *Rank) error {
		// Reverse ordering via descending keys.
		sub := r.Split(0, -r.ID)
		if want := r.Size() - 1 - r.ID; sub.ID != want {
			return fmt.Errorf("rank %d: sub rank = %d, want %d", r.ID, sub.ID, want)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSendRecvWithinGroup(t *testing.T) {
	errs := Run(4, cost(), func(r *Rank) error {
		sub := r.Split(r.ID/2, r.ID) // groups {0,1} and {2,3}
		if sub.ID == 0 {
			sub.Send(1, 5, []byte(fmt.Sprintf("group-%d", r.ID/2)))
			return nil
		}
		msg := sub.Recv(0, 5)
		if string(msg) != fmt.Sprintf("group-%d", r.ID/2) {
			return fmt.Errorf("rank %d got %q", r.ID, msg)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSharesClock(t *testing.T) {
	errs := Run(2, cost(), func(r *Rank) error {
		sub := r.Split(0, r.ID)
		before := r.Ctx.Clock.Now()
		sub.Barrier()
		if r.Ctx.Clock.Now() < before {
			return fmt.Errorf("clock went backwards")
		}
		if sub.Ctx != r.Ctx {
			return fmt.Errorf("sub-communicator has a different context")
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

// AllGatherRef with a declared wire size must cost exactly what AllGather of
// that many bytes costs: run the same skewed-arrival script through both in
// twin worlds and compare every rank's clock.
func TestAllGatherRefChargesLikeAllGather(t *testing.T) {
	for size := 1; size <= 8; size++ {
		for _, wire := range []int{0, 1, 4 + 12 + 100, 64 << 10} {
			script := func(gather func(r *Rank, id *int)) []time.Duration {
				clocks := make([]time.Duration, size)
				ids := make([]int, size)
				errs := Run(size, cost(), func(r *Rank) error {
					ids[r.ID] = r.ID
					for round := 1; round <= 3; round++ {
						// A different rank arrives last each round.
						r.Ctx.Clock.Advance(time.Duration((r.ID*7+round*3)%size+1) * 13 * time.Microsecond)
						gather(r, &ids[r.ID])
					}
					clocks[r.ID] = r.Ctx.Clock.Now()
					return nil
				})
				if err := FirstError(errs); err != nil {
					t.Fatal(err)
				}
				return clocks
			}
			byValue := script(func(r *Rank, _ *int) { r.AllGather(make([]byte, wire)) })
			byRef := script(func(r *Rank, id *int) {
				// Every rank gets every rank's own pointer, in rank order.
				for i, ref := range r.AllGatherRef(id, wire, nil) {
					if p, ok := ref.(*int); !ok || *p != i {
						t.Errorf("size %d: rank %d received %v from rank %d", size, r.ID, ref, i)
					}
				}
			})
			for id := range byValue {
				if byRef[id] != byValue[id] {
					t.Errorf("size %d wire %d rank %d: AllGatherRef leaves the clock at %v, AllGather at %v",
						size, wire, id, byRef[id], byValue[id])
				}
			}
		}
	}
}

// A by-value collective hands out private copies of a snapshot taken on
// entry: the sender may scribble on its buffer the moment it returns, and a
// receiver on what it was handed, without any other rank noticing.
func TestAllGatherCopiesAreIndependent(t *testing.T) {
	errs := Run(4, cost(), func(r *Rank) error {
		buf := []byte{byte(r.ID)}
		for round := 0; round < 100; round++ {
			got := r.AllGather(buf)
			for i, p := range got {
				if p[0] != byte(i+round) {
					return fmt.Errorf("round %d: rank %d sees %d from rank %d", round, r.ID, p[0], i)
				}
				p[0] = 0xFF
			}
			buf[0]++
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAllocatesNothing(t *testing.T) {
	r := Self(storage.NewContext(), cost())
	if n := testing.AllocsPerRun(100, r.Barrier); n != 0 {
		t.Fatalf("Barrier made %v allocations per call", n)
	}
}
