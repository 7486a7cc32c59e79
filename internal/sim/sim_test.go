package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(3 * time.Millisecond)
	c.Advance(2 * time.Millisecond)
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	c := NewClockAt(time.Second)
	c.Advance(-time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s", got)
	}
}

func TestClockAdvanceToMonotonic(t *testing.T) {
	c := NewClockAt(10 * time.Millisecond)
	if got := c.AdvanceTo(5 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("AdvanceTo earlier time returned %v, want 10ms", got)
	}
	if got := c.AdvanceTo(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("AdvanceTo(20ms) = %v", got)
	}
}

func TestClockForkJoin(t *testing.T) {
	c := NewClockAt(time.Millisecond)
	a, b := c.Fork(), c.Fork()
	a.Advance(4 * time.Millisecond)
	b.Advance(9 * time.Millisecond)
	c.Join(a, b)
	if got := c.Now(); got != 10*time.Millisecond {
		t.Fatalf("Join: Now() = %v, want 10ms (slowest child)", got)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 16000*time.Nanosecond {
		t.Fatalf("concurrent Advance lost updates: %v, want 16µs", got)
	}
}

func TestResourceIdleUse(t *testing.T) {
	r := NewResource("disk")
	end := r.Use(10*time.Microsecond, 5*time.Microsecond)
	if end != 15*time.Microsecond {
		t.Fatalf("Use on idle resource = %v, want 15µs", end)
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource("disk")
	// First client occupies [0, 100µs).
	if end := r.Use(0, 100*time.Microsecond); end != 100*time.Microsecond {
		t.Fatalf("first Use = %v", end)
	}
	// Second client arrives at t=10µs but must queue behind the first.
	if end := r.Use(10*time.Microsecond, 50*time.Microsecond); end != 150*time.Microsecond {
		t.Fatalf("queued Use = %v, want 150µs", end)
	}
	// Third client arrives after the resource is free again; no queueing.
	if end := r.Use(400*time.Microsecond, 10*time.Microsecond); end != 410*time.Microsecond {
		t.Fatalf("late Use = %v, want 410µs", end)
	}
}

func TestResourceNegativeServiceTime(t *testing.T) {
	r := NewResource("x")
	if end := r.Use(5, -3); end != 5 {
		t.Fatalf("negative service time: end = %v, want 5", end)
	}
}

func TestResourceStatsAndReset(t *testing.T) {
	r := NewResource("nic")
	r.Use(0, time.Millisecond)
	r.Use(0, time.Millisecond)
	busy, ops := r.Stats()
	if busy != 2*time.Millisecond || ops != 2 {
		t.Fatalf("Stats = (%v, %d), want (2ms, 2)", busy, ops)
	}
	r.Reset()
	busy, ops = r.Stats()
	if busy != 0 || ops != 0 || r.Peek() != 0 {
		t.Fatalf("Reset did not clear state: busy=%v ops=%d peek=%v", busy, ops, r.Peek())
	}
}

// Property: a resource never completes an operation before the client's own
// arrival time plus the service time, and total busy time equals the sum of
// service times.
func TestResourceConservationProperty(t *testing.T) {
	f := func(arrivals []uint32) bool {
		r := NewResource("p")
		var sum time.Duration
		for _, a := range arrivals {
			now := time.Duration(a % 1e6)
			s := time.Duration(a%997) * time.Microsecond
			end := r.Use(now, s)
			if end < now+s {
				return false
			}
			sum += s
		}
		busy, ops := r.Stats()
		return busy == sum && ops == int64(len(arrivals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelArithmetic(t *testing.T) {
	m := DefaultCostModel()
	if got := m.DiskTime(0); got != m.DiskSeek {
		t.Fatalf("DiskTime(0) = %v, want seek-only %v", got, m.DiskSeek)
	}
	// 200 MB at 200 MB/s = 1s + seek.
	if got := m.DiskTime(200_000_000); got != m.DiskSeek+time.Second {
		t.Fatalf("DiskTime(200MB) = %v", got)
	}
	if got := m.WireTime(1_000_000_000); got != m.NICLatency+time.Second {
		t.Fatalf("WireTime(1GB) = %v", got)
	}
	if got := m.MetaTime(3); got != 3*m.MetaOp {
		t.Fatalf("MetaTime(3) = %v", got)
	}
}

func TestCostModelMonotoneInBytes(t *testing.T) {
	m := DefaultCostModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.DiskTime(x) <= m.DiskTime(y) && m.WireTime(x) <= m.WireTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical values", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFill(t *testing.T) {
	r := NewRNG(9)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 65} {
		b := make([]byte, n)
		r.Fill(b)
		if n >= 8 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Fill(%d) produced all zeros", n)
			}
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(11)
	f1 := parent.Fork()
	f2 := parent.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("sibling forks produced identical first values")
	}
}

func TestRNGConcurrentSafety(t *testing.T) {
	r := NewRNG(3)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Uint64()
			}
		}()
	}
	wg.Wait()
}

// TestClockConcurrentMerge: forked child clocks are advanced by worker
// goroutines and joined back concurrently — the blob dispatcher's usage
// shape. Run under -race this pins the clock's internal locking; the final
// time must be the maximum any child reached.
func TestClockConcurrentMerge(t *testing.T) {
	parent := NewClock()
	parent.Advance(time.Second)
	var wg sync.WaitGroup
	children := make([]*Clock, 16)
	// Fork all before any join: a later fork would start from an advanced parent.
	for i := range children {
		children[i] = parent.Fork()
	}
	for i := range children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j <= i; j++ {
				children[i].Advance(time.Millisecond)
			}
			parent.Join(children[i])
		}(i)
	}
	wg.Wait()
	want := time.Second + 16*time.Millisecond
	if got := parent.Now(); got != want {
		t.Fatalf("concurrent join: parent = %v, want %v", got, want)
	}
}

// TestResourceConcurrentUseAccumulatesExactly: reservations from many
// goroutines must serialize without losing service time — the property the
// blob dispatcher's fold-at-join relies on when several client operations
// fold concurrently.
func TestResourceConcurrentUseAccumulatesExactly(t *testing.T) {
	r := NewResource("disk")
	const workers, each = 8, 500
	const service = 10 * time.Microsecond
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r.Use(0, service)
			}
		}()
	}
	wg.Wait()
	busy, ops := r.Stats()
	if want := time.Duration(workers*each) * service; busy != want {
		t.Fatalf("busy = %v, want %v", busy, want)
	}
	if ops != workers*each {
		t.Fatalf("ops = %d, want %d", ops, workers*each)
	}
	if free := r.Peek(); free != time.Duration(workers*each)*service {
		t.Fatalf("nextFree = %v after back-to-back reservations", free)
	}
}
