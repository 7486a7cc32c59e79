package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
)

// The common fixture of every workload: the HotPath shape of the committed
// BENCH_*.json files, so these numbers relate to that history.
const (
	fixtureNodes = 9
	chunkSize    = 64 << 10
	replication  = 3
	// maxIO is the largest single user I/O any workload issues.
	maxIO = 1 << 20
)

// clientCount is C: closed-loop client goroutines per workload. It follows
// the host so a rank/executor/caller need not share a core, is capped so
// the work one client does stays comparable across hosts, and is never
// below 2 so the collective and contention paths always run.
func clientCount() int {
	return min(max(runtime.NumCPU(), 2), 4)
}

// fixture is one simulated cluster with one blob store on it.
type fixture struct {
	cl      *cluster.Cluster
	st      *blob.Store
	pat     *pattern
	clients int
	// walFloor is ΣWALSize right after the last CheckpointAll: the snapshot
	// the log was compacted to, from which growth is counted.
	walFloor int64
	// liveBytes is the user data the workload keeps in the store.
	liveBytes int64
	// ctl keeps the wall of every parked control action by name, in
	// seconds; ctlBytes the bytes an action worked on, where that is known.
	ctl, ctlBytes map[string][]float64
}

func newFixture(seed uint64, pat *pattern, cfg blob.Config) *fixture {
	cfg.ChunkSize = chunkSize
	cfg.Replication = replication
	cl := cluster.New(cluster.Config{Nodes: fixtureNodes, Seed: seed})
	return &fixture{cl: cl, st: blob.New(cl, cfg), pat: pat, clients: clientCount(),
		ctl: map[string][]float64{}, ctlBytes: map[string][]float64{}}
}

// walBytes sums the encoded log bytes over every node. Exact only while
// the foreground is parked.
func (f *fixture) walBytes() int64 {
	var n int64
	for i := 0; i < fixtureNodes; i++ {
		n += f.st.WALSize(cluster.NodeID(i))
	}
	return n
}

// checkpoint runs the parked CheckpointAll of the flush policy, as a span
// of p's client, and returns its wall time and the log growth it compacted
// away.
func (f *fixture) checkpoint(p probe) (wall time.Duration, growth int64) {
	growth = f.walBytes() - f.walFloor
	i := p.begin(layerCtl, "checkpoint")
	t0 := time.Now()
	f.st.CheckpointAll()
	wall = time.Since(t0)
	p.end(i, 0)
	p.wall(wall)
	f.walFloor = f.walBytes()
	f.ctl["checkpoint"] = append(f.ctl["checkpoint"], wall.Seconds())
	f.ctlBytes["checkpoint"] = append(f.ctlBytes["checkpoint"], float64(f.walFloor))
	// Collect while still parked, outside every timer: each slice then
	// starts from the same heap (live chunks plus the fresh snapshot) and
	// grows through the same pages. Left to its own pacing the heap's peak
	// creeps up for minutes, and on a virtual machine each first touch of
	// a new page costs tens of microseconds, which lands in whichever
	// slice happens to take it.
	runtime.GC()
	return wall, growth
}

// warm is the tail of every set-up: two CheckpointAll, so the measured
// phase starts from a compacted log and grown lane buffers.
func (f *fixture) warm() {
	f.st.CheckpointAll()
	f.st.CheckpointAll()
	f.walFloor = f.walBytes()
}

// simMakespan is the virtual time at which the busiest device of the
// cluster frees up. After a ResetStats at slice start it is the slice's
// virtual makespan for clients that mint a fresh clock per request.
func (f *fixture) simMakespan() time.Duration {
	var m time.Duration
	for _, n := range f.cl.Nodes() {
		m = max(m, n.Disk().Peek(), n.NIC().Peek(), n.CPU().Peek())
	}
	return m
}

// deviceOps counts disk and NIC reservations since the last ResetStats.
func (f *fixture) deviceOps() (disk, nic int64) {
	for _, n := range f.cl.Nodes() {
		_, d := n.Disk().Stats()
		_, w := n.NIC().Stats()
		disk += d
		nic += w
	}
	return disk, nic
}

// pattern is the content generator: the byte at offset off of the
// write-seq-th version of object key is ring[(off + mix(key, seq)) % n].
// A write's payload is therefore a slice of the ring — no bytes are
// generated inside the measured phase — and any version read back can be
// checked against the ring without a copy of what was written.
type pattern struct {
	ring []byte
	n    uint64
}

// patternRing is far above the 4 MiB L2 so write payloads stream from
// memory the way application buffers do, and odd so versions do not alias
// on power-of-two offsets.
const patternRing = 32<<20 + 4099

func newPattern(seed uint64) *pattern {
	p := &pattern{ring: make([]byte, patternRing+maxIO), n: patternRing}
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := 0; i+8 <= patternRing; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p.ring[i:], x)
	}
	copy(p.ring[patternRing:], p.ring[:maxIO])
	return p
}

func mix(key, seq uint32) uint64 {
	z := (uint64(key)<<32 | uint64(seq)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bytes returns the n bytes at off of version seq of object key. The
// result aliases the ring and must not be written to.
func (p *pattern) bytes(key, seq uint32, off int64, n int) []byte {
	i := (uint64(off) + mix(key, seq)) % p.n
	return p.ring[i : i+uint64(n)]
}

// sample is the in-timer check: length plus 64 bytes at a position that
// moves with the version.
func (p *pattern) sample(key, seq uint32, off int64, got []byte, want int) bool {
	if len(got) != want {
		return false
	}
	if want <= 64 {
		return bytes.Equal(got, p.bytes(key, seq, off, want))
	}
	at := int(mix(seq, key) % uint64(want-64))
	return bytes.Equal(got[at:at+64], p.bytes(key, seq, off+int64(at), 64))
}

// full is the epilogue check.
func (p *pattern) full(key, seq uint32, off int64, got []byte) bool {
	return bytes.Equal(got, p.bytes(key, seq, off, len(got)))
}

// sliceStats is what one fixed-work slice of a workload measured. Every
// rate metric is computed per slice and reported as the median slice.
type sliceStats struct {
	// fgWall is the wall the clients spent running (parked time excluded).
	fgWall time.Duration
	// writeWall and readWall are the walls the write and read rates divide
	// by; on mixed workloads both equal fgWall.
	writeWall, readWall   time.Duration
	writeBytes, readBytes int64
	ops                   int64
	// maintWall is the wall of control-plane work done with the foreground
	// parked.
	maintWall time.Duration
	sim       time.Duration
	walGrowth int64

	diskBusy, nicBusy, cpuBusy time.Duration
	diskOps, nicOps            int64
}

// device fills the virtual-device counters accumulated since the slice's
// ResetStats.
func (s *sliceStats) device(f *fixture) {
	s.diskBusy, s.nicBusy, s.cpuBusy = f.cl.Utilization()
	s.diskOps, s.nicOps = f.deviceOps()
}

// latencies collects per-op wall times in nanoseconds. Each client owns
// one, preallocated, so recording costs an append.
type latencies struct {
	read, write, other []int64
}

func newLatencies(n int) *latencies {
	return &latencies{read: make([]int64, 0, n), write: make([]int64, 0, n), other: make([]int64, 0, n/8)}
}

func mergeLatencies(ls []*latencies) (read, write, all []int64) {
	for _, l := range ls {
		if l == nil {
			continue
		}
		read = append(read, l.read...)
		write = append(write, l.write...)
		all = append(all, l.other...)
	}
	all = append(append(all, read...), write...)
	return read, write, all
}

// quantile returns the q-quantile of v (nearest rank), 0 for an empty v.
// It sorts v.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	return float64(v[int(q*float64(len(v)-1)+0.5)])
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max-min)/median, the figure printed beside each median slice.
func spread(v []float64) float64 {
	m := medianF(v)
	if m == 0 {
		return 0
	}
	return (slices.Max(v) - slices.Min(v)) / m
}

// runClients runs fn on n goroutines and waits for all: one foreground
// sub-phase. Returning from it is the barrier control actions park behind.
func runClients(n int, fn func(client int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verdict accumulates what the correctness checks saw.
type verdict struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     string
}

func (v *verdict) add(attempted int64) {
	v.mu.Lock()
	v.attempted += attempted
	v.mu.Unlock()
}

func (v *verdict) fail(format string, args ...any) {
	v.mu.Lock()
	v.failed++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
	v.mu.Unlock()
}
