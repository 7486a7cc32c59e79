// Package mpi implements a miniature MPI runtime: ranks are goroutines, and
// the package provides the point-to-point and collective operations the
// paper's HPC applications are built on (barrier, broadcast, gather,
// all-reduce, send/recv).
//
// Virtual time follows the MPI model: each rank owns a clock
// (storage.Context); collectives synchronize the participants' clocks to
// the slowest rank plus a logarithmic tree cost, exactly how barrier time
// behaves on a real interconnect at first order.
package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// World is one communicator spanning size ranks.
type World struct {
	size int
	cost sim.CostModel

	mu      sync.Mutex
	cond    *sync.Cond
	gen     int64
	arrived int
	// One slot per rank, double-buffered by generation parity: generation
	// g+2 reuses g's slots, and its first arrival comes after g+1 has
	// completed, that is after every rank has entered g+1 and so finished
	// reading g.
	slots [2][]contribution

	// Point-to-point mailboxes, one per (src, dst) pair, created lazily.
	boxesMu sync.Mutex
	boxes   map[[2]int]chan message

	// Sub-communicators created by Split, keyed by (color, membership).
	subMu sync.Mutex
	subs  map[string]*World
}

// contribution is what one rank leaves in its rendezvous slot.
type contribution struct {
	clock time.Duration // the rank's clock on arrival
	wire  int           // bytes the contribution occupies on the interconnect
	data  []byte        // by-value collectives: the sender's snapshot
	ref   any           // AllGatherRef: handed to every rank as is
}

type message struct {
	tag  int
	data []byte
	at   time.Duration // sender's clock at send time
}

// Rank is one process in the world.
type Rank struct {
	ID    int
	world *World
	// Ctx carries the rank's virtual clock; storage calls made by the rank
	// must use it.
	Ctx *storage.Context
}

// Size returns the communicator size.
func (r *Rank) Size() int { return r.world.size }

// newWorld builds a communicator for n ranks.
func newWorld(n int, cost sim.CostModel) *World {
	w := &World{
		size:  n,
		cost:  cost,
		boxes: make(map[[2]int]chan message),
	}
	w.slots[0] = make([]contribution, n)
	w.slots[1] = make([]contribution, n)
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Run spawns n ranks executing fn concurrently and returns each rank's
// final error (indexed by rank) once all complete. It panics if n < 1.
func Run(n int, cost sim.CostModel, fn func(r *Rank) error) []error {
	if n < 1 {
		panic(fmt.Sprintf("mpi: invalid world size %d", n))
	}
	w := newWorld(n, cost)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := &Rank{ID: id, world: w, Ctx: storage.NewContext()}
			errs[id] = fn(r)
		}(i)
	}
	wg.Wait()
	return errs
}

// Self returns a single-rank communicator (MPI_COMM_SELF): collectives
// complete immediately because the lone rank is always the last arriver.
// It exists so MPI-IO file semantics (write-behind, visibility-on-sync)
// can be embedded outside an mpi.Run world — mpiio's storage.FileSystem
// adapter opens every handle on its own Self rank. The rank adopts ctx for
// its storage calls so costs land on the caller's virtual clock.
func Self(ctx *storage.Context, cost sim.CostModel) *Rank {
	return &Rank{ID: 0, world: newWorld(1, cost), Ctx: ctx}
}

// FirstError returns the first non-nil error from a Run result, or nil.
func FirstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// rendezvous blocks until every rank has left its contribution for this
// generation, then returns all of them (identical view for all ranks). The
// last arriver advances the generation. The view is only valid until the
// caller enters its next collective on this communicator.
func (w *World) rendezvous(rank int, c contribution) []contribution {
	w.mu.Lock()
	defer w.mu.Unlock()
	gen := w.gen
	slots := w.slots[gen&1]
	slots[rank] = c
	w.arrived++
	if w.arrived == w.size {
		w.arrived = 0
		w.gen++
		w.cond.Broadcast()
	} else {
		for w.gen == gen {
			w.cond.Wait()
		}
	}
	return slots
}

// treeCost returns the collective's virtual-time cost for a payload of n
// bytes: ceil(log2(size)) tree steps, each one wire traversal.
func (w *World) treeCost(n int) time.Duration {
	steps := 0
	for s := 1; s < w.size; s <<= 1 {
		steps++
	}
	if steps == 0 {
		steps = 1
	}
	return time.Duration(steps) * w.cost.WireTime(n)
}

// collect runs one collective exchange: every rank contributes c, every
// rank sees all contributions, and all clocks synchronize to the slowest
// participant plus the tree cost for the largest wire size.
func (r *Rank) collect(c contribution) []contribution {
	c.clock = r.Ctx.Clock.Now()
	all := r.world.rendezvous(r.ID, c)
	var latest time.Duration
	wire := 0
	for _, p := range all {
		latest = max(latest, p.clock)
		wire = max(wire, p.wire)
	}
	r.Ctx.Clock.AdvanceTo(latest + r.world.treeCost(wire))
	return all
}

// byValue is the contribution of the by-value collectives (Bcast, Gather,
// AllGather). It snapshots data on the sender's side because a sender may
// mutate its buffer as soon as *it* returns, while slower ranks are still
// reading the slot; receivers then take private copies of the snapshot
// because each of them owns what it is handed.
func byValue(data []byte) contribution {
	return contribution{wire: len(data), data: append([]byte(nil), data...)}
}

// Barrier blocks until all ranks arrive; clocks synchronize to the slowest.
func (r *Rank) Barrier() {
	r.collect(contribution{})
}

// AllGatherRef is the by-reference all-gather for ranks that share an
// address space: every rank receives every rank's ref itself (appended to
// dst in rank order), nothing is copied, and virtual time is charged for
// wireBytes exactly as AllGather of that many bytes would charge it. What
// a ref points to is shared: the contributor must leave it alone until a
// later collective tells it that every reader is done.
func (r *Rank) AllGatherRef(ref any, wireBytes int, dst []any) []any {
	for _, p := range r.collect(contribution{wire: wireBytes, ref: ref}) {
		dst = append(dst, p.ref)
	}
	return dst
}

// Bcast distributes root's buffer to every rank, returning the received
// copy (root receives its own data back).
func (r *Rank) Bcast(root int, data []byte) []byte {
	if root < 0 || root >= r.world.size {
		panic(fmt.Sprintf("mpi: Bcast root %d out of range", root))
	}
	var contrib []byte
	if r.ID == root {
		contrib = data
	}
	return append([]byte{}, r.collect(byValue(contrib))[root].data...)
}

// Gather collects every rank's buffer; the root receives the full slice
// (indexed by rank) and the others receive nil.
func (r *Rank) Gather(root int, data []byte) [][]byte {
	if root < 0 || root >= r.world.size {
		panic(fmt.Sprintf("mpi: Gather root %d out of range", root))
	}
	all := r.collect(byValue(data))
	if r.ID != root {
		return nil
	}
	return privateCopies(all)
}

// AllGather collects every rank's buffer on every rank.
func (r *Rank) AllGather(data []byte) [][]byte {
	return privateCopies(r.collect(byValue(data)))
}

func privateCopies(all []contribution) [][]byte {
	out := make([][]byte, len(all))
	for i, p := range all {
		out[i] = append([]byte(nil), p.data...)
	}
	return out
}

// AllReduceInt64 combines one int64 per rank with op on every rank.
func (r *Rank) AllReduceInt64(v int64, op func(a, b int64) int64) int64 {
	buf := make([]byte, 8)
	u := uint64(v)
	for i := 0; i < 8; i++ {
		buf[i] = byte(u >> (8 * i))
	}
	// buf is private already, so it goes in without a snapshot.
	all := r.collect(contribution{wire: len(buf), data: buf})
	acc := decodeInt64(all[0].data)
	for _, p := range all[1:] {
		acc = op(acc, decodeInt64(p.data))
	}
	return acc
}

func decodeInt64(b []byte) int64 {
	var u uint64
	for i := 0; i < 8 && i < len(b); i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return int64(u)
}

// Send delivers data to rank dst with a tag; it does not block on the
// receiver (buffered eager protocol).
func (r *Rank) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mpi: Send to rank %d out of range", dst))
	}
	box := r.world.box(r.ID, dst)
	cp := append([]byte(nil), data...)
	r.Ctx.Clock.Advance(r.world.cost.WireTime(len(data)))
	box <- message{tag: tag, data: cp, at: r.Ctx.Clock.Now()}
}

// Recv blocks for a message from src with the given tag, returning its
// payload. Receiving advances the clock to no earlier than the send
// completion (message latency already charged by the sender).
func (r *Rank) Recv(src, tag int) []byte {
	if src < 0 || src >= r.world.size {
		panic(fmt.Sprintf("mpi: Recv from rank %d out of range", src))
	}
	box := r.world.box(src, r.ID)
	for {
		m := <-box
		if m.tag == tag {
			r.Ctx.Clock.AdvanceTo(m.at)
			return m.data
		}
		// Wrong tag: requeue and retry (tags are rare in this codebase, so
		// the simple strategy suffices).
		box <- m
	}
}

func (w *World) box(src, dst int) chan message {
	w.boxesMu.Lock()
	defer w.boxesMu.Unlock()
	key := [2]int{src, dst}
	b, ok := w.boxes[key]
	if !ok {
		b = make(chan message, 1024)
		w.boxes[key] = b
	}
	return b
}
