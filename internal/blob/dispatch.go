// dispatch.go implements the data plane's scatter-gather dispatcher: a
// fork-join scheduler for per-chunk fan-out work (striped reads, replica
// writes, 2PC prepare/commit traffic, descriptor replication, rebalance
// copies). The caller is worker zero — a fan runs on the goroutine that
// joins it and idle pool workers steal its tail — while the simulated-clock
// semantics of the sequential implementation stay bit-for-bit.
//
// # Concurrency contract
//
// The difficulty is that virtual-time accounting must stay deterministic
// while real execution becomes parallel. sim.Resource reservations are
// order-sensitive (FIFO by arrival of the Use call), so letting tasks
// charge the shared cluster resources directly would make joined clock
// times depend on the host scheduler. The dispatcher therefore splits
// every task into two halves:
//
//   - Real work — byte copies, chunk-table mutations, WAL appends — runs on
//     whichever goroutine takes the task off the fan's run queue: the
//     joining caller or a helping pool worker. All touched structures are
//     independently locked (chunk stripes, server descriptor maps, the
//     per-server WAL lanes, the placement cache), so this half is free to
//     interleave.
//     (enforced: blobvet/stripelock for the stripe half; blobvet/walappend
//     keeps appends on the accounted path)
//   - Cost charging — RPC, DiskRead, DiskWrite, DiskAppend, MetaOp,
//     LocalCompute — is recorded into the task's private ledger (a
//     per-worker shard of the cluster accounting) and folded into the
//     shared resources only at ctxFan.join, in task submission order.
//     (enforced: manual: fold-order equivalence is pinned by
//     TestFanoutDeterministicVirtualTime, not statically checkable)
//
// Folding at join replays exactly the charge sequence the sequential
// implementation would have issued: every top-level task's clock forks at
// the caller's time at join, charges replay in submission order against the
// live resources, and the caller advances to the slowest child. Nested fans
// (a chunk write's replica replication) are recorded as a join op inside the
// parent task's ledger and replayed recursively.
//
// Ownership rules:
//
//   - A forked child clock (ledger) is owned by exactly one task between
//     spawn and join; nothing else may observe it.
//     (enforced: manual: ownership aliasing is not statically checkable;
//     the race detector covers it under -race)
//   - Between creating a fan and joining it the caller must not charge its
//     own clock; all fork times are taken at join.
//     (enforced: manual: pinned by the fan-out virtual-time equivalence
//     tests)
//   - ctxFan.join is the only place ledgers touch shared resources, so
//     costs fold deterministically no matter where tasks physically ran
//     (the joining caller, a helping pool worker, or at spawn under
//     Config.InlineFanout — all three are virtual-time identical, which
//     TestFanoutDeterministicVirtualTime pins).
//     (enforced: manual: pinned by TestFanoutDeterministicVirtualTime)
//   - A task must never block on a lock that can be held across a pool
//     wait (ctxFan.join, parallelDo). Concretely: a key latch (lockKey) is
//     held across writers' joins — which run the fan's tasks on the
//     writer's own goroutine — so tasks may not acquire one; they collect
//     keys and let the caller resolve them under the latch after join (see
//     Scan). The short-hold locks — chunk stripes, server maps, the WAL,
//     the placement cache — are fine; their holders never wait on the
//     pool.
//     (enforced: blobvet/workerlatch — latch takes and pool waits are
//     flagged in the whole call graph reachable from task bodies and from
//     a helper's ctxFan.run)
//
// # Recovery and checkpoint stages
//
// The crash-recovery pipeline (recoverfeed.go) and the per-lane
// checkpoint (recovery.go) ride this same pool, under the same rules,
// with three stage-specific latch obligations:
//
//   - Lane-decode jobs are one-shot and non-blocking: each decodes a
//     bounded batch from its lane's medium, read in place, and signals a
//     capacity-1 channel that is empty by protocol (one job in flight per
//     lane). Only the recovery caller — the merge and the drain after it,
//     never a worker — waits on those channels, and it must therefore hold
//     no lock across a wait:
//     redo takes the short-hold sv.mu and stripe locks per record and
//     releases them before the merge asks a feed for the next one.
//     (enforced: blobvet/workerlatch — laneFeed.run is a task root and
//     laneFeed.Next and laneFeed.drain are pool waits)
//   - Per-lane checkpoint jobs append only to their own lane's private
//     Log/Buffer through the pooled header staging; they take no
//     latch-class lock and never wait on the pool. The state snapshot
//     (descriptor sizes under sv.mu, chunk slices under the stripe locks)
//     is taken by the caller BEFORE the jobs are spawned.
//     (enforced: blobvet/workerlatch for the latch and wait half;
//     blobvet/walappend keeps checkpointLane the only direct lane writer)
//   - parallelDo must not be called from a worker, so multi-stage sweeps
//     fan out FLAT: CheckpointAll expands to (server, lane) jobs at the
//     caller instead of nesting a per-server parallelDo inside a pool
//     task, where every worker parked in a nested wait is a helper lost to
//     every other fan.
//     (enforced: blobvet/workerlatch — parallelDo is a flagged pool wait
//     inside the task-reachable graph)
//
// # Repair and resync stages
//
// Debt-driven repair, rejoin resync and the migration sweep are work-list
// generators over one copy (survey.go, repair.go: surveyChunk picks the
// source by version, installChunk replaces the target whole). Repair fans
// per-chunk repairChunk tasks through this pool round by round; resyncNode
// runs inline on the Recover caller. Two lock rules:
//
//   - A replica copy touches only short-hold locks: the source chunk's
//     entry is read under its stripe RLock (its bytes are immutable, so
//     nothing is copied there), installChunk takes the TARGET's stripe lock
//     and copies the bytes once, into the target's log, and the two locks
//     are never held together (the read is a snapshot; the version guard at
//     install, not lock coverage, is what keeps a racing writer's newer data
//     from being clobbered). Debt clears are version-guarded under the
//     holder's stripe lock the same way.
//     (enforced: blobvet/stripelock — holding two chunk-stripe locks at
//     once is flagged, including through callbacks run under a stripe)
//   - Repair never acquires a key latch and never waits on the pool from
//     inside a task. The first is what makes the
//     degraded-write epilogue sound: writeLocked invokes repairDrain WHILE
//     holding the written blob's latch (the writer is a caller, allowed to
//     hold it across its own join). The second makes repairDrain, which
//     joins a fan per round, caller-only; its rounds require progress (a
//     chunk installed or a bit cleared) to continue, so a target whose only
//     newer source is down ends the loop instead of spinning it.
//     (enforced: blobvet/workerlatch — repairChunk runs in the
//     task-reachable graph, where latch takes are flagged, and repairDrain
//     is itself a flagged pool wait)
//
// # Migration stages
//
// Membership changes (rebalance.go) run the reconcile sweep's per-chunk
// migrateChunk tasks through this pool, one batch in flight at a time, under
// three rules:
//
//   - The descriptor handover sweep is caller-only and runs BEFORE any
//     chunk batch: under each key's latch, held in read mode, it looks the
//     descriptor up and gives every owner the size through putDesc; a key
//     a racing DeleteBlob removed is not found. Chunk-batch tasks therefore
//     never need — and must never take — a key latch; like repair tasks
//     they touch only stripe locks, server maps, and WAL lanes (installChunk
//     and dropStrays on the chunk's natural lane, through the accounted
//     append path).
//     (enforced: blobvet/workerlatch — migrateChunk is in the
//     task-reachable graph, where latch takes are flagged; blobvet/walappend
//     keeps walAppendLane and checkpointLane the only direct lane writers)
//   - Sweep iteration is determinism-critical: the descriptor sweep and the
//     migration plan sort their key/chunk sets before walking them, so the
//     record order every log receives — and therefore the roll-forward
//     replay — is independent of Go map iteration order.
//     (enforced: blobvet/virtualtime — map-order-dependent effects in the
//     accounted call graph are flagged)
//   - The ring mutates only under the exclusive member gate, and every
//     placement-resolving foreground op holds the gate shared end-to-end
//     (resolve through last replica ack), so an epoch flip never splits one
//     op across two placements. The gate is held for the flip instant only
//     — never across the sweep — so foreground traffic runs throughout.
//     (enforced: manual: gate coverage is a protocol property, pinned by
//     the live-traffic migration tests and the chaos battery's membership
//     actor)
//
// The pool is package-global, lazily started, and sized from runtime.NumCPU
// (capped at maxDispatchWorkers). No fan depends on it for progress: spawn
// links the task into the fan's own run queue, join runs that queue on the
// caller, and the pool is only offered non-blocking help tokens — unread
// while every core is busy, answered by an idle worker taking tasks off the
// same queue. Workers never block: a task that fans out further (replica
// writes) appends the sub-fan to the root's queue and returns. Both
// properties together make nested fan-outs deadlock-free by construction.
package blob

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// maxDispatchWorkers caps the worker pool so a large host does not spawn
// more goroutines than the simulated cluster could meaningfully exercise.
const maxDispatchWorkers = 16

// dispatchQueueLen is the pool's token queue depth. Overflow is not an
// error: a fan whose help token does not fit simply runs without helpers.
const dispatchQueueLen = 256

// runnable is what a pool worker receives: a fan to help drain, the shared
// job of a parallelDo, or a recovery lane-decode job.
type runnable interface{ run() }

// dispatchWorkers is the pool's size: a property of the host, not of the
// GOMAXPROCS in force when the first fan happened to run.
func dispatchWorkers() int {
	return min(max(runtime.NumCPU(), 2), maxDispatchWorkers)
}

// dispatchPool lazily starts the shared worker pool and returns its queue.
var dispatchPool = sync.OnceValue(func() chan runnable {
	ch := make(chan runnable, dispatchQueueLen)
	for i := dispatchWorkers(); i > 0; i-- {
		go func() {
			for t := range ch {
				t.run()
			}
		}()
	}
	return ch
})

// offerHelp posts one help token without blocking and reports whether it fit.
func offerHelp(t runnable) bool {
	select {
	case dispatchPool() <- t:
		return true
	default:
		return false
	}
}

// parallelDo runs fn(0..n-1) and waits for all of them: the caller pulls
// indices off a shared cursor and idle pool workers pull from the same one.
// It is for clock-free bulk work (checkpoint lane jobs); fan tasks with
// cost accounting go through ctxFan.
// Must not be called from a worker (it blocks).
func parallelDo(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	j := &funcJob{fn: fn, n: int64(n)}
	j.wg.Add(n)
	for range min(n-1, runtime.GOMAXPROCS(0)) {
		offerHelp(j)
	}
	j.run()
	j.wg.Wait()
}

// funcJob is parallelDo's one shared job. A token read after the sweep is
// over finds the cursor past n and does nothing.
type funcJob struct {
	fn   func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
}

func (j *funcJob) run() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		j.fn(int(i))
		j.wg.Done()
	}
}

// ---- cost ledgers ----

// opKind tags one recorded resource charge.
type opKind uint8

const (
	opRPC opKind = iota
	opDiskRead
	opDiskWrite
	opDiskAppend
	opMetaOp
	opLocalCompute
	// opJoinSubs replays a nested fan: the linked sub-tasks fork at the
	// replay clock's current time and the clock advances to the slowest.
	opJoinSubs
)

// ledgerOp is one deferred charge. a and b carry the integer operands of
// the corresponding cluster call (byte counts, metadata-op counts).
type ledgerOp struct {
	kind opKind
	node cluster.NodeID
	a, b int
	d    time.Duration
	sub  *fanTask // head of the sibling-linked nested fan (opJoinSubs)
}

// ledger accumulates a task's charges. The ops slice is recycled with its
// task, so steady-state recording allocates nothing.
type ledger struct {
	ops []ledgerOp
}

// charge routes cluster cost accounting: direct mode (clk set) applies the
// charge to the shared resources immediately — the caller's own sequential
// work — while deferred mode (led set) records it into a task ledger for
// fold-at-join. Exactly one of clk/led is non-nil.
type charge struct {
	s   *Store
	clk *sim.Clock
	led *ledger
}

// directCharge returns a charger applying costs immediately to ctx's clock.
func (s *Store) directCharge(ctx *storage.Context) charge {
	return charge{s: s, clk: ctx.Clock}
}

func (cg *charge) rpc(dst cluster.NodeID, reqBytes, respBytes int, service time.Duration) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opRPC, node: dst, a: reqBytes, b: respBytes, d: service})
		return
	}
	cg.s.cluster.RPC(cg.clk, dst, reqBytes, respBytes, service)
}

func (cg *charge) diskRead(dst cluster.NodeID, n int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opDiskRead, node: dst, a: n})
		return
	}
	cg.s.cluster.DiskRead(cg.clk, dst, n)
}

func (cg *charge) diskWrite(dst cluster.NodeID, n int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opDiskWrite, node: dst, a: n})
		return
	}
	cg.s.cluster.DiskWrite(cg.clk, dst, n)
}

func (cg *charge) diskAppend(dst cluster.NodeID, n int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opDiskAppend, node: dst, a: n})
		return
	}
	cg.s.cluster.DiskAppend(cg.clk, dst, n)
}

func (cg *charge) metaOp(dst cluster.NodeID, k int) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opMetaOp, node: dst, a: k})
		return
	}
	cg.s.cluster.MetaOp(cg.clk, dst, k)
}

func (cg *charge) localCompute(d time.Duration) {
	if cg.led != nil {
		cg.led.ops = append(cg.led.ops, ledgerOp{kind: opLocalCompute, d: d})
		return
	}
	cg.s.cluster.LocalCompute(cg.clk, d)
}

// ---- fan tasks ----

// taskKind selects a fan task's body. Hot-path work uses typed kinds so the
// read and write paths stay closure-free (zero steady-state allocations);
// cold paths (scan, migration) use taskFunc closures.
type taskKind uint8

const (
	taskFunc taskKind = iota
	taskReadChunk
	taskWriteChunk
	taskReplicaWrite
	taskApplyChunk
	taskPrepare
	taskWalFlush
	taskDescReplicate
)

// fanTask is one unit of scatter-gather work: operands, a private cost
// ledger, and the sibling link that keeps submission order for the
// deterministic fold at join. Tasks are pooled; ledger capacity survives
// recycling.
type fanTask struct {
	next *fanTask
	fan  *ctxFan // root fan: owns the run queue and the inline flag
	s    *Store
	cg   charge
	led  ledger
	kind taskKind
	err  error

	// operands (union across kinds)
	pl     chunkPlace
	plp    *chunkPlace // taskWriteChunk/taskReplicaWrite: the shared placement, for a faulted replica to join excl
	within int64
	size   int64
	mask   uint64 // taskReplicaWrite: debt mask owed by the write's down owners
	data   []byte
	sv     *server
	rec    wal.RecordType
	key    string
	lane   int // taskWalFlush: the target log lane of the spec batch
	specs  []wal.AppendVSpec
	fn     func(cg *charge) error
}

var taskPool = sync.Pool{New: func() any { return new(fanTask) }}

func (t *fanTask) run() {
	s := t.s
	cg := &t.cg
	switch t.kind {
	case taskFunc:
		t.err = t.fn(cg)
	case taskReadChunk:
		t.err = s.readChunk(cg, t.pl.id, t.within, t.data)
	case taskWriteChunk:
		t.err = s.writeChunk(t, t.pl, t.within, t.data, t.rec)
	case taskReplicaWrite:
		t.err = s.replicaWrite(cg, t.sv, t.plp, t.pl, t.within, t.data, t.rec, t.mask)
	case taskApplyChunk:
		// Commit-phase memory materialization of a prepared multi-chunk
		// write: every replica the data phase reached, in parallel across
		// chunks. Pure memory work — no resource charge; the 2PC round
		// trips are accounted by the prepare and commit log phases. An
		// owner that flapped down after the data phase is NOT skipped:
		// its retained memory stays consistent with the prepare and
		// commit markers its log received. An owner the data phase
		// excluded (t.pl.excl) IS skipped: it holds no prepare, the debt
		// recorded below covers the gap, and a partial apply here would
		// raise its chunk version past bytes it never received.
		//
		// The exclusion debt is recorded HERE, after each included owner's
		// apply, not in the prepare phase: a debt entry clears once its
		// target has caught up with THIS holder's version, so a holder must
		// hold the write before it lists who missed it — else a racing
		// repair of the excluded owner could erase the entry the commit is
		// about to depend on. (Aborted transactions also stop leaving
		// spurious debt behind.)
		//
		// Each owner keeps the payload its own prepare stored (t.pl.stored).
		for i, o := range t.pl.owners {
			if t.pl.excl&(1<<uint(o)) != 0 {
				continue
			}
			applyChunk(s.servers[o], t.pl.h, t.pl.id, t.within, chunkBytes{b: t.pl.stored[i], sum: t.pl.sum, summed: true}, t.pl.ver)
			if t.pl.excl != 0 {
				s.recordDebt(cg, s.servers[o], t.pl.h, t.pl.id, t.pl.excl)
			}
		}
	case taskPrepare:
		// One prepare round trip on the participant chunk's primary — the
		// first owner the placement survey did not exclude, the same
		// promotion the degraded data phase applies.
		var sv *server
		for _, o := range t.pl.owners {
			if t.pl.excl&(1<<uint(o)) == 0 {
				sv = s.servers[o]
				break
			}
		}
		if sv == nil {
			t.err = fmt.Errorf("chunk %d of %q: all replicas down or behind: %w", t.pl.id.idx, t.pl.id.key, storage.ErrUnavailable)
			return
		}
		if err := s.faultCheck(cg, sv.node, cluster.FaultMetaOp); err != nil {
			t.err = fmt.Errorf("chunk %d of %q: prepare: %w", t.pl.id.idx, t.pl.id.key, err)
			return
		}
		cg.metaOp(sv.node, 1)
	case taskWalFlush:
		cg.metaOp(t.sv.node, len(t.specs))
		s.walAppendBatch(cg, t.sv, t.lane, t.specs)
	case taskDescReplicate:
		cg.metaOp(t.sv.node, 1)
		t.sv.putDesc(t.key, t.size)
		s.walAppendMeta(cg, t.sv, wal.RecMeta, t.key, t.size)
	}
}

// replay folds the task's recorded charges into the shared cluster
// resources using clk as the task's virtual clock. Called only from
// ctxFan.join, in submission order.
func (t *fanTask) replay(clk *sim.Clock) {
	s := t.s
	for i := range t.led.ops {
		op := &t.led.ops[i]
		switch op.kind {
		case opRPC:
			s.cluster.RPC(clk, op.node, op.a, op.b, op.d)
		case opDiskRead:
			s.cluster.DiskRead(clk, op.node, op.a)
		case opDiskWrite:
			s.cluster.DiskWrite(clk, op.node, op.a)
		case opDiskAppend:
			s.cluster.DiskAppend(clk, op.node, op.a)
		case opMetaOp:
			s.cluster.MetaOp(clk, op.node, op.a)
		case opLocalCompute:
			s.cluster.LocalCompute(clk, op.d)
		case opJoinSubs:
			forkAt := clk.Now()
			for sub := op.sub; sub != nil; sub = sub.next {
				sc := clockPool.Get().(*sim.Clock)
				sc.Reset(forkAt)
				sub.replay(sc)
				clk.Join(sc)
				clockPool.Put(sc)
			}
		}
	}
}

// firstError returns the task's own error or the first error among its
// nested sub-tasks, in recorded order.
func (t *fanTask) firstError() error {
	if t.err != nil {
		return t.err
	}
	for i := range t.led.ops {
		op := &t.led.ops[i]
		if op.kind == opJoinSubs {
			for sub := op.sub; sub != nil; sub = sub.next {
				if err := sub.firstError(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// release recycles the task and, recursively, any nested fan it recorded.
func (t *fanTask) release() {
	for i := range t.led.ops {
		op := &t.led.ops[i]
		if op.kind == opJoinSubs {
			for sub := op.sub; sub != nil; {
				next := sub.next
				sub.release()
				sub = next
			}
			op.sub = nil
		}
	}
	t.led.ops = t.led.ops[:0]
	t.next = nil
	t.fan = nil
	t.s = nil
	t.cg = charge{}
	t.err = nil
	t.pl = chunkPlace{}
	t.plp = nil
	t.within = 0
	t.size = 0
	t.mask = 0
	t.data = nil
	t.sv = nil
	t.rec = 0
	t.key = ""
	t.lane = 0
	t.specs = nil
	t.fn = nil
	taskPool.Put(t)
}

// clockPool recycles the scratch clocks used to replay task ledgers.
var clockPool = sync.Pool{New: func() any { return sim.NewClock() }}

// ---- fans ----

// ctxFan is a scatter-gather in flight: the submission-ordered task list
// that join folds, and the run queue of every task in the tree (nested fans
// included) nobody has started yet. The queue is all a helper touches,
// always under mu, so a help token needs no generation check: a worker that
// reads one after the fan was joined and recycled finds the queue empty, or
// helps whichever operation owns the object by then. Fans are pooled, queue
// capacity included, so a steady-state fan-out allocates nothing.
type ctxFan struct {
	s      *Store
	inline bool
	head   *fanTask
	tail   *fanTask

	mu      sync.Mutex
	idle    sync.Cond  // join parks here while helpers hold tasks
	q       []*fanTask // q[next:] are unclaimed
	next    int
	out     int // tasks helpers have taken and not finished
	offered int // help tokens posted
	helped  int // tasks a helper ran
}

var fanPool = sync.Pool{New: func() any {
	f := new(ctxFan)
	f.idle.L = &f.mu
	return f
}}

// newFan starts a scatter-gather rooted at this store.
func (s *Store) newFan() *ctxFan {
	f := fanPool.Get().(*ctxFan)
	f.s = s
	f.inline = s.cfg.InlineFanout
	return f
}

// task takes a pooled task bound to this fan.
func (f *ctxFan) task(kind taskKind) *fanTask {
	t := taskPool.Get().(*fanTask)
	t.kind = kind
	t.s = f.s
	t.fan = f
	t.cg = charge{s: f.s, led: &t.led}
	return t
}

// dispatch links t into the run queue (tasks start at join, not here), or
// runs it at once in sequential mode. While more tasks are unclaimed than
// the caller's next one, it offers the pool a token each, up to the cap.
func (f *ctxFan) dispatch(t *fanTask) {
	if f.inline {
		t.run()
		return
	}
	f.mu.Lock()
	f.q = append(f.q, t)
	if f.offered < f.s.helpers && f.offered < len(f.q)-f.next-1 && offerHelp(f) {
		f.offered++
	}
	f.mu.Unlock()
}

// run is a pool worker answering a help token: it drains whatever the fan
// object holds right now and goes back to the pool.
func (f *ctxFan) run() {
	f.mu.Lock()
	for f.next < len(f.q) {
		t := f.q[f.next]
		f.next++
		f.out++
		f.mu.Unlock()
		t.run()
		f.mu.Lock()
		f.out--
		f.helped++
		f.idle.Signal()
	}
	f.mu.Unlock()
}

// spawn submits a top-level task.
func (f *ctxFan) spawn(t *fanTask) {
	if f.head == nil {
		f.head = t
	} else {
		f.tail.next = t
	}
	f.tail = t
	f.dispatch(t)
}

// join runs the fan on the calling goroutine (the queue front to back,
// nested sub-fans as they are appended), waits for the tasks helpers took,
// folds the recorded charges into the shared cluster resources in
// submission order, and advances ctx's clock to the slowest child — the
// synchronization point of the simulated parallel fan-out. It returns the
// index of the first failed top-level task and the first error in submission
// order (-1, nil when everything succeeded), and recycles the fan.
func (f *ctxFan) join(ctx *storage.Context) (int, error) {
	if !f.inline {
		f.mu.Lock()
		for f.next < len(f.q) || f.out > 0 {
			if f.next == len(f.q) {
				f.idle.Wait()
				continue
			}
			t := f.q[f.next]
			f.next++
			f.mu.Unlock()
			t.run()
			f.mu.Lock()
		}
		offered, helped := f.offered, f.helped
		f.q, f.next, f.offered, f.helped = f.q[:0], 0, 0, 0
		f.mu.Unlock()
		if offered > 0 {
			f.s.fanOffered.Add(int64(offered))
			f.s.fanHelped.Add(int64(helped))
		}
	}
	forkAt := ctx.Clock.Now()
	errIdx, firstErr := -1, error(nil)
	i := 0
	for t := f.head; t != nil; i++ {
		sc := clockPool.Get().(*sim.Clock)
		sc.Reset(forkAt)
		t.replay(sc)
		ctx.Clock.Join(sc)
		clockPool.Put(sc)
		if firstErr == nil {
			if err := t.firstError(); err != nil {
				errIdx, firstErr = i, err
			}
		}
		next := t.next
		t.release()
		t = next
	}
	f.head, f.tail = nil, nil
	f.s = nil
	fanPool.Put(f)
	return errIdx, firstErr
}

// subFan collects the nested fan-out of a task already running (a chunk
// write's replica replication). Its tasks share the root fan's run queue
// and mode, but their charges are recorded into the parent task's ledger —
// joinSubs — instead of touching shared resources, so a task never blocks
// and never charges out of order.
type subFan struct {
	root *ctxFan
	head *fanTask
	tail *fanTask
}

func (t *fanTask) subFan() subFan { return subFan{root: t.fan} }

func (sf *subFan) task(kind taskKind) *fanTask { return sf.root.task(kind) }

func (sf *subFan) spawn(t *fanTask) {
	if sf.head == nil {
		sf.head = t
	} else {
		sf.tail.next = t
	}
	sf.tail = t
	sf.root.dispatch(t)
}

// joinSubs records a fork/join of the nested fan at the parent task's
// current virtual time: at replay the subs fork together and the parent
// advances to the slowest, like ctxFan.join.
func (t *fanTask) joinSubs(sf *subFan) {
	if sf.head == nil {
		return
	}
	t.led.ops = append(t.led.ops, ledgerOp{kind: opJoinSubs, sub: sf.head})
}

// forEachSpan invokes fn for every chunk-aligned span of the byte range
// [off, off+n): the chunk index, the intra-chunk offset, and the span's
// start/length relative to the range. It is the single source of the
// stride arithmetic shared by reads, write phases, and the
// partial-completion accounting, which must all agree span-for-span.
func forEachSpan(off, n, chunkSize int64, fn func(idx, within, start, take int64)) {
	for done := int64(0); done < n; {
		idx := (off + done) / chunkSize
		within := (off + done) % chunkSize
		take := chunkSize - within
		if take > n-done {
			take = n - done
		}
		fn(idx, within, done, take)
		done += take
	}
}

// fanPrefixBytes reports how many bytes the first k chunk-striped tasks of
// an operation starting at off for want bytes covered — the deterministic
// partial-completion count reported when a read fan fails mid-stripe.
func fanPrefixBytes(off, want, chunkSize int64, k int) int64 {
	var n int64
	i := 0
	forEachSpan(off, want, chunkSize, func(_, _, start, take int64) {
		if i < k {
			n = start + take
		}
		i++
	})
	return n
}
