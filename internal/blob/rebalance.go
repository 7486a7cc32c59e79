package blob

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Membership management: servers can join and leave the store at runtime,
// under live traffic. The consistent-hash ring keeps movement minimal (only
// keys whose replica set actually changed migrate), which is the operational
// argument for hash-placed object stores over directory-partitioned file
// systems.
//
// A membership change is an epoch-versioned, incremental, crash-safe
// migration (see the "Membership and elasticity semantics" section of the
// package doc):
//
//  1. A durable intent (RecMigrateBegin) is appended to every surviving
//     server's log BEFORE the ring mutates — the ARIES-style record that
//     lets Recover roll an interrupted migration forward.
//  2. The ring mutates under the member gate, so the epoch flip is atomic
//     with respect to in-flight foreground ops.
//  3. A reconcile sweep moves chunks in bounded, throttled batches on the
//     dispatch pool. Every chunk goes through reconcileChunk, the same move
//     repair and resync use: the freshest live copy is installed on each
//     owner behind it, and a holder outside the replica set — the drained
//     node included — drops its copy (RecChunkDelete) only after an owner's
//     install has returned, so each record is self-contained and a crash
//     after ANY of them leaves every chunk on some server.
//  4. RecMigrateEnd closes the intent once a drained node holds nothing; its
//     lanes are reset then, and not before. Until then the intent stays open
//     and Recover or SetDown(_, false) re-runs the sweep (resumeMigration),
//     which is idempotent: placement already consistent means an empty
//     plan.
//
// The sweep is formulated as reconciliation against the CURRENT ring (owners
// missing or behind the freshest surviving copy receive it; holders outside
// the replica set drop theirs) rather than an old-vs-new ownership diff.
// That one formulation serves the live sweep, the crash roll-forward (where
// the pre-crash progress is unknown), and repeated resumption.

// ErrLastServer is returned when removal would empty the store.
var ErrLastServer = fmt.Errorf("blob: cannot remove the last server: %w", storage.ErrInvalidArg)

// migLane is the log lane carrying migration intents. Lane 0 always exists
// (Config.WALLanes >= 1).
const migLane = 0

// migrationBatchBytes bounds a batch by payload volume on top of
// Config.MigrationBatchChunks: a batch closes once its source bytes reach
// this cap (a single larger chunk still forms a one-chunk batch). At most one
// batch is in flight, so this is the bound on in-flight migration bytes.
const migrationBatchBytes = 1 << 20

// migrationTick is the virtual-time quantum the migration throttle sleeps
// when its token budget is exhausted; each tick refills Store.migrationRate,
// migrationRateBytes unless a test changed it.
const migrationTick, migrationRateBytes = time.Millisecond, 8 << 20

// AddServer joins a previously unused cluster node to the store and
// rebalances incrementally: every descriptor and chunk whose new replica
// set includes the node is copied there in throttled, crash-safe batches;
// replicas dropped from a set are deleted. Foreground traffic keeps
// running throughout — a join is a background reconcile, not a freeze.
func (s *Store) AddServer(ctx *storage.Context, node cluster.NodeID) error {
	if int(node) < 0 || int(node) >= len(s.servers) {
		return fmt.Errorf("blob: no node %d: %w", node, storage.ErrInvalidArg)
	}
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	if s.serving(int(node)) {
		return fmt.Errorf("blob: node %d already serving: %w", node, storage.ErrExists)
	}
	return s.runMembershipChange(ctx, migOpAdd, node)
}

// RemoveServer drains a server: its ring membership is dropped and every
// descriptor and chunk it held is re-replicated onto the surviving owners in
// throttled, crash-safe batches, while its own copies go through the same
// logged drops as any stray's. Once it holds nothing its log lanes are reset,
// so a later Recover or rejoin finds nothing to resurrect; a copy no owner
// can take yet (every owner faulted or down, or the node crashed) keeps the
// migration intent open until Recover or SetDown(_, false) finishes it.
func (s *Store) RemoveServer(ctx *storage.Context, node cluster.NodeID) error {
	if int(node) < 0 || int(node) >= len(s.servers) {
		return fmt.Errorf("blob: no node %d: %w", node, storage.ErrInvalidArg)
	}
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	if !s.serving(int(node)) {
		return fmt.Errorf("blob: node %d not serving: %w", node, storage.ErrNotFound)
	}
	if s.ring.Size() <= 1 {
		return ErrLastServer
	}
	return s.runMembershipChange(ctx, migOpRemove, node)
}

// serving reports whether node is currently in the ring.
func (s *Store) serving(node int) bool { return containsNode(s.ring.Members(), node) }

// ServingNodes returns the nodes currently in the ring, ascending.
func (s *Store) ServingNodes() []cluster.NodeID {
	members := s.ring.Members()
	out := make([]cluster.NodeID, len(members))
	for i, m := range members {
		out[i] = cluster.NodeID(m)
	}
	return out
}

// runMembershipChange executes one join or drain end to end. The caller
// holds migrateMu, so the ring epoch is stable for the sweep's duration.
func (s *Store) runMembershipChange(ctx *storage.Context, op uint8, node cluster.NodeID) error {
	s.migSeq++
	intent := &migrationIntent{seq: s.migSeq, op: op, node: int64(node)}
	cg := s.directCharge(ctx)
	// Durable intent before any state changes: a crash at ANY later point
	// replays an open RecMigrateBegin and rolls the migration forward.
	s.logIntent(&cg, wal.RecMigrateBegin, intent, -1)
	s.migIntent.Store(intent)
	// The epoch flip: exclusive on the member gate for an instant, so every
	// foreground op lands entirely on the old owner sets or entirely on the
	// new — never half and half.
	s.member.Lock()
	if op == migOpAdd {
		s.ring.Add(int(node))
	} else {
		s.ring.Remove(int(node))
	}
	s.member.Unlock()
	s.runMigration(ctx)
	s.finishMigration(ctx, intent)
	return nil
}

// resumeMigration rolls an open intent forward: an interrupted migration
// replayed by Recover, or a drain whose node still held a copy. It runs once
// no server is wiped — its unreplayed state must not be reconciled around —
// and not while a membership change runs: that one closes the intent itself
// or leaves it to the next Recover or up-flip.
// If the crash preceded the epoch bump the reconcile sweep finds placement
// already consistent and the intent is simply closed; the drain of a removed
// node is likewise skipped when the ring still contains it.
func (s *Store) resumeMigration(ctx *storage.Context) {
	for _, sv := range s.servers {
		if sv.isWiped() {
			return
		}
	}
	if s.migIntent.Load() == nil || !s.migrateMu.TryLock() {
		return
	}
	defer s.migrateMu.Unlock()
	intent := s.migIntent.Load()
	if intent == nil {
		return
	}
	s.migSeq = max(s.migSeq, intent.seq)
	s.runMigration(ctx)
	s.finishMigration(ctx, intent)
}

// finishMigration works off the repair debt listed during the sweep, then
// durably closes the intent — unless a drained node still holds an entry or
// is crash-wiped. Its lanes are reset only once it holds nothing, so a reset
// can never take the last copy of a version; until then the intent stays
// open for resumeMigration.
func (s *Store) finishMigration(ctx *storage.Context, intent *migrationIntent) {
	// Drain the debt the sweep listed for owners it left behind (fault-failed
	// installs, a source that was down) and the bits the membership change
	// orphaned. Targets still unreachable stay listed and converge when they
	// come back (Recover / SetDown(false)).
	s.Repair(ctx)
	skip := -1
	if intent.op == migOpRemove && !s.serving(int(intent.node)) {
		skip = int(intent.node)
		sv := s.servers[skip]
		if !sv.holdsNothing() {
			return
		}
		// No entry is left to view the retired backing: it goes back to
		// the node's free list for the next join to reuse.
		sv.wal.ResetAll()
		for lane := range sv.wal.Lanes() {
			sv.wal.Recycle(lane)
		}
	}
	cg := s.directCharge(ctx)
	s.logIntent(&cg, wal.RecMigrateEnd, intent, skip)
	s.migIntent.Store(nil)
}

// logIntent appends a RecMigrateBegin/RecMigrateEnd record to every
// surviving server's migration lane (skip excludes a just-drained node
// whose freshly reset log must not reopen the intent).
func (s *Store) logIntent(cg *charge, t wal.RecordType, intent *migrationIntent, skip int) {
	bp := hdrPool.Get().(*[]byte)
	*bp = appendMigrateIntent((*bp)[:0], intent.seq, intent.op, intent.node)
	for i, sv := range s.servers {
		if i == skip || sv.isWiped() {
			continue
		}
		s.walAppendLane(cg, sv, migLane, t, *bp, nil, 0)
	}
	hdrPool.Put(bp)
}

// runMigration reconciles descriptors, then moves chunks in bounded batches
// throttled by a virtual-time token bucket: each batch debits its byte
// footprint, and an exhausted budget sleeps migrationTick quanta (refilling
// Store.migrationRate each) before the batch may proceed. One batch is in
// flight at a time, which bounds in-flight migration bytes on the pool.
func (s *Store) runMigration(ctx *storage.Context) {
	if s.observe != nil {
		// The boundary before any batch: intent durable, sweep not started.
		s.observe(Event{Kind: EventBatch, Batch: -1})
	}
	cg := s.directCharge(ctx)
	s.reconcileDescs(&cg, nil)
	moves := s.migrationPlan()
	budget := s.migrationRate
	for batch := 0; len(moves) > 0; batch++ {
		n, bytes := 0, 0
		for n < len(moves) && n < s.cfg.MigrationBatchChunks &&
			(n == 0 || bytes+moves[n].bytes <= migrationBatchBytes) {
			bytes += moves[n].bytes
			n++
		}
		for budget < bytes {
			cg.localCompute(migrationTick)
			budget += s.migrationRate
		}
		budget -= bytes
		// A batch is what the throttle debits and a batch event reports,
		// nothing more: every record a task appends is durable and
		// self-contained, and each task lists whoever it left behind.
		fan := s.newFan()
		for _, mv := range moves[:n] {
			t := fan.task(taskFunc)
			t.fn = func(tcg *charge) error {
				s.reconcileChunk(tcg, mv.h, mv.id, scope{owed: ^uint64(0), drop: true})
				return nil
			}
			fan.spawn(t)
		}
		fan.join(ctx)
		if s.observe != nil {
			s.observe(Event{Kind: EventBatch, Batch: batch})
		}
		moves = moves[n:]
	}
}

func containsNode(owners []int, node int) bool {
	for _, o := range owners {
		if o == node {
			return true
		}
	}
	return false
}

// migMove is one chunk the reconcile sweep must touch.
type migMove struct {
	id    chunkID
	h     uint64
	bytes int
}

// migrationPlan returns the chunks whose placement disagrees with the current
// ring: an owner missing the chunk or not at its holders' highest version, or
// a holder outside the replica set. The plan carries no placement snapshot —
// each batch task surveys at execution time, so the same plan formulation
// serves fresh migrations and crash roll-forward alike. That survey is also
// why the versions the fold listed are enough: the plan is advisory, and
// reconcileChunk decides from what it finds then.
func (s *Store) migrationPlan() []migMove {
	return s.chunkPlan(func(h, holders, atMax uint64) bool {
		for _, o := range s.ownersForHash(h) {
			if atMax&(1<<uint(o)) == 0 {
				return true
			}
			holders &^= 1 << uint(o)
		}
		return holders != 0
	})
}

// chunkPlan returns, sorted by chunk ID, a move for every chunk some server
// holds that keep selects, given its placement hash, the bitmask of its
// holders and the bitmask of those at their highest version; a move carries
// its largest copy's size for the throttle. A crash-wiped server holds
// nothing.
//
// A chunk's replicas sit in the same stripe on every server (the stripe is
// picked by its placement hash), so the plan is one parallelDo job per
// stripe, each folding that stripe of every server, one stripe lock at a
// time, through the stripe's index and fold slice, and running keep once per
// chunk. Only the kept moves are sorted. The fold storage lives in the
// planner across plans, so a warm plan allocates its job and its moves and
// nothing per chunk. Call it from a caller, never a pool task.
func (s *Store) chunkPlan(keep func(h, holders, atMax uint64) bool) []migMove {
	p := &s.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.foldFn == nil {
		p.foldFn = func(j int) { p.stripes[j].fold(s.servers, j, p.keep) }
	}
	p.keep = keep
	parallelDo(chunkStripes, p.foldFn)
	p.keep = nil
	n := 0
	for j := range p.stripes {
		n += len(p.stripes[j].kept)
	}
	moves := make([]migMove, 0, n)
	for j := range p.stripes {
		ps := &p.stripes[j]
		moves = append(moves, ps.kept...)
		clear(ps.kept)
		ps.kept = ps.kept[:0]
	}
	slices.SortFunc(moves, func(a, b migMove) int { return a.id.cmp(b.id) })
	return moves
}

// chunkPlanner is chunkPlan's storage, kept across plans. mu serializes the
// plans: a membership change's (under migrateMu) and Recover's resync.
type chunkPlanner struct {
	mu      sync.Mutex
	keep    func(h, holders, atMax uint64) bool // the running plan's
	foldFn  func(j int)                         // folds stripe j with keep; built once
	stripes [chunkStripes]planStripe
}

// planStripe folds one chunk stripe across the servers: index finds a
// chunk's fold, folds holds one per chunk and kept the moves keep chose.
// All three are emptied after each plan and keep their storage.
type planStripe struct {
	index map[chunkID]int32
	folds []chunkFold
	kept  []migMove
}

// chunkFold is one chunk folded across its replicas: who holds it, who
// holds it at the highest version, that version, and its largest size.
type chunkFold struct {
	id             chunkID
	holders, atMax uint64
	max            uint64
	bytes          int
}

// fold folds stripe j of every server, then keeps each chunk keep selects.
func (ps *planStripe) fold(servers []*server, j int, keep func(h, holders, atMax uint64) bool) {
	if ps.index == nil {
		ps.index = make(map[chunkID]int32)
	}
	for i, sv := range servers {
		bit := uint64(1) << uint(i)
		st := &sv.stripes[j]
		st.mu.RLock()
		for id, c := range st.m {
			k, ok := ps.index[id]
			if !ok {
				k = int32(len(ps.folds))
				ps.index[id] = k
				//blobvet:allow virtualtime chunkPlan sorts the kept moves by chunk ID before any caller walks them
				ps.folds = append(ps.folds, chunkFold{id: id})
			}
			f := &ps.folds[k]
			f.holders |= bit
			switch ver := st.ver[id]; {
			case ver > f.max:
				f.max, f.atMax = ver, bit
			case ver == f.max:
				f.atMax |= bit
			}
			f.bytes = max(f.bytes, len(c.b))
		}
		st.mu.RUnlock()
	}
	for i := range ps.folds {
		f := &ps.folds[i]
		if h := f.id.ringHash(); keep(h, f.holders, f.atMax) {
			ps.kept = append(ps.kept, migMove{id: f.id, h: h, bytes: f.bytes})
		}
	}
	clear(ps.index)
	clear(ps.folds)
	ps.folds = ps.folds[:0]
}
