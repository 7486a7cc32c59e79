package blob

import (
	"fmt"
	"sort"
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
//     dispatch pool. Every copy ends in installChunk, the same logged
//     install repair and resync use, and a stray holder drops its copy
//     (RecChunkDelete) only after an owner's install has returned — so each
//     record is self-contained and a crash after ANY of them leaves every
//     chunk on some server.
//  4. RecMigrateEnd closes the intent. A crash before the End record
//     replays an open intent and resumeMigration re-runs the reconcile
//     sweep, which is idempotent: placement already consistent means an
//     empty plan.
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
// when its token budget is exhausted; each tick refills
// Config.MigrationRateBytes.
const migrationTick = time.Millisecond

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

// RemoveServer drains a server: its ring membership is dropped, all data it
// held primary-or-replica responsibility for is re-replicated onto the
// surviving owners in throttled, crash-safe batches, and its local state —
// memory AND log lanes — is cleared, so a later Recover or rejoin cannot
// resurrect pre-drain placement.
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
func (s *Store) serving(node int) bool {
	for _, m := range s.ring.Members() {
		if m == node {
			return true
		}
	}
	return false
}

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
	s.migrating.Add(1)
	defer s.migrating.Add(-1)
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

// resumeMigration rolls an interrupted migration forward: Recover calls it
// once every server has been recovered and an open intent was replayed. If
// the crash preceded the epoch bump the reconcile sweep finds placement
// already consistent and the intent is simply closed; the drain of a
// removed node is likewise skipped when the ring still contains it.
func (s *Store) resumeMigration(ctx *storage.Context) {
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	intent := s.migIntent.Load()
	if intent == nil {
		return
	}
	if intent.seq > s.migSeq {
		s.migSeq = intent.seq
	}
	s.migrating.Add(1)
	defer s.migrating.Add(-1)
	s.runMigration(ctx)
	s.finishMigration(ctx, intent)
}

// finishMigration drains a removed node, works off the repair debt listed
// during the sweep, and durably closes the intent.
func (s *Store) finishMigration(ctx *storage.Context, intent *migrationIntent) {
	cg := s.directCharge(ctx)
	skip := -1
	if intent.op == migOpRemove && !s.serving(int(intent.node)) {
		skip = int(intent.node)
		sv := s.servers[skip]
		sv.reset()
		// Reset the drained node's log lanes along with its memory: a
		// populated log would let a later Recover or rejoin resurrect
		// pre-drain descriptors and chunks the survivors now own.
		sv.wal.ResetAll()
	}
	// Drain the debt the sweep listed for owners it left behind (fault-failed
	// installs, a source that was down) and the bits the membership change
	// orphaned. Targets still unreachable stay listed and converge when they
	// come back (Recover / SetDown(false)).
	s.Repair(ctx)
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
// MigrationRateBytes each) before the batch may proceed. One batch is in
// flight at a time, which bounds in-flight migration bytes on the pool.
func (s *Store) runMigration(ctx *storage.Context) {
	if s.observe != nil {
		// The boundary before any batch: intent durable, sweep not started.
		s.observe(Event{Kind: EventBatch, Batch: -1})
	}
	cg := s.directCharge(ctx)
	s.migrateDescriptors(&cg)
	moves := s.migrationPlan()
	budget := s.cfg.MigrationRateBytes
	for batch := 0; len(moves) > 0; batch++ {
		n, bytes := 0, 0
		for n < len(moves) && n < s.cfg.MigrationBatchChunks &&
			(n == 0 || bytes+moves[n].bytes <= migrationBatchBytes) {
			bytes += moves[n].bytes
			n++
		}
		for budget < bytes {
			cg.localCompute(migrationTick)
			budget += s.cfg.MigrationRateBytes
		}
		budget -= bytes
		s.runBatch(ctx, &cg, moves[:n])
		if s.observe != nil {
			s.observe(Event{Kind: EventBatch, Batch: batch})
		}
		moves = moves[n:]
	}
}

// migrateDescriptors reconciles descriptor placement against the current
// ring, under each blob's read latch, so a size logged here cannot land on a
// lane after a newer RecMeta: a writer needs the latch exclusively. The
// canonical object moves to a primary that holds no copy, so ops that latched
// it during the window still serialize with those that find it on the
// primary after. An owner that held it swaps it for a copy, which needs no
// record because the size is the same; every other owner gets the size
// through putDesc, logged where that changed its table. Holders outside the
// replica set drop their copy only after every owner holds one.
func (s *Store) migrateDescriptors(cg *charge) {
	lists := make([][]string, len(s.servers))
	for i, sv := range s.servers {
		if !sv.isWiped() {
			lists[i] = sv.keys()
		}
	}
	for _, key := range mergeKeys(lists) {
		owners := s.descOwners(key)
		if len(owners) == 0 {
			continue
		}
		_, d := s.canonicalDesc(key, owners)
		if d == nil {
			continue
		}
		// A delete that took the latch between probe and lock marked the
		// descriptor dead: there is nothing to hand over (a recreated blob
		// was placed natively at the current epoch), only old copies to drop.
		d.latch.RLock()
		for i := 0; i < len(owners) && !d.dead; i++ {
			sv := s.servers[owners[i]]
			sv.mu.Lock()
			cur, held := sv.blobs.get(key)
			moved := i == 0 && !held
			if moved {
				sv.blobs.put(key, d)
			} else if i > 0 && cur == d {
				sv.blobs.put(key, &descriptor{size: d.size})
			}
			sv.mu.Unlock()
			if moved || i > 0 && cur != d && sv.putDesc(key, d.size) {
				cg.metaOp(sv.node, 1)
				s.walAppendMeta(cg, sv, wal.RecMeta, key, d.size)
			}
		}
		d.latch.RUnlock()
		for i, sv := range s.servers {
			if !sv.isWiped() && !containsNode(owners, i) && sv.dropDesc(key) {
				s.walAppendMeta(cg, sv, wal.RecDelete, key, 0)
			}
		}
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

// migrationPlan scans every surviving server's chunk table and returns, in
// sorted order, the chunks whose placement disagrees with the current ring:
// an owner missing the chunk or holding a version behind the freshest
// surviving copy, or a holder outside the replica set. The plan carries no
// placement snapshot — each batch task re-surveys at execution time, so the
// same plan formulation serves fresh migrations and crash roll-forward alike.
func (s *Store) migrationPlan() []migMove {
	type chunkInfo struct {
		holders uint64
		maxVer  uint64
		bytes   int
	}
	infos := make(map[chunkID]*chunkInfo)
	for i, sv := range s.servers {
		if sv.isWiped() {
			continue
		}
		bit := uint64(1) << uint(i)
		sv.forEachChunk(func(id chunkID, data []byte, ver uint64) {
			ci := infos[id]
			if ci == nil {
				ci = &chunkInfo{}
				infos[id] = ci
			}
			ci.holders |= bit
			ci.maxVer = max(ci.maxVer, ver)
			ci.bytes = max(ci.bytes, len(data))
		})
	}
	ids := make([]chunkID, 0, len(infos))
	for id := range infos {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].less(ids[j]) })
	var moves []migMove
	for _, id := range ids {
		ci := infos[id]
		h := id.ringHash()
		var ownerBits uint64
		need := false
		for _, o := range s.ownersForHash(h) {
			ownerBits |= 1 << uint(o)
			if s.servers[o].chunkVer(h, id) < ci.maxVer {
				need = true
			}
		}
		if need || ci.holders&^ownerBits != 0 {
			moves = append(moves, migMove{id: id, h: h, bytes: ci.bytes})
		}
	}
	return moves
}

// runBatch moves one bounded batch of chunks: a batch is what the throttle
// debits and a batch event reports, nothing more — every record a task
// appends is durable and self-contained on its own.
func (s *Store) runBatch(ctx *storage.Context, cg *charge, moves []migMove) {
	fan := s.newFan()
	for _, mv := range moves {
		t := fan.task(taskFunc)
		t.fn = func(tcg *charge) error {
			s.migrateChunk(tcg, mv)
			return nil
		}
		fan.spawn(t)
	}
	fan.join(ctx)
	// Whoever the batch left behind (a faulted or wiped-then-recovered target,
	// a source that was down) goes on the work list; a dropped stray's own
	// entries went with its copy and are re-derived here from versions.
	for _, mv := range moves {
		sy := s.surveyChunk(mv.h, mv.id, nil)
		s.oweBehind(cg, mv.h, mv.id, &sy)
	}
}

// migrateChunk reconciles one chunk's replica set as a fan task: the
// highest-version surviving copy is installed on every reachable owner behind
// it, and holders outside the replica set drop theirs once an owner holds
// those bytes — installs before drops, in memory and in the logs, so a racing
// survey never loses sight of the maximum and neither does a crash. A copy
// taken before a concurrent delete or truncate is older than the version that
// op stamps, so the install guard refuses it. The source is read once, and
// every target copies that read into its own log (installChunk).
func (s *Store) migrateChunk(cg *charge, mv migMove) {
	h, id := mv.h, mv.id
	sy := s.surveyChunk(h, id, nil)
	src := sy.source(nil, true)
	if src == nil || s.faultCheck(cg, src.sv.node, cluster.FaultDiskRead) != nil {
		return // nothing readable this round: every copy stays put
	}
	c, srcVer, ok := src.sv.chunkEntry(h, id)
	if !ok {
		return // the source lost its copy meanwhile
	}
	// One source read serves every destination.
	cg.diskRead(src.sv.node, len(c.b))
	reached := false
	for i := range sy.reps {
		r := &sy.reps[i]
		if !r.owner {
			continue
		}
		if r.ver >= srcVer {
			reached = true
			continue
		}
		// A crash-wiped owner cannot take the copy (its own Recover resyncs
		// it); a soft-DOWN one receives it exactly as it receives a
		// foreground write after the placement survey.
		if r.wiped || s.faultCheck(cg, r.sv.node, cluster.FaultDiskWrite) != nil {
			continue
		}
		s.installChunk(cg, r.sv, h, id, c, srcVer)
		reached = true
	}
	// Holders outside the replica set drop their copy — but never the last
	// copy of a version no owner holds yet.
	if reached {
		s.dropStrays(cg, &sy, h, id, srcVer)
	}
}
