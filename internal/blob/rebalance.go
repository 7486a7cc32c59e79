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
		sv.mu.Lock()
		sv.blobs = make(map[string]*descriptor)
		sv.mu.Unlock()
		sv.resetChunks()
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
		s.walAppendLane(cg, sv, migLane, t, *bp, nil)
	}
	hdrPool.Put(bp)
}

// runMigration reconciles descriptors, then moves chunks in bounded batches
// throttled by a virtual-time token bucket: each batch debits its byte
// footprint, and an exhausted budget sleeps migrationTick quanta (refilling
// MigrationRateBytes each) before the batch may proceed. One batch is in
// flight at a time, which bounds in-flight migration bytes on the pool.
func (s *Store) runMigration(ctx *storage.Context) {
	if s.cfg.MigrationBatchHook != nil {
		// The boundary before any batch: intent durable, sweep not started.
		s.cfg.MigrationBatchHook(-1)
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
		if s.cfg.MigrationBatchHook != nil {
			s.cfg.MigrationBatchHook(batch)
		}
		moves = moves[n:]
	}
}

// migrateDescriptors reconciles descriptor placement against the current
// ring. Gained owners receive the canonical descriptor OBJECT (pointer
// shared, not a copy) under its read latch, so every op past and future
// serializes on one latch per blob across the handover; holders outside the
// replica set drop their copy only after every owner holds one.
func (s *Store) migrateDescriptors(cg *charge) {
	seen := make(map[string]bool)
	for _, sv := range s.servers {
		if sv.isWiped() {
			continue
		}
		sv.mu.RLock()
		for key := range sv.blobs {
			seen[key] = true
		}
		sv.mu.RUnlock()
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		owners := s.descOwners(key)
		if len(owners) == 0 {
			continue
		}
		_, d := s.canonicalDesc(key, owners)
		if d == nil {
			continue
		}
		d.latch.RLock()
		// Re-resolve under the latch: DeleteBlob holds it exclusively for
		// the whole drop, so a pointer mismatch here means the blob was
		// deleted (or deleted and recreated, in which case the new copy was
		// placed natively at the current epoch) between probe and lock.
		if _, cur := s.canonicalDesc(key, owners); cur != d {
			d.latch.RUnlock()
			continue
		}
		size := d.size
		for _, o := range owners {
			sv := s.servers[o]
			sv.mu.Lock()
			_, held := sv.blobs[key]
			if !held {
				sv.blobs[key] = d
			}
			sv.mu.Unlock()
			if !held {
				cg.metaOp(sv.node, 1)
				// Logged under the read latch: a concurrent writer needs
				// the latch exclusively to change the size, so the size
				// recorded here cannot interleave with a newer RecMeta on
				// this server's lane in the wrong order.
				s.walAppendMeta(cg, sv, wal.RecCreate, key, size)
				traceStep(traceEvent{what: "descInstall", node: sv.node, key: key})
			}
		}
		d.latch.RUnlock()
		for i, sv := range s.servers {
			if sv.isWiped() || containsNode(owners, i) {
				continue
			}
			sv.mu.Lock()
			_, held := sv.blobs[key]
			if held {
				delete(sv.blobs, key)
			}
			sv.mu.Unlock()
			if held {
				s.walAppendMeta(cg, sv, wal.RecDelete, key, 0)
				traceStep(traceEvent{what: "descDrop", node: sv.node, key: key})
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

// migCopy is one install a chunk's migration task made: what revalidateBatch
// needs to find it again.
type migCopy struct {
	sv  *server
	ver uint64
	n   int // bytes installed
}

// runBatch moves one bounded batch of chunks: a batch is what the throttle
// debits and the hook observes, nothing more — every record a task appends is
// durable and self-contained on its own.
func (s *Store) runBatch(ctx *storage.Context, cg *charge, moves []migMove) {
	copies := make([][]migCopy, len(moves))
	fan := s.newFan()
	for i := range moves {
		t := fan.task(taskFunc)
		t.fn = func(tcg *charge) error {
			copies[i] = s.migrateChunk(tcg, moves[i])
			return nil
		}
		fan.spawn(t)
	}
	fan.join(ctx)
	s.revalidateBatch(cg, moves, copies)
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
// survey never loses sight of the maximum and neither does a crash.
func (s *Store) migrateChunk(cg *charge, mv migMove) []migCopy {
	h, id := mv.h, mv.id
	sy := s.surveyChunk(h, id, nil)
	src := sy.source(nil, true)
	if src == nil || s.faultCheck(cg, src.sv.node, cluster.FaultDiskRead) != nil {
		return nil // nothing readable this round: every copy stays put
	}
	data, srcVer, ok := src.sv.copyChunk(h, id)
	if !ok {
		return nil // raced a concurrent delete
	}
	// One source read serves every destination.
	cg.diskRead(src.sv.node, len(data))
	var copies []migCopy
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
		// Each target owns its slice: applyChunk writes in place.
		if _, installed := s.installChunk(cg, r.sv, h, id, append([]byte(nil), data...), srcVer); installed {
			copies = append(copies, migCopy{sv: r.sv, ver: srcVer, n: len(data)})
		}
		reached = true
	}
	// Holders outside the replica set drop their copy — but never the last
	// copy of a version no owner holds yet.
	for i := range sy.reps {
		if r := &sy.reps[i]; !r.owner && reached && r.ver <= srcVer {
			s.dropChunk(cg, r.sv, h, id)
		}
	}
	return copies
}

// revalidateBatch re-checks each installed chunk against its blob's current
// extent once the batch's tasks have joined. The copy source may have been a
// holder that missed a concurrent DeleteBlob or TruncateBlob (those fan out to
// the owners of record, and a stray holder is no longer one), so an install
// can resurrect bytes past the blob's end; the fix-ups here are logged plainly
// (RecChunkDelete / RecChunkTruncate) so replay converges to the same state.
func (s *Store) revalidateBatch(cg *charge, moves []migMove, copies [][]migCopy) {
	for i, mv := range moves {
		if len(copies[i]) == 0 {
			continue
		}
		h, id := mv.h, mv.id
		_, d, err := s.primaryDesc(id.key)
		keep := int64(0)
		if err == nil {
			d.latch.RLock()
			size := d.size
			d.latch.RUnlock()
			keep = size - id.idx*int64(s.cfg.ChunkSize)
		}
		if keep >= int64(s.cfg.ChunkSize) {
			continue
		}
		// Touch the installs we made, and only those: the version check skips
		// chunks a newer write has since replaced.
		for _, c := range copies[i] {
			if c.sv.chunkVer(h, id) != c.ver {
				continue
			}
			if keep <= 0 {
				// Blob deleted (or truncated away) while the copy was in flight.
				s.dropChunk(cg, c.sv, h, id)
			} else if int64(c.n) > keep {
				c.sv.trimChunk(h, id, keep)
				s.walAppendChunk(cg, c.sv, wal.RecChunkTruncate, h, id, keep, 0, nil)
			}
		}
	}
}
