package blob

import (
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// repair.go — the one chunk move and its work list, and the one descriptor
// move (reconcileDesc), which needs no list. reconcileChunk is the
// only way a chunk's bytes go from one replica to another: it surveys once,
// reads the freshest live copy once for every reachable owner in scope that
// sits behind it (installChunk), drops the strays an owner's version now
// covers (dropStrays), clears the debt that was paid and lists whoever is
// still behind (oweBehind). The debt table (debt.go) names the replicas
// known to be behind; it exists so the store knows it is not clean and where
// the work is. Three work sources feed the reconcile and differ only in its
// scope:
//
//   - the debt list (Repair): a degraded write lists the owners it excluded;
//     an owner's bit clears once it is seen at the version the entry needs.
//   - the rejoin candidates (resyncNode): a crash can tear a WAL lane tail and
//     drop acknowledged writes, deletes and truncates, so Recover compares
//     versions with the live peers BEFORE marking the node up, pulls what is
//     newer and lists whoever is left behind. A node that replays a chunk its
//     peers dropped holds an older version than their tombstone, so it
//     simply pulls the tombstone.
//   - the ring diff (rebalance.go), which throttles its chunks in batches. A
//     drained node is just a holder outside the ring: its copies go through
//     the same logged drops as any stray's.
//
// Repair and the sweep's chunk batches run on the dispatch pool as ordinary
// fan tasks and obey the dispatch.go contract: stripe locks and WAL appends
// only (short-hold / bounded-wait), never a key latch, never a nested pool
// wait. Resync and the handover run on their caller; only their descriptor
// pass, reconcileDesc, latches.

// repairItem is one chunk's outstanding debt restricted to the targets a
// repair round will service.
type repairItem struct {
	id   chunkID
	mask uint64
}

// Repair drains every outstanding repair-debt entry whose owed node is
// currently live, returning the number of per-chunk repair tasks that made
// progress. Debt owed to still-down nodes remains until they rejoin
// (SetDown / Recover run the drain automatically).
func (s *Store) Repair(ctx *storage.Context) int {
	return s.repairDrain(ctx, cluster.NodeID(-1))
}

// repairDrain is the drain loop. only < 0 services every owed node; otherwise
// only that node's bit (a writer whose excluded owner rejoined mid-write).
// Each round fans the collected items across the worker pool and re-collects;
// it terminates when a round finds no debt or clears nothing (progress is
// required so an unreachable target — down again, faulted, or behind a
// source that is down — cannot spin the loop). A writer's drain during a
// migration leaves strays to the sweep, which drops them itself, so the
// write pays only for its own catch-up; every other drain drops them.
func (s *Store) repairDrain(ctx *storage.Context, only cluster.NodeID) int {
	total := 0
	for {
		work := s.debt.list(only)
		if len(work) == 0 {
			return total
		}
		drop := only < 0 || s.migIntent.Load() == nil
		var progressed atomic.Int64
		fan := s.newFan()
		for _, w := range work {
			w := w
			t := fan.task(taskFunc)
			t.fn = func(cg *charge) error {
				if s.reconcileChunk(cg, w.id.ringHash(), w.id, scope{owed: w.mask, drop: drop, count: "blob.repair"}) {
					progressed.Add(1)
				}
				return nil
			}
			fan.spawn(t)
		}
		fan.join(ctx)
		if progressed.Load() == 0 {
			return total
		}
		total += int(progressed.Load())
	}
}

// scope is what one reconcileChunk may do; the work sources differ only here.
type scope struct {
	// owed names the owners to bring up and whose debt bits to clear. A bit
	// naming a non-owner was orphaned by a membership change and clears
	// outright. The sweep passes every bit.
	owed uint64
	// down lets a soft-down owner take the copy: the rejoining node, which
	// Recover marks up only after its resync.
	down  bool
	drop  bool   // drop the strays an owner's version covers
	count string // counter prefix for installs (kind.chunks/.bytes), "" for none
}

// reconcileChunk is the one chunk move. From one survey it
//
//  1. reads the freshest live copy once and installs it on every owner in
//     scope behind it that can take it — not crash-wiped, not write-faulted,
//     up unless the scope says otherwise;
//  2. then drops every stray at or below the highest version an owner holds;
//  3. clears each owed bit the survey shows paid (debtTable.settle) — none
//     of an owner while a stray copy survives;
//  4. lists every owner still behind (oweBehind).
//
// The source is snapshotted under its stripe RLock and installed under each
// target's, never both at once: the version guard at install keeps a racing
// writer's newer data, and a copy taken before a concurrent delete or
// truncate is older than the version that op stamps. Owners are resolved at
// execution time, so a membership change between a work source's listing and
// this call needs no other coordination. Reports whether anything was
// installed or cleared.
func (s *Store) reconcileChunk(cg *charge, h uint64, id chunkID, sc scope) bool {
	var buf [8]replica
	sy := s.surveyChunk(h, id, buf[:])
	progress := false
	if src := sy.source(); src != nil && s.faultCheck(cg, src.sv.node, cluster.FaultDiskRead) == nil {
		if c, ver, ok := src.sv.chunkEntry(h, id); ok {
			read := false
			for i := range sy.reps {
				r := &sy.reps[i]
				if !r.owner || sc.owed&r.bit() == 0 || r.ver >= ver || r.wiped || !r.live && !sc.down ||
					s.faultCheck(cg, r.sv.node, cluster.FaultDiskWrite) != nil {
					continue
				}
				if !read {
					cg.diskRead(src.sv.node, len(c.b)) // one read serves every target
					read = true
				}
				var installed bool
				if r.ver, installed = s.installChunk(cg, r.sv, h, id, c, ver); installed {
					progress = true
					if sc.count != "" {
						s.metrics.Counter(sc.count + ".chunks").Inc()
						s.metrics.Counter(sc.count + ".bytes").Add(int64(len(c.b)))
					}
				}
			}
			src.ver = max(src.ver, ver) // a racing write may have moved it since the survey
			sy.max = max(sy.max, ver)
		}
	}
	if sc.drop {
		var reached uint64
		for i := range sy.reps {
			if r := &sy.reps[i]; r.owner {
				reached = max(reached, r.ver)
			}
		}
		s.dropStrays(cg, &sy, h, id, reached)
	}
	if s.debt.settle(h, id, &sy, sc.owed) {
		progress = true
	}
	s.oweBehind(h, id, &sy)
	return progress
}

// oweBehind lists every non-wiped owner the survey found behind as repair
// debt at the survey's maximum. This is work-list completeness — a replica
// that may not serve is named by some entry, so the store never looks clean
// around it. A concurrent writer can make a peer look transiently behind;
// the spurious bit clears at the next repair pass.
func (s *Store) oweBehind(h uint64, id chunkID, sy *chunkSurvey) {
	behind, _ := sy.behind()
	s.debt.record(h, id, behind, sy.max)
}

// resyncNode converges the still-down sv with its peers, descriptors first
// (reconcileDescs scoped to sv), then every chunk resyncPlan lists, through
// reconcileChunk scoped to sv: pull what a peer holds newer, list whoever is
// then behind. Recover runs this after replaying sv's log and BEFORE marking
// sv up: the merged-replay prefix contract discards everything behind a torn
// lane tail, including acknowledged writes, size changes and deletes, and
// version comparison is the only witness left. It runs both ways — sv's replayed version is
// authoritative for what it holds (a record is only logged for an applied
// mutation), so a peer behind it missed mutations.
//
// Quiescence is NOT required: sv is still down, so writers neither read nor
// update its copies beyond the retained-memory applies, and those only move
// versions forward — the same monotonic guard the install uses.
func (s *Store) resyncNode(sv *server) {
	cg := s.directCharge(storage.NewContext())
	s.reconcileDescs(&cg, sv)
	me := int(sv.node)
	for _, mv := range s.resyncPlan(me) {
		s.reconcileChunk(&cg, mv.h, mv.id, scope{owed: 1 << uint(me), down: true, drop: true, count: "blob.resync"})
	}
}

// resyncPlan lists every chunk node me owns that any server holds. It does
// not compare versions: each reconcileChunk surveys the chunk when it runs,
// and the plan, like the sweep's, is only where to look.
func (s *Store) resyncPlan(me int) []migMove {
	return s.chunkPlan(func(h, _, _ uint64) bool { return containsNode(s.ownersForHash(h), me) })
}

// reconcileDescs runs reconcileDesc, in key order, over every key any server
// holds a descriptor copy of, a tombstone included: for the handover (to nil)
// every key, for the rejoin of to only the keys it owns.
func (s *Store) reconcileDescs(cg *charge, to *server) {
	lists := make([][]string, len(s.servers))
	for i, sv := range s.servers {
		lists[i] = sv.keys()
	}
	for _, key := range mergeKeys(lists) {
		if to == nil || containsNode(s.descOwners(key), int(to.node)) {
			s.reconcileDesc(cg, key, to)
		}
	}
}

// reconcileDesc is the one descriptor move, reconcileChunk's counterpart.
// Under key's read latch, so no create, size change or delete lands in
// between, it takes the freshest copy (freshestDesc; there is no descriptor
// debt list to wait on, so a soft-down holder's counts as a source) and puts
// it, through putDesc's version guard, on every owner behind it: for the
// handover every owner, crash-wiped ones included, whose logs then carry it;
// for the rejoin of to, to and the owners not wiped. The handover then drops
// the copies outside the owner set, which every owner has covered.
func (s *Store) reconcileDesc(cg *charge, key string, to *server) {
	s.lockKey(key, false)
	defer s.unlockKey(key, false)
	d, ok := s.freshestDesc(key)
	if !ok {
		return
	}
	owners := s.descOwners(key)
	for _, o := range owners {
		if sv := s.servers[o]; (to == nil || sv == to || !sv.isWiped()) && sv.putDesc(key, d) {
			cg.metaOp(sv.node, 1)
			s.walAppendMeta(cg, sv, key, d)
		}
	}
	for i, sv := range s.servers {
		if to == nil && !containsNode(owners, i) && sv.dropDesc(key) {
			s.walAppendMeta(cg, sv, key, descriptor{})
		}
	}
}
