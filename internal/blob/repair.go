package blob

import (
	"sort"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wal"
)

// repair.go — the repair work list. Debt entries (RecRepairNeeded, a per-chunk
// bitmask of owners on each holder) name the replicas known to be behind; they
// decide nothing about freshness (survey.go does, from versions alone) and
// exist so the store knows it is not clean and where the work is. Three
// generators feed the same pull (pullChunk: survey, snapshot the best live
// source, version-guarded installChunk):
//
//   - debt entries (Repair): a degraded write lists, on every
//     owner that applied it, the owners it excluded. An entry for target T on
//     holder H clears once ver(T) ≥ ver(H).
//   - the rejoin sweep (resyncNode): a crash can tear a WAL lane tail and drop
//     acknowledged writes — and the debt records naming them — so Recover
//     compares versions with the live peers BEFORE marking the node up, pulls
//     what is newer, and lists whoever is left behind (oweBehind).
//   - the ring diff (rebalance.go), which throttles its installs in batches.
//
// All run on the dispatch pool as ordinary fan tasks and obey the dispatch.go
// contract: stripe locks and WAL appends only (short-hold / bounded-wait),
// never the per-blob descriptor latch, never a nested pool wait.

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
// only that node's bit (a writer whose excluded owner rejoined mid-write),
// ending early if that node goes down again. Each round fans the collected
// items across the worker pool and re-collects; it terminates when a round
// finds no debt or clears nothing (progress is required so an unreachable
// target cannot spin the loop).
func (s *Store) repairDrain(ctx *storage.Context, only cluster.NodeID) int {
	total := 0
	for {
		if only >= 0 && s.servers[int(only)].isDown() {
			return total
		}
		work := s.collectDebt(only)
		if len(work) == 0 {
			return total
		}
		var progressed atomic.Int64
		fan := s.newFan()
		for _, w := range work {
			w := w
			t := fan.task(taskFunc)
			t.fn = func(cg *charge) error {
				if s.repairChunk(cg, w.id, w.mask) {
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

// collectDebt unions the per-chunk debt masks across every server (a mask
// may sit on a drained node or a stray holder), restricts them to the one
// node asked for, and returns the items sorted for deterministic fan
// submission.
func (s *Store) collectDebt(only cluster.NodeID) []repairItem {
	union := make(map[chunkID]uint64)
	for _, sv := range s.servers {
		sv.forEachDebt(func(id chunkID, mask uint64) {
			union[id] |= mask
		})
	}
	items := make([]repairItem, 0, len(union))
	for id, mask := range union {
		if only >= 0 {
			mask &= 1 << uint(only)
		}
		if mask != 0 {
			items = append(items, repairItem{id: id, mask: mask})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].id.less(items[j].id) })
	return items
}

// repairChunk services one chunk's owed targets: pull the best live copy
// onto each live owner named, then clear its bit on every holder it caught
// up with. A bit naming a non-owner was orphaned by a membership change —
// that node will never serve the chunk — and clears outright. Owners are
// resolved here, at execution time, so a membership change between collection
// and this task needs no other coordination. Reports whether anything
// changed; a target whose only newer source is down makes no progress, which
// is what stops the drain loop.
func (s *Store) repairChunk(cg *charge, id chunkID, owed uint64) bool {
	h := id.ringHash()
	sy := s.surveyChunk(h, id, nil)
	progress := false
	for node, sv := range s.servers {
		bit := uint64(1) << uint(node)
		if owed&bit == 0 {
			continue
		}
		upTo := anyVer // a non-owner's bit clears whatever the holder's version
		if t := sy.find(sv); t != nil && t.owner {
			if !t.live {
				continue
			}
			var installed bool
			if upTo, installed = s.pullChunk(cg, &sy, t, h, id, "blob.repair"); installed {
				progress = true
			}
		}
		for _, holder := range s.servers {
			if s.clearDebt(cg, holder, h, id, bit, upTo) {
				progress = true
			}
		}
	}
	return progress
}

// pullChunk brings the surveyed replica me up to the best live copy the
// survey found: the source is snapshotted under its stripe RLock, installed
// under the target's stripe lock, and the two are never held together — the
// version guard at install, not lock coverage, keeps a racing writer's newer
// data. The survey is updated with what the copy saw. Returns me's version
// afterwards and whether bytes went in (counted under kind.chunks/.bytes).
func (s *Store) pullChunk(cg *charge, sy *chunkSurvey, me *replica, h uint64, id chunkID, kind string) (uint64, bool) {
	src := sy.source(me.sv, false)
	if src == nil || src.ver <= me.ver ||
		s.faultCheck(cg, src.sv.node, cluster.FaultDiskRead) != nil ||
		s.faultCheck(cg, me.sv.node, cluster.FaultDiskWrite) != nil {
		return me.ver, false
	}
	data, ver, ok := src.sv.copyChunk(h, id)
	if !ok {
		return me.ver, false
	}
	cg.diskRead(src.sv.node, len(data))
	var installed bool
	if me.ver, installed = s.installChunk(cg, me.sv, h, id, data, ver); installed {
		s.metrics.Counter(kind + ".chunks").Inc()
		s.metrics.Counter(kind + ".bytes").Add(int64(len(data)))
	}
	src.ver = max(src.ver, ver)
	sy.max = max(sy.max, ver)
	return me.ver, installed
}

// recordDebt merges owed into the chunk's debt mask on sv and logs the
// updated mask durably (RecRepairNeeded, full-mask overwrite semantics).
// Mask update and log append happen under the stripe lock so the mask
// history in the log matches the in-memory ordering; the nesting is stripe
// lock → lane log mutex → buffer mutex, and the log side is a leaf.
func (s *Store) recordDebt(cg *charge, sv *server, h uint64, id chunkID, owed uint64) {
	st := sv.stripe(h)
	st.mu.Lock()
	mask := st.debt[id] | owed
	sv.setDebtLocked(st, id, mask)
	s.walAppendChunk(cg, sv, wal.RecRepairNeeded, h, id, 0, mask, nil)
	traceStep(traceEvent{what: "recordDebt", node: sv.node, key: id.key, idx: id.idx, chunk: true, owed: owed, mask: mask, ver: st.ver[id]})
	st.mu.Unlock()
}

// clearDebt removes bit from the chunk's debt mask on sv and logs the
// reduced mask, but only while sv holds nothing newer than upTo, the version
// the named target reached: a holder past it recorded (or is about to record,
// under this same stripe lock's ordering) a write the target still misses.
func (s *Store) clearDebt(cg *charge, sv *server, h uint64, id chunkID, bit, upTo uint64) bool {
	st := sv.stripe(h)
	st.mu.Lock()
	cleared := false
	if mask, ok := st.debt[id]; ok && mask&bit != 0 && st.ver[id] <= upTo {
		mask &^= bit
		sv.setDebtLocked(st, id, mask)
		s.walAppendChunk(cg, sv, wal.RecRepairNeeded, h, id, 0, mask, nil)
		cleared = true
		traceStep(traceEvent{what: "clearDebt", node: sv.node, key: id.key, idx: id.idx, chunk: true, owed: bit, upTo: upTo, mask: mask, ver: st.ver[id]})
	}
	st.mu.Unlock()
	return cleared
}

// oweBehind lists every non-wiped owner the survey found behind the chunk's
// maximum as repair debt on every holder of that maximum (soft-down holders
// included: retained memory and log stay mutable). This is work-list
// completeness — a replica that may not serve is named by some entry, so the
// store never looks clean around it. A concurrent writer can make a peer look
// transiently behind; the spurious bit clears at the next repair pass.
func (s *Store) oweBehind(cg *charge, h uint64, id chunkID, sy *chunkSurvey) {
	behind, _ := sy.behind()
	if behind == 0 {
		return
	}
	for i := range sy.reps {
		if r := &sy.reps[i]; !r.wiped && r.ver == sy.max {
			s.recordDebt(cg, r.sv, h, id, behind)
		}
	}
}

// resyncNode converges the still-down sv with its peers, chunk by chunk:
// pull what a live peer holds newer, list whoever is then behind. Recover
// runs this after replaying sv's log and BEFORE marking sv up: the
// merged-replay prefix contract discards everything behind a torn lane tail,
// including acknowledged writes together with the debt records that named
// them, and version comparison is the only witness left. It runs both ways —
// sv's replayed version is authoritative for what it holds (RecWrite is only
// logged for applied, acknowledged writes), so a peer behind it missed
// writes even if the record saying so was torn off.
//
// Quiescence is NOT required: sv is still down, so writers neither read nor
// update its copies beyond the retained-memory applies, and those only move
// versions forward — the same monotonic guard the install uses.
func (s *Store) resyncNode(sv *server) {
	// Candidates: everything the live peers hold (what sv might have to
	// pull) plus everything sv itself replayed (chunks the peers might be
	// missing outright).
	candidates := make(map[chunkID]bool)
	for _, peer := range s.servers {
		if peer != sv && peer.isDown() {
			continue
		}
		peer.forEachChunk(func(id chunkID, _ []byte, _ uint64) {
			candidates[id] = true
		})
	}
	if len(candidates) == 0 {
		return
	}
	ids := make([]chunkID, 0, len(candidates))
	for id := range candidates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].less(ids[j]) })
	ctx := storage.NewContext()
	cg := s.directCharge(ctx)

	// Descriptors resync FIRST: the chunk sweep below uses the adopted
	// blob extents to tell a resurrected chunk (sv replayed a write whose
	// later delete/truncate fell behind the torn tail) from a chunk the
	// peers are genuinely missing.
	s.resyncDescriptors(sv, &cg)
	extents := make(map[string]blobExtent)

	for _, id := range ids {
		h := id.ringHash()
		if !containsNode(s.ownersForHash(h), int(sv.node)) {
			continue
		}
		// Deletion gating: a torn tail loses a delete or truncate record as
		// easily as a write record, and replay then resurrects the chunk.
		// The live desc-owner peers' descriptors are the authority on the
		// blob's extent (size changes replicate synchronously to every desc
		// owner): a chunk wholly beyond that extent — or of a blob no live
		// desc owner knows — is a resurrection. Drop it from memory instead
		// of sweeping versions; sweeping would read the peers' deletion as
		// "everyone is behind me" and spread the corpse back across the
		// replica set. The drop is deliberately NOT logged: a crash mid-write
		// can legitimately replay a chunk ahead of its size record (the data
		// append precedes the meta append), and logging a delete there would
		// change the recovered record stream. An in-memory drop is re-derived
		// from the peers on every recovery, which is just as permanent.
		ext, seen := extents[id.key]
		if !seen {
			ext = s.peerBlobExtent(sv, id.key)
			extents[id.key] = ext
		}
		if ext.known && (!ext.exists || id.idx*int64(s.cfg.ChunkSize) >= ext.size) {
			traceStep(traceEvent{what: "resyncDrop beyond extent", node: sv.node, key: id.key, idx: id.idx, chunk: true, n: ext.size, on: ext.exists})
			sv.deleteChunk(h, id)
			continue
		}
		sy := s.surveyChunk(h, id, nil)
		if me := sy.find(sv); me != nil {
			s.pullChunk(&cg, &sy, me, h, id, "blob.resync")
		}
		s.oweBehind(&cg, h, id, &sy)
	}
}

// blobExtent is the cluster view of a blob's existence and size as held by
// the recovering node's live desc-owner peers. known is false when no such
// peer is reachable — then nothing may be dropped on its authority.
type blobExtent struct {
	size   int64
	exists bool
	known  bool
}

// peerBlobExtent polls sv's desc-owner peers for key. Soft-down peers count
// (retained memory stays authoritative — SetDown keeps descriptors current);
// crash-wiped peers do not (their memory is garbage until their own Recover).
// Sizes replicate synchronously so peers agree; max papers over a peer probed
// mid-extend.
func (s *Store) peerBlobExtent(sv *server, key string) blobExtent {
	var ext blobExtent
	// An open migration intent means descriptor placement may be
	// mid-handover: the current ring's desc owners are polled below, and one
	// that lacks the blob may simply not have RECEIVED it yet — its
	// ignorance is not deletion evidence, and dropping on it would destroy
	// chunks of every blob whose descriptor the interrupted migration had
	// not reached. Yield no authority; the roll-forward's reconcile sweep
	// re-establishes descriptor placement and revalidateBatch re-checks
	// chunk extents against it.
	if s.migIntent.Load() != nil {
		return ext
	}
	for _, o := range s.descOwners(key) {
		peer := s.servers[o]
		if peer == sv || peer.isWiped() {
			continue
		}
		ext.known = true
		peer.mu.RLock()
		d, ok := peer.blobs[key]
		peer.mu.RUnlock()
		if !ok {
			continue
		}
		ext.exists = true
		d.latch.RLock()
		if d.size > ext.size {
			ext.size = d.size
		}
		d.latch.RUnlock()
	}
	return ext
}

// resyncDescriptors adopts, onto the still-down sv, the descriptor sizes its
// live desc-owner peers hold. Size changes flow through the descriptor
// primary and replicate synchronously to EVERY owner (down owners keep their
// retained memory current), so all live peers agree on a blob's size; the
// only way sv's copy can lag is a torn meta-lane tail discarding RecMeta
// records at replay. Version comparison cannot find those (descriptor
// versions are per-copy), but agreement among the peers makes any live
// desc-owner peer authoritative. The adopted size is re-logged (RecMeta
// upserts at replay) so a later crash rebuilds it from sv's own log.
func (s *Store) resyncDescriptors(sv *server, cg *charge) {
	keys := make(map[string]bool)
	for _, peer := range s.servers {
		if peer == sv || peer.isDown() {
			continue
		}
		peer.mu.RLock()
		for key := range peer.blobs {
			keys[key] = true
		}
		peer.mu.RUnlock()
	}
	sorted := make([]string, 0, len(keys))
	for key := range keys {
		sorted = append(sorted, key)
	}
	sort.Strings(sorted)
	mine := int(sv.node)
	for _, key := range sorted {
		owners := s.descOwners(key)
		member := false
		var peer *server
		for _, o := range owners {
			if o == mine {
				member = true
			} else if peer == nil && !s.servers[o].isDown() {
				peer = s.servers[o]
			}
		}
		if !member || peer == nil {
			continue
		}
		peer.mu.RLock()
		pd, ok := peer.blobs[key]
		peer.mu.RUnlock()
		if !ok {
			continue
		}
		pd.latch.RLock()
		size := pd.size
		pd.latch.RUnlock()
		sv.mu.Lock()
		d, have := sv.blobs[key]
		if !have {
			d = &descriptor{}
			sv.blobs[key] = d
		}
		changed := !have || d.size != size
		d.size = size
		sv.mu.Unlock()
		if changed {
			cg.metaOp(sv.node, 1)
			s.walAppendMeta(cg, sv, wal.RecMeta, key, size)
		}
	}
}
