package blob

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wal"
)

// survey.go — the one freshness rule. Chunk versions order every mutation
// (the writer assigns max+1 under the blob's latch; every other install is a
// whole-chunk replace at its source's version), so "which replica may serve
// or seed a copy?" has one answer everywhere: a holder at the highest version
// any non-wiped server holds. surveyChunk collects those versions, serveChunk
// applies the rule to reads and rename snapshots, installChunk is the only
// way a replica changes outside a foreground write. Repair debt plays no part
// in the decision — it is the work list repair.go drains, and its store-wide
// count (with Store.migrating) is only the "not known clean" gate that keeps
// the healthy path probe-free.

// maxServers bounds the cluster width: repair-debt masks address nodes by bit.
const maxServers = 64

// anyVer tells a serve callback to skip its version check (the healthy fast
// path, where no survey ran).
const anyVer = ^uint64(0)

// replica is one server's answer to a chunk survey.
type replica struct {
	sv    *server
	ver   uint64 // 0: holds nothing (a wiped server's tables are gone, so it answers 0 too)
	live  bool   // up at the probe; a soft-down server still answers the version probe
	wiped bool
	owner bool
}

func (r *replica) bit() uint64 { return 1 << uint(r.sv.node) }

// chunkSurvey is every candidate replica of one chunk, each probed once.
type chunkSurvey struct {
	reps []replica // the owners in ring order, then the non-owner holders in node order
	max  uint64    // highest version on any non-wiped replica
}

// clean reports the healthy steady state: no repair debt anywhere, no
// migration in flight. Then every owner of every chunk holds its maximum.
func (s *Store) clean() bool {
	return s.repairPending.Load() == 0 && s.migrating.Load() == 0
}

// surveyChunk probes each candidate server once, down/wiped flag and version
// together. The scope is the owners while the store is clean and every
// non-wiped server otherwise: a chunk's freshest copy may then sit on a
// drained node or a stray holder the sweep has not reached. Strays are probed
// BEFORE the owners because the sweep deletes a stray only after an owner
// holds its bytes, so a survey racing a batch sees the maximum on one side or
// the other and never underestimates it. buf is optional backing for reps.
func (s *Store) surveyChunk(h uint64, id chunkID, buf []replica) chunkSurvey {
	owners := s.ownersForHash(h)
	sy := chunkSurvey{reps: buf[:0]}
	for range owners {
		sy.reps = append(sy.reps, replica{}) // the owners' slots, filled last
	}
	if !s.clean() {
		for i, sv := range s.servers {
			if containsNode(owners, i) {
				continue
			}
			if r := sy.probe(sv, h, id); r.ver != 0 {
				sy.reps = append(sy.reps, r)
			}
		}
	}
	for i, o := range owners {
		sy.reps[i] = sy.probe(s.servers[o], h, id)
		sy.reps[i].owner = true
	}
	return sy
}

func (sy *chunkSurvey) probe(sv *server, h uint64, id chunkID) replica {
	sv.mu.RLock()
	r := replica{sv: sv, live: !sv.down, wiped: sv.wiped}
	sv.mu.RUnlock()
	if !r.wiped {
		r.ver = sv.chunkVer(h, id)
		sy.max = max(sy.max, r.ver)
	}
	return r
}

// find returns sv's entry, or nil when the survey did not keep one.
func (sy *chunkSurvey) find(sv *server) *replica {
	for i := range sy.reps {
		if sy.reps[i].sv == sv {
			return &sy.reps[i]
		}
	}
	return nil
}

// behind masks the owners holding less than the maximum, down the owners not
// up at the probe. Crash-wiped owners are only ever down: nothing can be said
// about their version until their own Recover resyncs them.
func (sy *chunkSurvey) behind() (behind, down uint64) {
	for i := range sy.reps {
		r := &sy.reps[i]
		if !r.owner {
			continue
		}
		if !r.live {
			down |= r.bit()
		}
		if r.ver < sy.max && !r.wiped {
			behind |= r.bit()
		}
	}
	return behind, down
}

// source returns the highest-version replica other than skip that may seed a
// copy, owners first among equals. Only live replicas qualify unless retained
// is set: the migration sweep also reads a soft-down server's retained memory
// (live ones preferred among equals), so a chunk's only fresh bytes are never
// stranded on a node it is about to wipe.
func (sy *chunkSurvey) source(skip *server, retained bool) *replica {
	var best *replica
	for i := range sy.reps {
		r := &sy.reps[i]
		if r.sv == skip || r.ver == 0 || r.wiped || !(r.live || retained) {
			continue
		}
		if best == nil || r.ver > best.ver || r.ver == best.ver && r.live && !best.live {
			best = r
		}
	}
	return best
}

// serveChunk runs serve against the replica the freshness rule selects: the
// first live owner while the store is clean (two atomic loads, no probing),
// otherwise a live holder at the survey maximum — soft-down holders count
// toward the maximum, so a read whose freshest copy is unreachable reports
// storage.ErrUnavailable instead of older bytes. serve re-checks the version
// under the replica's stripe lock and reports false when the copy moved in
// between (a racing install or sweep delete); the survey then runs again.
func (s *Store) serveChunk(cg *charge, id chunkID, serve func(sv *server, h, want uint64) bool) error {
	h := id.ringHash()
	if s.clean() {
		for _, o := range s.ownersForHash(h) {
			sv := s.servers[o]
			if sv.isDown() || s.faultCheck(cg, sv.node, cluster.FaultDiskRead) != nil {
				continue // a faulted replica reads like a down one: fall back
			}
			serve(sv, h, anyVer)
			return nil
		}
		return fmt.Errorf("chunk %d of %q: all replicas down: %w", id.idx, id.key, storage.ErrUnavailable)
	}
	var buf [8]replica
	var sy chunkSurvey
	for tries := 0; tries < 3; tries++ {
		sy = s.surveyChunk(h, id, buf[:])
		moved := false
		for i := range sy.reps {
			r := &sy.reps[i]
			if !r.live || r.ver != sy.max || s.faultCheck(cg, r.sv.node, cluster.FaultDiskRead) != nil {
				continue
			}
			if serve(r.sv, h, sy.max) {
				return nil
			}
			moved = true
		}
		if !moved {
			break
		}
	}
	return fmt.Errorf("chunk %d of %q: no live replica at version %d: %w", id.idx, id.key, sy.max, storage.ErrUnavailable)
}

// installChunk is the version-guarded whole-chunk replace every copy between
// replicas ends in (repair, resync, migration): target takes data at ver
// unless it already holds that version or newer — a concurrent writer or a
// racing install won. target owns data from here on. Memory and log change
// together under the stripe lock (the recordDebt pattern: the lane log's
// mutex nests inside it as a leaf), so the chunk's lane receives records in
// the order memory changed and replay needs no guard of its own. RecWrite
// replays as a grow-only merge, so a copy shorter than what target held logs
// the cut with it as ONE lane append: a crash can tear that write but never
// falls between the two. Returns target's version afterwards and whether
// data went in.
func (s *Store) installChunk(cg *charge, target *server, h uint64, id chunkID, data []byte, ver uint64) (uint64, bool) {
	cg.rpc(target.node, len(data), 64, 0)
	st := target.stripe(h)
	st.mu.Lock()
	defer st.mu.Unlock()
	if have := st.ver[id]; have >= ver {
		return have, false
	}
	shrinks := len(st.m[id]) > len(data)
	st.m[id] = data
	st.ver[id] = ver
	if shrinks {
		bp := hdrPool.Get().(*[]byte)
		*bp = appendChunkHeader((*bp)[:0], id, int64(len(data)), 0)
		cut := len(*bp)
		*bp = appendChunkHeader(*bp, id, 0, ver)
		s.walAppendBatch(cg, target, target.chunkLane(h), []wal.AppendVSpec{
			{Type: wal.RecChunkTruncate, Header: (*bp)[:cut]},
			{Type: wal.RecWrite, Header: (*bp)[cut:], Payload: data},
		})
		hdrPool.Put(bp)
	} else {
		s.walAppendChunk(cg, target, wal.RecWrite, h, id, 0, ver, data)
	}
	cg.diskWrite(target.node, len(data))
	traceStep(traceEvent{what: "install", node: target.node, key: id.key, idx: id.idx, chunk: true, ver: ver})
	return ver, true
}

// dropChunk removes sv's copy of the chunk, memory and log together under the
// stripe lock like installChunk.
func (s *Store) dropChunk(cg *charge, sv *server, h uint64, id chunkID) {
	st := sv.stripe(h)
	st.mu.Lock()
	delete(st.m, id)
	delete(st.ver, id)
	sv.setDebtLocked(st, id, 0)
	s.walAppendChunk(cg, sv, wal.RecChunkDelete, h, id, 0, 0, nil)
	traceStep(traceEvent{what: "drop", node: sv.node, key: id.key, idx: id.idx, chunk: true})
	st.mu.Unlock()
}
