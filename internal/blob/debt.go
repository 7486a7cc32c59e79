package blob

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// debt.go — the repair work list. Which owners of a chunk are known to be
// behind is cluster state, like which servers are up, so it lives in one
// table on the Store (RADOS keeps it in the monitors' map, not in the logs of
// the objects' own replicas): a crash of the holder with the newer copy
// cannot take it along, and it is never logged, checkpointed or replayed.
// An entry names the owners behind (mask) and the highest version a record
// asked them to reach (need):
//
//   - a write records the owners it excluded once the version exists, after
//     the apply that makes it: the direct path after the primary's apply,
//     the prepared path once per chunk at the commit apply, and a replica
//     whose copy faulted names itself;
//   - a reconcile records every owner its survey found behind, at the
//     survey's maximum (oweBehind).
//
// An owner's bit clears only once that owner was seen at or above need, so
// a write recorded after the sighting keeps its bit; a bit naming a
// non-owner clears outright (settle). Versions decide freshness (survey.go),
// the table only where the work is — except while a crash-wiped server hides
// the true maximum: a survey that probed one counts a replica the table names
// below need as behind, so it neither serves, seeds a copy nor takes a write.

// debtEntry is one chunk's repair debt.
type debtEntry struct {
	mask uint64 // owners known to be behind, by node bit
	need uint64 // the highest version a record asked them to reach
	rec  uint64 // the table's record count at the entry's last record
}

// debtTable is the store's repair debt, lock-striped like the chunk tables.
// A stripe's mutex is a leaf: nothing is called under it.
type debtTable struct {
	stripes [chunkStripes]debtStripe
	// n counts the entries. While it is zero and no migration intent is
	// open — the steady state — reads take the fast path with no probing.
	n    atomic.Int64
	recs atomic.Uint64 // records so far; a survey notes it before its probes
}

type debtStripe struct {
	mu sync.Mutex
	m  map[chunkID]debtEntry
}

func (t *debtTable) stripe(h uint64) *debtStripe {
	return &t.stripes[(h>>32)&(chunkStripes-1)]
}

// record names the owners in mask behind version need.
func (t *debtTable) record(h uint64, id chunkID, mask, need uint64) {
	if mask == 0 {
		return
	}
	st := t.stripe(h)
	st.mu.Lock()
	e, ok := st.m[id]
	if !ok {
		if st.m == nil {
			st.m = make(map[chunkID]debtEntry)
		}
		t.n.Add(1)
	}
	st.m[id] = debtEntry{mask: e.mask | mask, need: max(e.need, need), rec: t.recs.Add(1)}
	st.mu.Unlock()
}

// entry returns the chunk's entry, the zero one when nothing is owed.
func (t *debtTable) entry(h uint64, id chunkID) debtEntry {
	st := t.stripe(h)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[id]
}

// settle clears the bits of owed that sy shows paid: a non-owner's outright,
// an owner's once sy saw it at or above the entry's need — but no owner's
// while a stray copy survives in sy, or while sy is blind, when a crash-wiped
// server may hold one. A stray would outrank the blob's next incarnation once
// a clean checkpoint has forgotten the tombstones above it, so its work must
// not make the store look clean. Otherwise a survey begun after the entry's
// last record that finds no copy at need shows a torn log took that version:
// need falls to sy's maximum. Reports whether a bit cleared.
func (t *debtTable) settle(h uint64, id chunkID, sy *chunkSurvey, owed uint64) bool {
	var owners uint64
	keep := sy.blind // a wiped server may hold a stray
	for i := range sy.reps {
		if r := &sy.reps[i]; r.owner {
			owners |= r.bit()
		} else if r.ver > 0 {
			keep = true
		}
	}
	st := t.stripe(h)
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return false
	}
	if !keep && e.rec <= sy.recs {
		e.need = min(e.need, sy.max)
	}
	paid := owed &^ owners
	for i := range sy.reps {
		if r := &sy.reps[i]; r.owner && !keep && r.ver >= e.need {
			paid |= owed & r.bit()
		}
	}
	if e.mask&paid == 0 {
		return false
	}
	if e.mask &^= paid; e.mask == 0 {
		delete(st.m, id)
		t.n.Add(-1)
	} else {
		st.m[id] = e
	}
	return true
}

// list returns every entry's mask, restricted to the one node asked for
// (only < 0: every node), sorted for deterministic fan submission.
func (t *debtTable) list(only cluster.NodeID) []repairItem {
	var items []repairItem
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		for id, e := range st.m {
			if only >= 0 {
				e.mask &= 1 << uint(only)
			}
			if e.mask != 0 {
				items = append(items, repairItem{id: id, mask: e.mask})
			}
		}
		st.mu.Unlock()
	}
	slices.SortFunc(items, func(a, b repairItem) int { return a.id.cmp(b.id) })
	return items
}
