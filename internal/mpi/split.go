package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Split partitions the communicator MPI_Comm_split-style: ranks with the
// same color form a new sub-communicator; within a color, new rank IDs
// follow ascending (key, old rank) order. Every rank of the parent must
// call Split together (it is a collective). The returned Rank shares the
// caller's virtual clock: the process is the same, only the communication
// scope narrows.
//
// A negative color (MPI_UNDEFINED) yields a nil communicator; the caller
// still participates in the collective exchange.
func (r *Rank) Split(color, key int) *Rank {
	// Exchange (color, key) pairs.
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[0:8], uint64(int64(color)))
	binary.LittleEndian.PutUint64(payload[8:16], uint64(int64(key)))
	all := r.collect(contribution{wire: len(payload), data: payload[:]})

	if color < 0 {
		return nil
	}
	type member struct {
		oldRank int
		key     int
	}
	var members []member
	for oldRank, p := range all {
		c := int(int64(binary.LittleEndian.Uint64(p.data[0:8])))
		k := int(int64(binary.LittleEndian.Uint64(p.data[8:16])))
		if c == color {
			members = append(members, member{oldRank, k})
		}
	}
	sort.Slice(members, func(a, b int) bool {
		if members[a].key != members[b].key {
			return members[a].key < members[b].key
		}
		return members[a].oldRank < members[b].oldRank
	})

	newID := -1
	oldRanks := make([]int, len(members))
	for i, m := range members {
		oldRanks[i] = m.oldRank
		if m.oldRank == r.ID {
			newID = i
		}
	}
	if newID < 0 {
		// Unreachable: our own (color, key) was in the exchange.
		panic(fmt.Sprintf("mpi: Split lost rank %d", r.ID))
	}
	return &Rank{
		ID:    newID,
		world: r.world.subWorld(color, oldRanks),
		Ctx:   r.Ctx, // same process, same clock
	}
}

// subWorld builds (or reuses) the communicator backing one color group.
// Sub-communicators get distinct mailboxes and rendezvous state but share
// the parent's cost model.
func (w *World) subWorld(color int, oldRanks []int) *World {
	w.subMu.Lock()
	defer w.subMu.Unlock()
	if w.subs == nil {
		w.subs = make(map[string]*World)
	}
	key := fmt.Sprintf("%d:%v", color, oldRanks)
	if sub, ok := w.subs[key]; ok {
		return sub
	}
	sub := newWorld(len(oldRanks), w.cost)
	w.subs[key] = sub
	return sub
}
