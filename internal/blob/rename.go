package blob

import (
	"fmt"
	"strings"

	"repro/internal/storage"
)

// RenameBlob moves a blob to a new key server-side, implementing the
// storage.BlobRenamer extension. The client never sees the bytes: each
// source chunk is snapshotted from its freshest live replica and re-written
// under the target key through writeLocked — the same direct-commit path
// ordinary writes take, so WAL durability, replication, degraded-write debt
// and virtual-time charging all apply unchanged — then the source is
// deleted. Holes are preserved: absent source chunks are skipped rather
// than materialized, and the target size is set explicitly at the end.
//
// The target key must not exist (storage.ErrExists otherwise), matching
// the blobfs adapter's rename contract. Both keys' latches are held for the
// duration, taken in latch-index order (once when the keys share one), so the
// rename is atomic against concurrent writers, a reverse rename cannot
// deadlock against it, and a reader never observes a half-copied target.
func (s *Store) RenameBlob(ctx *storage.Context, oldKey, newKey string) (err error) {
	if newKey == "" || strings.ContainsRune(newKey, '\x00') {
		return s.opFailed(OpRename, oldKey, newKey, 0, nil, fmt.Errorf("blob key %q: %w", newKey, storage.ErrInvalidArg))
	}
	s.member.RLock()
	defer s.member.RUnlock()
	first, second := oldKey, newKey
	if latchOf(newKey) < latchOf(oldKey) {
		first, second = newKey, oldKey
	}
	s.lockKey(first, true)
	defer s.unlockKey(first, true)
	if latchOf(second) != latchOf(first) {
		s.lockKey(second, true)
		defer s.unlockKey(second, true)
	}
	defer s.opEnd(OpRename, oldKey, newKey, 0, nil, &err)
	oldPrimary, oldD, err := s.primaryDesc(oldKey)
	if err != nil || oldKey == newKey {
		return err
	}
	if oldPrimary.isDown() {
		return fmt.Errorf("blob %q: primary down: %w", oldKey, storage.ErrUnavailable)
	}
	newPrimary, _, err := s.createLocked(ctx, newKey)
	if err != nil {
		return err
	}
	var newSize int64 // the target's size, as this rename has set it
	fail := func(err error) error {
		// Best-effort rollback: a failed rename leaves only the source.
		s.deleteLocked(ctx, newKey, newPrimary, newSize)
		return err
	}
	size := oldD.size
	cs := int64(s.cfg.ChunkSize)
	nChunks := (size + cs - 1) / cs
	// Snapshot every source chunk in parallel — the scatter-gather ReadBlob
	// rides — so the rename's read side costs the slowest chunk in virtual
	// time, not the sum. Each task writes only its own slot: no lock needed.
	snaps := make([][]byte, nChunks)
	oks := make([]bool, nChunks)
	fan := s.newFan()
	for idx := int64(0); idx < nChunks; idx++ {
		idx := idx
		t := fan.task(taskFunc)
		t.fn = func(cg *charge) error {
			data, ok, err := s.snapshotChunk(cg, chunkID{oldKey, idx})
			snaps[idx], oks[idx] = data, ok
			return err
		}
		fan.spawn(t)
	}
	if _, err := fan.join(ctx); err != nil {
		return fail(err)
	}
	// Contiguous full chunks coalesce into one parallel-fan write per run
	// rather than per-chunk commits, which would pay the fixed RPC/WAL
	// overhead nChunks times over and lose to the client-side copy loop
	// they replace (the rename bound of internal/bench's
	// TestVirtualTwinsPinned caught exactly that). The run
	// commits direct (RecWrite, no 2PC prepare/commit rounds): the target
	// is freshly created and its key latched, so no observer exists to
	// need transactional isolation — see writeLocked. A hole, a short
	// chunk, or the run cap flushes.
	const maxRunChunks = 64
	var run []byte
	var runStart int64
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		_, err := s.writeLocked(ctx, newKey, newPrimary, newSize, runStart*cs, run, true)
		if err == nil {
			newSize = max(newSize, runStart*cs+int64(len(run)))
		}
		run = nil
		return err
	}
	for idx := int64(0); idx < nChunks; idx++ {
		data := snaps[idx]
		if !oks[idx] || len(data) == 0 {
			if err := flush(); err != nil {
				return fail(err)
			}
			continue // hole: nothing stored, nothing written
		}
		if len(run) == 0 {
			runStart = idx
		}
		run = append(run, data...)
		if int64(len(data)) < cs || int64(len(run)) >= maxRunChunks*cs {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	// Sparse tails (and wholly-empty blobs) leave the copied size short of
	// the logical size; install it explicitly with the same descriptor
	// protocol writeLocked uses for size extension.
	if newSize != size {
		s.cluster.MetaOp(ctx.Clock, newPrimary.node, 1)
		s.setSize(ctx, newKey, newPrimary, size)
	}
	s.deleteLocked(ctx, oldKey, oldPrimary, size)
	return nil
}

// snapshotChunk reads one chunk's stored bytes for the rename copy off the
// replica readChunk would use — the same serveChunk rule, so the two cannot
// diverge. Unlike readChunk it returns the bytes the replica actually holds —
// no zero-fill to the logical chunk span — with ok=false for a chunk no
// replica stores, so sparse holes survive the copy.
//
// Only the source-side disk read is charged — the repair/rebalance
// accounting for server-to-server movement. The data-bearing network hop is
// the write path's payload RPC to the target primary (writeLocked), so
// charging a response transfer here would bill the bytes for a trip through
// a client they never take. This is where the rename fast path beats the
// client-side copy loop it replaces: R+1 data transfers per chunk become R.
func (s *Store) snapshotChunk(cg *charge, id chunkID) (data []byte, ok bool, err error) {
	err = s.serveChunk(cg, id, func(sv *server, h, want uint64) bool {
		var c chunkBytes
		var ver uint64
		if c, ver, ok = sv.chunkEntry(h, id); want != anyVer && ver != want {
			return false
		}
		data = c.b
		cg.diskRead(sv.node, len(data))
		return true
	})
	return data, ok, err
}
