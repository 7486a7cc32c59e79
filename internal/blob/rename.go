package blob

import (
	"fmt"
	"strings"

	"repro/internal/storage"
	"repro/internal/wal"
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
// the blobfs adapter's rename contract. Both descriptor latches are held
// for the duration, acquired in sorted key order — the txn.go multi-latch
// discipline — so the rename is atomic against concurrent writers and a
// reader never observes a half-copied target.
func (s *Store) RenameBlob(ctx *storage.Context, oldKey, newKey string) error {
	if newKey == "" || strings.ContainsRune(newKey, '\x00') {
		return fmt.Errorf("blob key %q: %w", newKey, storage.ErrInvalidArg)
	}
	s.member.RLock()
	defer s.member.RUnlock()
	if oldKey == newKey {
		_, _, err := s.primaryDesc(oldKey)
		return err
	}
	oldPrimary, oldD, err := s.primaryDesc(oldKey)
	if err != nil {
		return err
	}
	if oldPrimary.isDown() {
		return fmt.Errorf("blob %q: primary down: %w", oldKey, storage.ErrUnavailable)
	}
	// Register the target first (no latch is needed to create), then latch
	// both descriptors in key order so a concurrent txn.Commit or reverse
	// rename cannot deadlock against this one. The ungated createBlob: this
	// op already holds the member gate, and RLock does not nest.
	if err := s.createBlob(ctx, newKey); err != nil {
		return err
	}
	newPrimary, newD, err := s.primaryDesc(newKey)
	if err != nil {
		return err
	}
	first, second := oldD, newD
	if newKey < oldKey {
		first, second = newD, oldD
	}
	first.latch.Lock()
	defer first.latch.Unlock()
	second.latch.Lock()
	defer second.latch.Unlock()

	// A concurrent delete may have won the race before the latches landed;
	// re-validate the source under its latch.
	oldPrimary.mu.RLock()
	_, live := oldPrimary.blobs[oldKey]
	oldPrimary.mu.RUnlock()
	if !live {
		_ = s.deleteLocked(ctx, newKey, newPrimary, newD)
		return fmt.Errorf("blob %q: %w", oldKey, storage.ErrNotFound)
	}

	fail := func(err error) error {
		// Best-effort rollback: a failed rename leaves only the source.
		_ = s.deleteLocked(ctx, newKey, newPrimary, newD)
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
	// is freshly created and doubly latched, so no observer exists to
	// need transactional isolation — see writeLockedRec. A hole, a short
	// chunk, or the run cap flushes.
	const maxRunChunks = 64
	var run []byte
	var runStart int64
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		_, err := s.writeLockedRec(ctx, newKey, newPrimary, newD, runStart*cs, run, true)
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
	if newD.size != size {
		newD.version++
		newD.size = size
		s.cluster.MetaOp(ctx.Clock, newPrimary.node, 1)
		mcg := s.directCharge(ctx)
		s.walAppendMeta(&mcg, newPrimary, wal.RecMeta, newKey, size)
		s.replicateDescSize(ctx, newKey, newD, size)
	}
	return s.deleteLocked(ctx, oldKey, oldPrimary, oldD)
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
		var ver uint64
		if data, ver, ok = sv.copyChunk(h, id); want != anyVer && ver != want {
			return false
		}
		cg.diskRead(sv.node, len(data))
		return true
	})
	return data, ok, err
}
