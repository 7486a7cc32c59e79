package blob

import (
	"fmt"
	"sort"

	"repro/internal/storage"
	"repro/internal/wal"
)

// Txn is a Týr-style lightweight transaction spanning one or more blobs
// ("Týr: blob storage meets built-in transactions", the paper's reference
// [14]). Reads record the version they observed; writes are buffered.
// Commit acquires every touched blob's latch in deterministic order,
// validates the recorded read versions (optimistic concurrency — a
// concurrent committed writer causes ErrTxnConflict), applies all writes,
// and releases. Readers outside the transaction see all of its writes or
// none of them.
type Txn struct {
	s     *Store
	ctx   *storage.Context
	reads map[string]uint64 // key -> version observed
	// writes are buffered in arrival order; later writes win, as with
	// direct WriteBlob calls.
	writes []txnWrite
	done   bool
}

type txnWrite struct {
	key  string
	off  int64
	data []byte
}

// Begin starts a transaction on behalf of ctx.
func (s *Store) Begin(ctx *storage.Context) *Txn {
	return &Txn{s: s, ctx: ctx, reads: make(map[string]uint64)}
}

// Read reads from a blob inside the transaction, recording the blob's
// version for commit-time validation. Buffered writes of this transaction
// are NOT visible to its own reads (Týr transactions are write-buffered;
// the traced applications never read their own uncommitted data).
func (t *Txn) Read(key string, off int64, p []byte) (int, error) {
	if t.done {
		return 0, fmt.Errorf("txn: %w", storage.ErrClosed)
	}
	_, d, err := t.s.primaryDesc(key)
	if err != nil {
		return 0, err
	}
	d.latch.RLock()
	version := d.version
	d.latch.RUnlock()
	if prev, ok := t.reads[key]; ok && prev != version {
		// The blob moved under us between our own reads: doomed to
		// conflict; fail fast.
		return 0, fmt.Errorf("txn read %q: %w", key, storage.ErrTxnConflict)
	}
	t.reads[key] = version
	return t.s.ReadBlob(t.ctx, key, off, p)
}

// Write buffers a write to be applied atomically at commit.
func (t *Txn) Write(key string, off int64, p []byte) error {
	if t.done {
		return fmt.Errorf("txn: %w", storage.ErrClosed)
	}
	if off < 0 {
		return fmt.Errorf("txn write %q at %d: %w", key, off, storage.ErrInvalidArg)
	}
	t.writes = append(t.writes, txnWrite{key: key, off: off, data: append([]byte(nil), p...)})
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.done = true
	t.writes = nil
	t.reads = nil
}

// Commit runs the two-phase protocol: latch every participant blob in
// sorted-key order (deadlock freedom), validate read versions, apply every
// buffered write, bump versions, log commit records, release. On conflict
// the transaction is aborted and ErrTxnConflict returned.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("txn: %w", storage.ErrClosed)
	}
	t.done = true
	if len(t.writes) == 0 && len(t.reads) == 0 {
		return nil
	}
	// Member gate: placement resolved at latch time must hold until the
	// commit records land. Writes go through writeLocked (not WriteBlob),
	// so this is the only gate acquisition on the commit path.
	t.s.member.RLock()
	defer t.s.member.RUnlock()

	// Participant set: every blob read or written.
	keySet := make(map[string]bool, len(t.writes)+len(t.reads))
	for _, w := range t.writes {
		keySet[w.key] = true
	}
	for key := range t.reads {
		keySet[key] = true
	}
	keys := make([]string, 0, len(keySet))
	for key := range keySet {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	// Resolve and latch in order.
	type participant struct {
		key     string
		primary *server
		desc    *descriptor
	}
	parts := make([]participant, 0, len(keys))
	unlock := func() {
		for i := len(parts) - 1; i >= 0; i-- {
			parts[i].desc.latch.Unlock()
		}
	}
	for _, key := range keys {
		primary, d, err := t.s.primaryDesc(key)
		if err != nil {
			unlock()
			return fmt.Errorf("txn commit: %w", err)
		}
		if primary.isDown() {
			unlock()
			return fmt.Errorf("txn commit %q: primary down: %w", key, storage.ErrUnavailable)
		}
		d.latch.Lock()
		parts = append(parts, participant{key, primary, d})
		// Prepare round trip to each participant's descriptor primary.
		t.s.cluster.MetaOp(t.ctx.Clock, primary.node, 1)
	}

	// Validation phase: every recorded read version must be current.
	for _, p := range parts {
		if want, ok := t.reads[p.key]; ok && p.desc.version != want {
			got := p.desc.version // read under the latch, not after unlock
			unlock()
			return fmt.Errorf("txn commit %q: version %d != read %d: %w",
				p.key, got, want, storage.ErrTxnConflict)
		}
	}

	// Apply phase.
	byKey := make(map[string]participant, len(parts))
	for _, p := range parts {
		byKey[p.key] = p
	}
	for _, w := range t.writes {
		p := byKey[w.key]
		if _, err := t.s.writeLocked(t.ctx, w.key, p.primary, p.desc, w.off, w.data); err != nil {
			// A mid-apply failure leaves earlier writes in place; real Týr
			// uses chunk-version shadowing to roll back. We surface the
			// error; the invariant checker still holds (replicas agree).
			unlock()
			return fmt.Errorf("txn apply %q: %w", w.key, err)
		}
	}

	// Commit records on every participant, batched per server so a
	// k-participant commit staged on one primary logs with one append.
	batch := newWalBatch(t.s)
	for _, p := range parts {
		batch.addMeta(p.primary, wal.RecCommit, p.key, 0)
		t.s.cluster.MetaOp(t.ctx.Clock, p.primary.node, 1)
	}
	batch.flush(t.ctx)
	unlock()
	return nil
}
