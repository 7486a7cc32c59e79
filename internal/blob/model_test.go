package blob

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// refBlob is one blob of the reference model: a plain byte slice with the
// same write / truncate / read semantics the store promises.
type refBlob struct{ data []byte }

func (r *refBlob) write(off int64, p []byte) {
	if len(p) == 0 {
		return // pwrite(…, 0) never extends
	}
	need := off + int64(len(p))
	if int64(len(r.data)) < need {
		grown := make([]byte, need)
		copy(grown, r.data)
		r.data = grown
	}
	copy(r.data[off:], p)
}

func (r *refBlob) truncate(size int64) {
	if size <= int64(len(r.data)) {
		r.data = r.data[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, r.data)
	r.data = grown
}

func (r *refBlob) read(off int64, n int) []byte {
	if off >= int64(len(r.data)) {
		return nil
	}
	end := off + int64(n)
	if end > int64(len(r.data)) {
		end = int64(len(r.data))
	}
	return r.data[off:end]
}

// refModel is the one reference model of what a reader must see, fed by
// nothing but the op events the store reports (Store.Observe): each live
// key's bytes, the keys an acknowledged delete or rename removed, each
// chunk's last acknowledged stamp, and every acknowledged op in the order the
// ops took effect, so at(k) rebuilds the state after the first k. A failed op
// changes nothing. Workers report concurrently, so a mutex guards it.
type refModel struct {
	mu      sync.Mutex
	blobs   map[string]*refBlob
	gone    map[string]bool
	chunks  map[chunkID]stamp
	ops     []modelOp
	pending map[string][]stamp // the stamps of the op in flight on a key
}

// stamp is one chunk version an op stamped. A tombstone's may be forgotten by
// a clean checkpoint; a trim leaves a tombstone a tombstone.
type stamp struct {
	id         chunkID
	ver        uint64
	tomb, trim bool
}

// modelOp is one acknowledged op: its EventOp, Data copied, and its stamps.
type modelOp struct {
	ev     Event
	stamps []stamp
}

// newModel subscribes a fresh model to s. A test that observes s too feeds
// the model from its own subscriber and gives it back with s.Observe(m.observe).
func newModel(s *Store) *refModel {
	m := &refModel{blobs: map[string]*refBlob{}, gone: map[string]bool{}, chunks: map[chunkID]stamp{}, pending: map[string][]stamp{}}
	s.Observe(m.observe)
	return m
}

func (m *refModel) observe(ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Kind {
	case EventChunk:
		m.pending[ev.Blob] = append(m.pending[ev.Blob], stamp{chunkID{ev.Blob, ev.Off}, ev.Ver,
			ev.Type == wal.RecChunkDelete, ev.Type == wal.RecChunkTruncate})
	case EventOp:
		op := modelOp{ev: ev, stamps: append(m.pending[ev.Blob], m.pending[ev.To]...)}
		delete(m.pending, ev.Blob)
		delete(m.pending, ev.To)
		if ev.Err == nil {
			op.ev.Data = slices.Clone(ev.Data)
			m.ops = append(m.ops, op)
			m.apply(op)
		}
	}
}

func (m *refModel) apply(op modelOp) {
	switch ev := op.ev; ev.Op {
	case OpCreate:
		m.blobs[ev.Blob] = &refBlob{}
		delete(m.gone, ev.Blob)
	case OpWrite:
		m.blobs[ev.Blob].write(ev.Off, ev.Data)
	case OpTruncate:
		m.blobs[ev.Blob].truncate(ev.Off)
	case OpDelete, OpRename:
		if ev.To != ev.Blob {
			if ev.Op == OpRename {
				m.blobs[ev.To] = m.blobs[ev.Blob]
				delete(m.gone, ev.To)
			}
			delete(m.blobs, ev.Blob)
			m.gone[ev.Blob] = true
		}
	}
	for _, st := range op.stamps {
		if prev, ok := m.chunks[st.id]; st.trim {
			st.tomb = !ok || prev.tomb
		}
		m.chunks[st.id] = st
	}
}

// at rebuilds the model after its first k acknowledged ops.
func (m *refModel) at(k int) *refModel {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &refModel{blobs: map[string]*refBlob{}, gone: map[string]bool{}, chunks: map[chunkID]stamp{}}
	for _, op := range m.ops[:k] {
		r.apply(op)
	}
	return r
}

// len returns the number of acknowledged ops.
func (m *refModel) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ops)
}

// data returns a copy of key's bytes and whether the key is live.
func (m *refModel) data(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	if !ok {
		return nil, false
	}
	return slices.Clone(b.data), true
}

// checkDurable is the durability ledger: what s must hold of m, checked on a
// quiescent store with no server crash-wiped but the damaged ones a caller
// left down. Every chunk within a live key's size is held, at its last
// acknowledged version or newer, by a non-wiped server (a tombstone may be
// gone); every live key reads back its bytes and BlobSize gives its size;
// Scan("") lists exactly the live keys and sizes; a removed key is
// ErrNotFound. A key whose descriptor primary is down is skipped, and
// counted: checkDurable returns the skips.
func checkDurable(t testing.TB, s *Store, m *refModel) (skipped int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	ctx := storage.NewContext()
	down := func(key string) bool { return s.servers[s.descOwners(key)[0]].isDown() }
	var want []storage.BlobInfo
	for _, key := range slices.Sorted(maps.Keys(m.blobs)) {
		data := m.blobs[key].data
		if down(key) {
			skipped++
			continue
		}
		want = append(want, storage.BlobInfo{Key: key, Size: int64(len(data))})
		for id := (chunkID{key, 0}); id.idx*int64(s.cfg.ChunkSize) < int64(len(data)); id.idx++ {
			st, ok := m.chunks[id]
			var best uint64
			for _, sv := range s.servers {
				if !sv.isWiped() {
					best = max(best, sv.chunkVer(id.ringHash(), id))
				}
			}
			if ok && best < st.ver && !(st.tomb && best == 0) {
				t.Fatalf("chunk %d of %q: acknowledged at v%d, held at most at v%d", id.idx, key, st.ver, best)
			}
		}
		got := make([]byte, len(data)+1)
		n, err := s.ReadBlob(ctx, key, 0, got)
		if err != nil || !bytes.Equal(got[:n], data) {
			t.Fatalf("blob %q: read (%d, %v), want the %d bytes acknowledged", key, n, err, len(data))
		}
		if size, err := s.BlobSize(ctx, key); err != nil || size != int64(len(data)) {
			t.Fatalf("blob %q: size (%d, %v), want %d", key, size, err, len(data))
		}
	}
	for key := range m.gone {
		if down(key) {
			skipped++
		} else if size, err := s.BlobSize(ctx, key); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("blob %q: size (%d, %v) after its acknowledged removal", key, size, err)
		}
	}
	infos, err := s.Scan(ctx, "")
	infos = slices.DeleteFunc(infos, func(bi storage.BlobInfo) bool { return down(bi.Key) })
	if err != nil || !slices.Equal(infos, want) {
		t.Fatalf("Scan lists (%v, %v), want %v", infos, err, want)
	}
	return skipped
}

// coldCopy restarts s cold, as ARIES restarts from the log alone: a fresh
// Store on an identical cluster gets each server's lane bytes and nothing of
// s's memory — no debt table, no intent, no cache — then every node crashes
// and recovers in node order and a Repair runs. Membership comes from s's
// ring: the ring is durable out of band, in no log (captureMigration).
func coldCopy(t testing.TB, s *Store) *Store {
	t.Helper()
	c := NewOnNodes(cluster.New(cluster.Config{Nodes: len(s.servers), Cost: s.cluster.Cost()}), s.cfg, s.ServingNodes())
	c.serialRecovery, c.migrationRate = s.serialRecovery, s.migrationRate
	for i, sv := range s.servers {
		restoreLanes(c.servers[i], captureLanes(sv))
	}
	crashRecoverAll(t, c, s.serialRecovery)
	c.Repair(storage.NewContext())
	return c
}

// checkSound requires the quiescent s, every descriptor primary up, to pass
// the ledger against m, skipping no key, and CheckInvariants.
func checkSound(t testing.TB, s *Store, m *refModel) {
	t.Helper()
	if n := checkDurable(t, s, m); n > 0 {
		t.Fatalf("the ledger skipped %d keys whose descriptor primary is down", n)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

// op is one random operation against a single blob.
type op struct {
	Kind byte   // 0=write 1=truncate 2=read
	Off  uint16 // bounded offsets keep blobs small
	Size uint16
}

// TestStoreMatchesReferenceModel drives random operation sequences against
// both the blob store (with a tiny chunk size to force chunk-boundary
// handling) and the reference model, requiring byte-identical reads and
// sizes at every step, plus cross-replica invariants at the end.
func TestStoreMatchesReferenceModel(t *testing.T) {
	rng := sim.NewRNG(20240612)
	f := func(ops []op) bool {
		s := New(cluster.New(cluster.Config{Nodes: 5, Seed: 7}),
			Config{ChunkSize: 32, Replication: 2})
		ctx := storage.NewContext()
		if err := s.CreateBlob(ctx, "model"); err != nil {
			return false
		}
		ref := &refBlob{}
		for _, o := range ops {
			off := int64(o.Off % 1024)
			n := int(o.Size % 512)
			switch o.Kind % 3 {
			case 0:
				p := make([]byte, n)
				rng.Fill(p)
				if _, err := s.WriteBlob(ctx, "model", off, p); err != nil {
					return false
				}
				ref.write(off, p)
			case 1:
				if err := s.TruncateBlob(ctx, "model", off); err != nil {
					return false
				}
				ref.truncate(off)
			case 2:
				buf := make([]byte, n)
				got, err := s.ReadBlob(ctx, "model", off, buf)
				if err != nil {
					return false
				}
				want := ref.read(off, n)
				if got != len(want) || !bytes.Equal(buf[:got], want) {
					return false
				}
			}
			size, err := s.BlobSize(ctx, "model")
			if err != nil || size != int64(len(ref.data)) {
				return false
			}
		}
		// Full-content comparison and replica consistency at the end.
		final := make([]byte, len(ref.data)+64)
		got, err := s.ReadBlob(ctx, "model", 0, final)
		if err != nil || got != len(ref.data) || !bytes.Equal(final[:got], ref.data) {
			return false
		}
		return s.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScanMatchesCreatedSet: after arbitrary create/delete interleavings,
// Scan("") returns exactly the live key set.
func TestScanMatchesCreatedSet(t *testing.T) {
	f := func(actions []uint8) bool {
		s := New(cluster.New(cluster.Config{Nodes: 4, Seed: 3}), Config{Replication: 2})
		m, ctx := newModel(s), storage.NewContext()
		keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for _, a := range actions {
			k := keys[int(a)%len(keys)]
			_, live := m.data(k)
			if a%2 == 0 {
				if err := s.CreateBlob(ctx, k); (err == nil) == live {
					return false // a duplicate create must fail, a first one succeed
				}
			} else if err := s.DeleteBlob(ctx, k); (err == nil) != live {
				return false // a delete succeeds exactly when the key is live
			}
		}
		return checkDurable(t, s, m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
