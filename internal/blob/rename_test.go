package blob

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

func renamePattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*13 + 7)
	}
	return p
}

func TestRenameBlobMultiChunk(t *testing.T) {
	s := newStore(t, 5, Config{ChunkSize: 8, Replication: 2})
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "old"); err != nil {
		t.Fatal(err)
	}
	data := renamePattern(8*3 + 5) // 3 full chunks + partial tail
	if _, err := s.WriteBlob(ctx, "old", 0, data); err != nil {
		t.Fatal(err)
	}
	if err := s.RenameBlob(ctx, "old", "new"); err != nil {
		t.Fatalf("RenameBlob: %v", err)
	}
	if _, err := s.BlobSize(ctx, "old"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("source survived rename: %v", err)
	}
	size, err := s.BlobSize(ctx, "new")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("target size = (%d, %v), want %d", size, err, len(data))
	}
	got := make([]byte, len(data))
	if _, err := s.ReadBlob(ctx, "new", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("renamed bytes differ:\n got %x\nwant %x", got, data)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

// TestRenameBlobSparse pins hole preservation: chunks the source never
// stored stay absent under the target key — the rename must not
// materialize zero-filled chunks — while the logical size and zero reads
// survive.
func TestRenameBlobSparse(t *testing.T) {
	s := newStore(t, 5, Config{ChunkSize: 8, Replication: 2})
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "sparse"); err != nil {
		t.Fatal(err)
	}
	head := []byte("head")
	tail := []byte("tail!")
	const tailOff = 8 * 6 // chunks 1..5 are holes
	if _, err := s.WriteBlob(ctx, "sparse", 0, head); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, "sparse", tailOff, tail); err != nil {
		t.Fatal(err)
	}
	if err := s.RenameBlob(ctx, "sparse", "moved"); err != nil {
		t.Fatalf("RenameBlob: %v", err)
	}
	wantSize := int64(tailOff + len(tail))
	if size, err := s.BlobSize(ctx, "moved"); err != nil || size != wantSize {
		t.Fatalf("size = (%d, %v), want %d", size, err, wantSize)
	}
	got := make([]byte, wantSize)
	if _, err := s.ReadBlob(ctx, "moved", 0, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, wantSize)
	copy(want, head)
	copy(want[tailOff:], tail)
	if !bytes.Equal(got, want) {
		t.Fatalf("sparse bytes differ:\n got %x\nwant %x", got, want)
	}
	// White-box: the hole chunks must not exist on any replica.
	for idx := int64(1); idx <= 5; idx++ {
		id := chunkID{"moved", idx}
		h := id.ringHash()
		for _, o := range s.ownersForHash(h) {
			if _, _, ok := s.servers[o].chunkData(h, id); ok {
				t.Fatalf("hole chunk %d materialized on node %d", idx, o)
			}
		}
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

func TestRenameBlobErrors(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 16, Replication: 2})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "src")
	s.WriteBlob(ctx, "src", 0, []byte("payload"))
	s.CreateBlob(ctx, "taken")

	if err := s.RenameBlob(ctx, "src", "taken"); !errors.Is(err, storage.ErrExists) {
		t.Fatalf("rename onto existing: %v", err)
	}
	if err := s.RenameBlob(ctx, "ghost", "dst"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("rename missing source: %v", err)
	}
	if err := s.RenameBlob(ctx, "src", ""); !errors.Is(err, storage.ErrInvalidArg) {
		t.Fatalf("rename to empty key: %v", err)
	}
	// Self-rename is a no-op on a live blob, ErrNotFound on a missing one.
	if err := s.RenameBlob(ctx, "src", "src"); err != nil {
		t.Fatalf("self rename: %v", err)
	}
	if err := s.RenameBlob(ctx, "ghost", "ghost"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("self rename of missing: %v", err)
	}
	// Failed renames must leave the source untouched and no target debris.
	got := make([]byte, 7)
	if _, err := s.ReadBlob(ctx, "src", 0, got); err != nil || string(got) != "payload" {
		t.Fatalf("source after failed renames = (%v, %q)", err, got)
	}
	if _, err := s.BlobSize(ctx, "dst"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("target debris after failed rename: %v", err)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

// TestRenameBlobDegraded drives the rename while a chunk replica is down:
// the copy lands on the live subset through the ordinary degraded-write
// path, records repair debt, and converges byte-identical after rejoin.
func TestRenameBlobDegraded(t *testing.T) {
	s := newStore(t, 4, Config{ChunkSize: 4, Replication: 2})
	ctx := storage.NewContext()
	s.CreateBlob(ctx, "deg")
	data := renamePattern(10)
	if _, err := s.WriteBlob(ctx, "deg", 0, data); err != nil {
		t.Fatal(err)
	}
	// Down a node that owns a target chunk but neither descriptor primary.
	id := chunkID{"deg2", 0}
	down := -1
	for _, o := range s.chunkOwners(id) {
		if o != s.descOwners("deg")[0] && o != s.descOwners("deg2")[0] {
			down = o
			break
		}
	}
	if down < 0 {
		t.Skip("no non-primary owner available in this placement")
	}
	s.SetDown(cluster.NodeID(down), true)
	if err := s.RenameBlob(ctx, "deg", "deg2"); err != nil {
		t.Fatalf("degraded rename: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadBlob(ctx, "deg2", 0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read after rename = (%v, %x)", err, got)
	}
	s.SetDown(cluster.NodeID(down), false)
	if n := s.RepairPending(); n != 0 {
		t.Fatalf("repair debt outstanding after rejoin: %d", n)
	}
	if _, err := s.ReadBlob(ctx, "deg2", 0, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-repair read = (%v, %x)", err, got)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}
