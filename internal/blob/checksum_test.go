package blob

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/storage"
)

// TestLogBytesPinned pins the log's bytes: a fixed InlineFanout script —
// create, a multi-chunk 2PC write, a direct single-chunk write, a partial
// overwrite, a shrinking truncate, a delete, and a degraded write during a
// flap whose rejoin repair installs the missed copy — must leave every
// (node, lane) medium with exactly the SHA-256 below. A change to how records
// are framed or checksummed that should not move a byte fails here; one that
// moves them on purpose re-pins the table and says why. CheckpointAll is left
// out: its lane jobs run concurrently and draw order keys from one per-server
// counter, so the keys its records get depend on the schedule.
func TestLogBytesPinned(t *testing.T) {
	pinned := []string{
		"node 0 lane 0 7fc377d23a7a94da1592c229de1f1056d7ee3adf22ea6716ae27a44164293653",
		"node 0 lane 1 9fd96cfd915724f92f4847618a497068bae8a4b07e0a36e7aa25bcb932561f4f",
		"node 1 lane 0 69519b60273d1a484043e894c0119aeda222c24c49298b21ada7bad4387080e1",
		"node 1 lane 1 6d9cbc434163661345d60d0b9393ce5c14165c53f05c7f04695158b2ca91f2ce",
		"node 2 lane 0 7d4c7817a3bc5f9164dd898a20ce60ca7164e84cf1f9df23ee4ee072853d611c",
		"node 2 lane 1 b83f50cd654c8460442f28b2ffb825445494b03109838b60ea82fbdcf1d47550",
	}
	s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 5}),
		Config{ChunkSize: 32, Replication: 2, WALLanes: 2, InlineFanout: true})
	ctx := storage.NewContext()
	write := func(key string, off int64, tag, n int) error {
		_, err := s.WriteBlob(ctx, key, off, pattern(tag, n))
		return err
	}
	if err := errors.Join(
		s.CreateBlob(ctx, "a"), s.CreateBlob(ctx, "b"), s.CreateBlob(ctx, "c"),
		write("a", 0, 1, 4*32), // 2PC over four chunks
		write("c", 0, 5, 3*32),
		write("b", 0, 2, 20), // direct, one chunk
		write("a", 40, 3, 8), // partial overwrite of chunk 1
		s.TruncateBlob(ctx, "a", 70),
		s.DeleteBlob(ctx, "b"),
	); err != nil {
		t.Fatal(err)
	}
	// A flap: the write misses one owner of chunk 0, and the rejoin repair
	// installs the copy it missed.
	flapped := cluster.NodeID(s.chunkOwners(chunkID{"a", 0})[1])
	s.SetDown(flapped, true)
	if err := write("a", 0, 4, 64); err != nil || s.RepairPending() == 0 {
		t.Fatalf("write during the flap: %v with %d debt entries, want a degraded write", err, s.RepairPending())
	}
	s.SetDown(flapped, false)
	if s.RepairPending() != 0 {
		t.Fatalf("%d debt entries after the rejoin", s.RepairPending())
	}

	var got []string
	for i, sv := range s.servers {
		for l := 0; l < sv.wal.Lanes(); l++ {
			h := sha256.New()
			if _, err := io.Copy(h, sv.wal.LaneBuffer(l).Reader()); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("node %d lane %d %x", i, l, h.Sum(nil)))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(pinned) {
		for _, line := range got {
			t.Logf("%q,", line)
		}
		t.Fatal("lane media moved (got above, one per (node, lane))")
	}
}

// TestCheckpointRecordsPinned pins what CheckpointAll streams, the part of the
// log TestLogBytesPinned leaves out. A fixed InlineFanout script — creates,
// 2PC and direct writes, a partial overwrite, a shrinking truncate and a
// delete, then a write while one owner is soft-down — is checkpointed twice:
// once with that owner still down, so the tombstones are re-logged, and once
// after its rejoin, when the store is clean and the
// tombstones are forgotten. After each, every (node, lane) medium must decode
// to records whose types and payloads hash to the SHA-256 below. The order
// keys are left out: the lane jobs run concurrently and draw them from one
// per-server counter, so they depend on the schedule.
func TestCheckpointRecordsPinned(t *testing.T) {
	pinned := []string{
		"down node 0 lane 0 2 records 534fd1608d3c3968d214dc38efc827e49bcf9318802b0ae5d08b2f4420b5249e",
		"down node 0 lane 1 3 records e5350a35c9481a52110f48658692205e079ad4075e4b853bbaa749111db7256d",
		"down node 0 lane 2 1 records 17a2c7dede270e8bfa0fcfe870f90efe4064e7519f1105ef5b6eeee8e464d871",
		"down node 0 lane 3 5 records d24bdf866faa39088bcaeb3d37f067c706817274ad020d0e99ccbe5d0fc792a9",
		"down node 1 lane 0 6 records 3519c11dccb5382930d43bf66a574d21218901376993c8518430b30cacc0203e",
		"down node 1 lane 1 4 records cb92ce15977e2ffd8217c7346d68b8578ca255b53b548bb574aa0242bf471ea7",
		"down node 1 lane 2 0 records e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"down node 1 lane 3 13 records bdb65ed2be49a9219ca9bbaecb58380f00c970a64103619be33692fd587fbf48",
		"down node 2 lane 0 0 records e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"down node 2 lane 1 3 records 3b0b4203edd8af4be560b6f74b85c824c508d7a4ef83e2e699a11643e3faaa4b",
		"down node 2 lane 2 1 records 17a2c7dede270e8bfa0fcfe870f90efe4064e7519f1105ef5b6eeee8e464d871",
		"down node 2 lane 3 5 records 28d79bf5a9b3d1869a0ccc3e6e24361b7e368282081bb352d8d3c7a87bac0fa3",
		"clean node 0 lane 0 1 records e9c4362692b1a29edfe1e081e9e5321a925373c196fff2f53f05a4f2466bd194",
		"clean node 0 lane 1 2 records dd9506e2d5b86ccee883d8ca67008f9627d84fc89a52aa80d364bb925b3c42e4",
		"clean node 0 lane 2 1 records 17a2c7dede270e8bfa0fcfe870f90efe4064e7519f1105ef5b6eeee8e464d871",
		"clean node 0 lane 3 3 records 125739d8613ac7481546784b8e0613eb0d03a350f8bcc1f8c998d01d287fcc95",
		"clean node 1 lane 0 1 records e9c4362692b1a29edfe1e081e9e5321a925373c196fff2f53f05a4f2466bd194",
		"clean node 1 lane 1 2 records d79cd5871ac3e3de9363418c33cfea1d134ac832004c673a50700a647e548893",
		"clean node 1 lane 2 0 records e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"clean node 1 lane 3 3 records 8ecd5cdd49c2a7f0100c4812b3e68c441c5381d05cdd7f8d205fb5e2b29369b8",
		"clean node 2 lane 0 0 records e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		"clean node 2 lane 1 2 records a3f988a34948fbe0f3b2f3ae15861a3c9a28a8f8edf83440d1ce06d51825ca1c",
		"clean node 2 lane 2 1 records 17a2c7dede270e8bfa0fcfe870f90efe4064e7519f1105ef5b6eeee8e464d871",
		"clean node 2 lane 3 4 records f6b9916533c9f756ecc6d8f3da7ed97dc4ccb36c1fca5c6508e916532d346ae7",
	}
	s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 7}),
		Config{ChunkSize: 32, Replication: 2, WALLanes: 4, InlineFanout: true})
	ctx := storage.NewContext()
	write := func(key string, off int64, tag, n int) error {
		_, err := s.WriteBlob(ctx, key, off, pattern(tag, n))
		return err
	}
	if err := errors.Join(
		s.CreateBlob(ctx, "a"), s.CreateBlob(ctx, "b"), s.CreateBlob(ctx, "c"), s.CreateBlob(ctx, "d"),
		write("a", 0, 1, 6*32), // 2PC over six chunks
		write("c", 0, 5, 3*32),
		write("b", 0, 2, 20), // direct, one chunk
		write("d", 32, 6, 32),
		write("a", 40, 3, 8), // partial overwrite of chunk 1
		s.TruncateBlob(ctx, "a", 70),
		s.DeleteBlob(ctx, "b"),
	); err != nil {
		t.Fatal(err)
	}
	flapped := cluster.NodeID(s.chunkOwners(chunkID{"c", 0})[1])
	s.SetDown(flapped, true)
	if err := write("c", 0, 4, 64); err != nil || s.RepairPending() == 0 {
		t.Fatalf("write during the flap: %v with %d debt entries, want a degraded write", err, s.RepairPending())
	}
	var got []string
	media := func(when string) {
		for i, sv := range s.servers {
			for l := 0; l < sv.wal.Lanes(); l++ {
				recs, err := laneRecords(sv.wal.LaneBuffer(l))
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, rec := range recs {
					p := rec.Bytes()
					h.Write(binary.LittleEndian.AppendUint32([]byte{byte(rec.Type)}, uint32(len(p))))
					h.Write(p)
				}
				got = append(got, fmt.Sprintf("%s node %d lane %d %d records %x", when, i, l, len(recs), h.Sum(nil)))
			}
		}
	}
	s.CheckpointAll()
	media("down")
	s.SetDown(flapped, false)
	if s.RepairPending() != 0 {
		t.Fatalf("%d debt entries after the rejoin", s.RepairPending())
	}
	s.CheckpointAll()
	media("clean")
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if fmt.Sprint(got) != fmt.Sprint(pinned) {
		for _, line := range got {
			t.Logf("%q,", line)
		}
		t.Fatal("checkpoint records moved (got above, one per checkpoint, node and lane)")
	}
}

// TestRememberedSumsFollowTheBytes pins when a chunk entry remembers its
// CRC32C, and that CheckInvariants rule 6 names one that lies. Whole-chunk
// writes, 2PC and direct, a repair install and a replay of a whole-chunk
// record remember on every copy they land on; a partial overwrite and a trim
// forget.
func TestRememberedSumsFollowTheBytes(t *testing.T) {
	s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 5}),
		Config{ChunkSize: 32, Replication: 2, WALLanes: 2, InlineFanout: true})
	ctx := storage.NewContext()
	entry := func(node int, id chunkID) chunkBytes {
		st := s.servers[node].stripe(id.ringHash())
		st.mu.RLock()
		defer st.mu.RUnlock()
		return st.m[id]
	}
	step := func(what string, err error, id chunkID, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("%s: %s", what, msg)
		}
		got := 0
		for _, o := range s.chunkOwners(id) {
			if entry(o, id).summed {
				got++
			}
		}
		if got != want {
			t.Fatalf("%s: %d owners of chunk %d remember a sum, want %d", what, got, id.idx, want)
		}
	}
	write := func(off int64, tag, n int) error {
		_, err := s.WriteBlob(ctx, "k", off, pattern(tag, n))
		return err
	}
	c0, c1 := chunkID{"k", 0}, chunkID{"k", 1}
	step("create", s.CreateBlob(ctx, "k"), c0, 0)
	step("2PC write of chunks 0-1", write(0, 1, 64), c1, 2)
	step("partial overwrite of chunk 0", write(8, 2, 4), c0, 0)
	step("direct write of all of chunk 1", write(32, 3, 32), c1, 2)
	step("trim of chunk 1", s.TruncateBlob(ctx, "k", 40), c1, 0)
	step("direct write of all of chunk 0", write(0, 4, 32), c0, 2)

	owners := s.chunkOwners(c0)
	s.Crash(cluster.NodeID(owners[1]))
	step("replay", s.Recover(cluster.NodeID(owners[1])), c0, 2)
	s.SetDown(cluster.NodeID(owners[1]), true)
	step("degraded write", write(0, 5, 32), c0, 2)
	s.SetDown(cluster.NodeID(owners[1]), false)
	step("rejoin repair", nil, c0, 2)

	st := s.servers[owners[0]].stripe(c0.ringHash())
	st.mu.Lock()
	e := st.m[c0]
	e.sum ^= 1
	st.m[c0] = e
	st.mu.Unlock()
	want := fmt.Sprintf("node %d: chunk 0 of %q remembers a checksum its bytes do not have", owners[0], "k")
	if msg := s.CheckInvariants(); msg != want {
		t.Fatalf("a wrong remembered sum: CheckInvariants says %q, want %q", msg, want)
	}
}
