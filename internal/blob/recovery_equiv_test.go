// recovery_equiv_test.go pins the parallel recovery pipeline against the
// single-threaded oracle (Config.SerialRecovery) and sweeps crash points
// exhaustively:
//
//   - TestCrashPointSweep runs a scripted multi-blob workload (2PC writes,
//     truncates, deletes, a checkpoint) and then crashes the cluster at
//     EVERY order-key boundary of the resulting logs — plus a torn-
//     mid-record variant of each — recovering every replica and checking
//     the parallel and serial paths land on byte-identical state. At every
//     boundary that corresponds to a completed operation it additionally
//     verifies the recovered blobs bit-for-bit against the workload's
//     recorded expected state and the cross-replica invariants.
//   - TestFailedWriteCrashSweep crashes the cluster after every record a
//     multi-chunk write that died in its data phase appended, and requires
//     the pre-write state back on every replica.
//   - TestRecoveryEquivalenceRandomized drives randomized workloads
//     (random lane counts, op mixes, concurrent fan-out 2PC) and
//     randomized tears/corruption, then crashes the whole cluster and
//     requires the two recovery paths to agree on every node: same error
//     class, same descriptors, same chunk bytes, same repaired lane media.
//
// All three exploit that the two paths share the merge engine and differ
// only in decode staging — so any divergence is a real pipeline bug, not
// tolerated nondeterminism.
package blob

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// captureLanes snapshots the raw bytes of every WAL lane of one server.
func captureLanes(sv *server) [][]byte {
	out := make([][]byte, sv.wal.Lanes())
	for lane := range out {
		var b bytes.Buffer
		b.ReadFrom(sv.wal.LaneBuffer(lane).Reader())
		out[lane] = b.Bytes()
	}
	return out
}

// restoreLanes rewrites a server's lane media to previously captured
// bytes. Log byte accounting is left stale on purpose: recovery re-derives
// it (SetSize) from the merged prefix, exactly as it would after a real
// crash left the medium and the in-memory counters out of sync.
func restoreLanes(sv *server, raw [][]byte) {
	for lane, b := range raw {
		lb := sv.wal.LaneBuffer(lane)
		lb.Reset()
		if len(b) > 0 {
			lb.Write(b)
		}
	}
}

// nodeState is one server's complete recovered footprint: descriptor
// sizes, chunk bytes, and the repaired lane media.
type nodeState struct {
	descs  map[string]int64
	chunks map[chunkID]string
	lanes  []string
}

func captureNode(sv *server) nodeState {
	st := nodeState{
		descs:  make(map[string]int64),
		chunks: make(map[chunkID]string),
	}
	sv.mu.RLock()
	sv.blobs.ascend("", func(k string, d descriptor) { st.descs[k] = d.size })
	sv.mu.RUnlock()
	sv.forEachChunk(func(id chunkID, data []byte, _ uint64) {
		st.chunks[id] = string(data)
	})
	for _, raw := range captureLanes(sv) {
		st.lanes = append(st.lanes, string(raw))
	}
	return st
}

// compareRecoveryModes crashes the whole cluster twice from the same lane
// images — every server's media as it stood on entry — and recovers every
// server in node order with last moved to the end: once through the parallel
// pipeline, once through the serial oracle. The two passes must agree on every
// server: error class, descriptors, chunk bytes and repaired lane media. Fans
// run inline meanwhile, so a repair pass appends in one order both times. The
// cluster is left as the serial pass recovered it; a server both paths found
// corrupt stays down.
func compareRecoveryModes(t *testing.T, s *Store, last int) {
	t.Helper()
	images := captureAllLanes(s)
	order := make([]int, 0, len(s.servers))
	for node := range s.servers {
		if node != last {
			order = append(order, node)
		}
	}
	order = append(order, last)
	inline := s.cfg.InlineFanout
	s.cfg.InlineFanout = true
	defer func() { s.cfg.InlineFanout, s.cfg.SerialRecovery = inline, false }()
	pass := func(serial bool) ([]error, []nodeState) {
		restoreAllLanes(s, images)
		for node := range s.servers {
			s.Crash(cluster.NodeID(node))
		}
		s.cfg.SerialRecovery = serial
		errs := make([]error, len(s.servers))
		for _, node := range order {
			errs[node] = s.Recover(cluster.NodeID(node))
		}
		states := make([]nodeState, len(s.servers))
		for node, sv := range s.servers {
			states[node] = captureNode(sv)
		}
		return errs, states
	}
	errsP, statesP := pass(false)
	errsS, statesS := pass(true)
	for node := range s.servers {
		errP, errS, stP, stS := errsP[node], errsS[node], statesP[node], statesS[node]
		if (errP == nil) != (errS == nil) {
			t.Fatalf("node %d: recovery outcomes diverge: parallel %v, serial %v", node, errP, errS)
		}
		if errP != nil {
			if !errors.Is(errP, wal.ErrCorrupt) || !errors.Is(errS, wal.ErrCorrupt) {
				t.Fatalf("node %d: non-corruption recovery errors: parallel %v, serial %v", node, errP, errS)
			}
			continue
		}
		if !reflect.DeepEqual(stP.descs, stS.descs) {
			t.Fatalf("node %d: descriptors diverge between parallel and serial recovery:\nparallel %v\nserial   %v",
				node, stP.descs, stS.descs)
		}
		if !reflect.DeepEqual(stP.chunks, stS.chunks) {
			t.Fatalf("node %d: chunk tables diverge between parallel and serial recovery", node)
		}
		if !reflect.DeepEqual(stP.lanes, stS.lanes) {
			dump := func(raw string) []string {
				var out []string
				dec := wal.NewDecoder(bytes.NewReader([]byte(raw)))
				for {
					rec, _, done, err := dec.Next()
					if err != nil || done {
						if err != nil {
							out = append(out, fmt.Sprintf("ERR:%v", err))
						}
						return out
					}
					out = append(out, fmt.Sprintf("%v/lsn%d/%dB", rec.Type, rec.LSN, len(rec.Payload)))
				}
			}
			for i := range stP.lanes {
				if stP.lanes[i] != stS.lanes[i] {
					t.Logf("lane %d parallel: %v", i, dump(stP.lanes[i]))
					t.Logf("lane %d serial:   %v", i, dump(stS.lanes[i]))
				}
			}
			t.Fatalf("node %d: repaired lane media diverge between parallel and serial recovery", node)
		}
	}
}

// ---- crash-point sweep ----

// sweeper drives a deterministic workload (InlineFanout, full replication)
// while recording, after every operation, the order-key boundary every
// server reached and a deep copy of the expected logical blob contents —
// the oracle the sweep checks recovered state against at op boundaries.
type sweeper struct {
	t    *testing.T
	s    *Store
	ctx  *storage.Context
	want map[string][]byte
	// boundaries maps an order key N (the same on every server, asserted)
	// to the expected blob contents after the op that ended at N.
	boundaries map[uint64]map[string][]byte
}

func newSweeper(t *testing.T, s *Store) *sweeper {
	return &sweeper{
		t:          t,
		s:          s,
		ctx:        storage.NewContext(),
		want:       make(map[string][]byte),
		boundaries: make(map[uint64]map[string][]byte),
	}
}

// lastKey returns the highest order key assigned on a server, asserting
// every server agrees (full replication + inline execution make the
// per-server logical histories identical).
func (w *sweeper) lastKey() uint64 {
	w.t.Helper()
	k := w.s.servers[0].wal.NextKey() - 1
	for n, sv := range w.s.servers {
		if got := sv.wal.NextKey() - 1; got != k {
			w.t.Fatalf("server %d at order key %d, server 0 at %d: workload is not fully replicated", n, got, k)
		}
	}
	return k
}

func (w *sweeper) mark() {
	w.t.Helper()
	snap := make(map[string][]byte, len(w.want))
	for k, v := range w.want {
		snap[k] = append([]byte(nil), v...)
	}
	w.boundaries[w.lastKey()] = snap
}

// pattern returns deterministic bytes distinguishable per (tag, length).
func pattern(tag, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(tag + i*13)
	}
	return p
}

func (w *sweeper) create(key string) {
	w.t.Helper()
	if err := w.s.CreateBlob(w.ctx, key); err != nil {
		w.t.Fatal(err)
	}
	w.want[key] = []byte{}
	w.mark()
}

func (w *sweeper) write(key string, off, n, tag int) {
	w.t.Helper()
	data := pattern(tag, n)
	if _, err := w.s.WriteBlob(w.ctx, key, int64(off), data); err != nil {
		w.t.Fatal(err)
	}
	cur := w.want[key]
	if need := off + n; len(cur) < need {
		grown := make([]byte, need)
		copy(grown, cur)
		cur = grown
	}
	copy(cur[off:], data)
	w.want[key] = cur
	w.mark()
}

func (w *sweeper) truncate(key string, size int) {
	w.t.Helper()
	if err := w.s.TruncateBlob(w.ctx, key, int64(size)); err != nil {
		w.t.Fatal(err)
	}
	cur := w.want[key]
	if size <= len(cur) {
		w.want[key] = cur[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, cur)
		w.want[key] = grown
	}
	w.mark()
}

func (w *sweeper) delete(key string) {
	w.t.Helper()
	if err := w.s.DeleteBlob(w.ctx, key); err != nil {
		w.t.Fatal(err)
	}
	delete(w.want, key)
	w.mark()
}

// checkpoint compacts every log and restarts the sweep oracle: order keys
// restart at 1, so boundaries recorded before the checkpoint no longer
// name positions in the new logs.
func (w *sweeper) checkpoint() {
	w.t.Helper()
	w.s.CheckpointAll()
	w.boundaries = make(map[uint64]map[string][]byte)
	w.mark()
}

// laneIndex maps one lane's records to their order keys and cumulative
// end offsets, so a crash point "everything with key <= N persisted" turns
// into per-lane truncation offsets.
type laneIndex struct {
	keys []uint64
	ends []int64
}

func indexLanes(t *testing.T, sv *server) []laneIndex {
	t.Helper()
	out := make([]laneIndex, sv.wal.Lanes())
	for lane := range out {
		dec := wal.NewDecoder(sv.wal.LaneBuffer(lane).Reader())
		var off int64
		for {
			rec, frame, done, err := dec.Next()
			if err != nil {
				t.Fatalf("lane %d: indexing decode: %v", lane, err)
			}
			if done {
				break
			}
			off += frame
			out[lane].keys = append(out[lane].keys, rec.LSN)
			out[lane].ends = append(out[lane].ends, off)
		}
	}
	return out
}

// applyCut truncates a server's lanes to the crash point "all records with
// key <= n persisted". With torn=true the record with key n+1 is
// additionally left as a torn fragment on its lane (cut 3 bytes short of
// its end), the mid-write crash shape; recovery must discard the fragment
// and still land on prefix n.
func applyCut(sv *server, idx []laneIndex, n uint64, torn bool) {
	for lane := range idx {
		cut := int64(0)
		for j, k := range idx[lane].keys {
			switch {
			case k <= n:
				cut = idx[lane].ends[j]
			case torn && k == n+1:
				cut = idx[lane].ends[j] - 3
			}
		}
		sv.wal.LaneBuffer(lane).Truncate(int(cut))
	}
}

// runCrashPointSweep crashes the whole cluster at every order-key boundary
// in [base, lastKey] — and at the torn-mid-record variant of each — then
// recovers every replica with the parallel pipeline, re-runs the identical
// crash with the serial oracle, and requires byte-identical outcomes. At
// op boundaries the recovered blobs are checked against the sweeper's
// recorded expected contents and the cross-replica invariants. The store
// is left fully recovered (all media restored) when the sweep returns.
//
// Sweeping key boundaries is exactly "a medium that crashes at every Nth
// write boundary": the workload runs inline (serial), so the medium state
// at the instant write N+1 begins is precisely "every record with key <= N
// persisted" — per-lane prefixes cut at those records — and the torn
// variant is the crash landing inside write N+1 itself. AppendNV
// batches are covered too: a cut between two records of one vectored
// batch append is the torn tail of that single medium write.
func runCrashPointSweep(t *testing.T, w *sweeper, base uint64, allKeys []string) {
	t.Helper()
	s := w.s
	last := w.lastKey()
	full := make([][][]byte, len(s.servers))
	idx := make([][]laneIndex, len(s.servers))
	for si, sv := range s.servers {
		full[si] = captureLanes(sv)
		idx[si] = indexLanes(t, sv)
	}
	restoreAll := func(n uint64, torn bool) {
		for si, sv := range s.servers {
			restoreLanes(sv, full[si])
			if n <= last {
				applyCut(sv, idx[si], n, torn)
			}
			s.Crash(cluster.NodeID(si))
		}
	}
	recoverAll := func(serial bool) {
		s.cfg.SerialRecovery = serial
		for si := range s.servers {
			if err := s.Recover(cluster.NodeID(si)); err != nil {
				t.Fatalf("recover node %d (serial=%v): %v", si, serial, err)
			}
		}
		s.cfg.SerialRecovery = false
	}
	for n := base; n <= last; n++ {
		for _, torn := range []bool{false, true} {
			if torn && n == last {
				continue // no record n+1 to tear
			}
			restoreAll(n, torn)
			recoverAll(false)
			parallel := make([]nodeState, len(s.servers))
			for si, sv := range s.servers {
				parallel[si] = captureNode(sv)
				recs, err := s.LogRecords(cluster.NodeID(si))
				if err != nil {
					t.Fatalf("crash point %d torn=%v: log records node %d: %v", n, torn, si, err)
				}
				if uint64(len(recs)) != n {
					t.Fatalf("crash point %d torn=%v: node %d recovered %d records, want exactly the prefix %d",
						n, torn, si, len(recs), n)
				}
			}

			// The identical crash through the serial oracle must produce the
			// identical bytes everywhere: state AND repaired media.
			restoreAll(n, torn)
			recoverAll(true)
			for si, sv := range s.servers {
				serial := captureNode(sv)
				if !reflect.DeepEqual(parallel[si], serial) {
					t.Fatalf("crash point %d torn=%v: node %d diverges between parallel and serial recovery\nparallel descs %v chunks %d lanes %d\nserial   descs %v chunks %d lanes %d",
						n, torn, si,
						parallel[si].descs, len(parallel[si].chunks), laneBytesTotal(parallel[si]),
						serial.descs, len(serial.chunks), laneBytesTotal(serial))
				}
			}

			// At op boundaries the recovered cluster must expose exactly the
			// recorded logical state, with cross-replica invariants intact.
			if want, ok := w.boundaries[n]; ok {
				if msg := s.CheckInvariants(); msg != "" {
					t.Fatalf("crash point %d torn=%v: invariants: %s", n, torn, msg)
				}
				for _, key := range allKeys {
					data, live := want[key]
					size, err := s.BlobSize(w.ctx, key)
					if !live {
						if err == nil {
							t.Fatalf("crash point %d: deleted/uncreated blob %q resurrected with size %d", n, key, size)
						}
						continue
					}
					if err != nil {
						t.Fatalf("crash point %d: blob %q lost: %v", n, key, err)
					}
					if size != int64(len(data)) {
						t.Fatalf("crash point %d: blob %q size %d, want %d", n, key, size, len(data))
					}
					if len(data) == 0 {
						continue
					}
					got := make([]byte, len(data))
					if _, err := s.ReadBlob(w.ctx, key, 0, got); err != nil {
						t.Fatalf("crash point %d: read %q: %v", n, key, err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("crash point %d: blob %q content diverges from the op-boundary oracle", n, key)
					}
				}
			}
		}
	}
	// Leave the store at its full (uncrashed) state for the caller.
	restoreAll(last+1, false)
	recoverAll(false)
}

func laneBytesTotal(st nodeState) int {
	n := 0
	for _, l := range st.lanes {
		n += len(l)
	}
	return n
}

func TestCrashPointSweep(t *testing.T) {
	// Replication == nodes and inline fan-out: every server logs the same
	// logical history with the same order keys, so one cut specification
	// crashes every replica consistently and recovered replicas must
	// converge. 4 lanes (not 16) force heavy lane sharing, so the sweep
	// crosses many lane-interleaving shapes.
	s := New(cluster.New(cluster.Config{Nodes: 3, Seed: 71}),
		Config{ChunkSize: 64, Replication: 3, WALLanes: 4, InlineFanout: true})
	w := newSweeper(t, s)
	allKeys := []string{"b0", "b1", "b2", "b3", "b4"}

	// Phase A: mixed history, no checkpoint — every boundary from the
	// empty log up.
	w.create("b0")
	w.create("b1")
	w.create("b2")
	w.create("b3")
	w.write("b0", 0, 200, 1) // 4 chunks: full 2PC prepare/commit
	w.write("b1", 0, 40, 2)  // single chunk: direct commit
	w.write("b2", 0, 300, 3) // 5 chunks
	w.write("b0", 30, 50, 4) // straddles chunks 0-1: 2PC overwrite
	w.truncate("b2", 100)    // chunk drops + boundary trim
	w.write("b3", 0, 100, 5)
	w.delete("b3")
	w.write("b1", 40, 90, 6) // extends across chunks 0-2
	runCrashPointSweep(t, w, 0, allKeys)

	// Phase B: checkpoint, then more history — boundaries sweep the
	// compacted log from the snapshot edge onward (a crash before the
	// snapshot completes is out of scope: Checkpoint requires quiescence
	// and is not itself crash-atomic).
	w.checkpoint()
	base := w.lastKey()
	w.write("b0", 10, 120, 7)
	w.truncate("b0", 64)
	w.write("b2", 90, 30, 8)
	w.create("b4")
	w.write("b4", 0, 70, 9)
	w.delete("b1")
	runCrashPointSweep(t, w, base, allKeys)
}

// TestFailedWriteCrashSweep: a 3-chunk overwrite dies in its data phase on a
// permanent disk-write fault at one participant's primary, leaving prepares
// that no commit will ever follow. The whole cluster then crashes after every
// record that write appended — every combination of per-server prefixes, a
// superset of the instants that really occurred — whole and with the next
// record torn, through the parallel and the serial Recover: every replica
// must come back holding exactly the pre-write descriptors and chunk
// bytes. Nothing but the missing commit keeps those prepares dead, so this
// is the sweep that says replay needs no abort marker.
func TestFailedWriteCrashSweep(t *testing.T) {
	// Two nodes at Replication 2: the history up to the failing write is fully
	// replicated, which is what the sweeper's shared order-key boundary needs.
	s := New(cluster.New(cluster.Config{Nodes: 2, Seed: 71}),
		Config{ChunkSize: 64, Replication: 2, WALLanes: 4, InlineFanout: true})
	w := newSweeper(t, s)
	// The victim is primary of the middle chunk only: chunks 0 and 2 log their
	// prepare on the other node (the victim's replica copy faults and is
	// excluded), chunk 1 is refused outright.
	const victim = 1
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("fw-%d", i)
		if s.chunkOwners(chunkID{k, 0})[0] != victim && s.chunkOwners(chunkID{k, 1})[0] == victim &&
			s.chunkOwners(chunkID{k, 2})[0] != victim {
			key = k
		}
	}
	w.create(key)
	w.write(key, 0, 192, 1)
	w.write(key, 20, 150, 2)
	base := w.lastKey()
	pre := make([]nodeState, len(s.servers))
	for si, sv := range s.servers {
		pre[si] = captureNode(sv)
	}

	errDisk := errors.New("injected: disk write refused")
	s.cluster.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{
		{Node: victim, Kind: cluster.FaultDiskWrite, Prob: 1, Fault: cluster.Fault{Err: errDisk}},
	}))
	if _, err := s.WriteBlob(w.ctx, key, 0, pattern(3, 192)); !errors.Is(err, errDisk) {
		t.Fatalf("overwrite with a faulted chunk primary: err = %v, want the injected fault", err)
	}
	s.cluster.SetFaultInjector(nil)

	full := make([][][]byte, len(s.servers))
	idx := make([][]laneIndex, len(s.servers))
	last := make([]uint64, len(s.servers))
	appended := uint64(0)
	for si, sv := range s.servers {
		full[si], idx[si], last[si] = captureLanes(sv), indexLanes(t, sv), sv.wal.NextKey()-1
		appended += last[si] - base
	}
	if appended == 0 {
		t.Fatal("the failed write appended no record: nothing to sweep")
	}
	recoverAll := func(cuts []uint64, torn, serial bool) []nodeState {
		for si, sv := range s.servers {
			restoreLanes(sv, full[si])
			applyCut(sv, idx[si], cuts[si], torn)
			s.Crash(cluster.NodeID(si))
		}
		s.cfg.SerialRecovery = serial
		defer func() { s.cfg.SerialRecovery = false }()
		out := make([]nodeState, len(s.servers))
		for si, sv := range s.servers {
			if err := s.Recover(cluster.NodeID(si)); err != nil {
				t.Fatalf("cuts %v torn=%v serial=%v: recover node %d: %v", cuts, torn, serial, si, err)
			}
			out[si] = captureNode(sv)
		}
		return out
	}
	images := 0
	for n0 := base; n0 <= last[0]; n0++ {
		for n1 := base; n1 <= last[1]; n1++ {
			cuts := []uint64{n0, n1}
			for _, torn := range []bool{false, true} {
				if torn && n0 == last[0] && n1 == last[1] {
					continue // no next record to tear
				}
				images++
				parallel := recoverAll(cuts, torn, false)
				if serial := recoverAll(cuts, torn, true); !reflect.DeepEqual(parallel, serial) {
					t.Fatalf("cuts %v torn=%v: parallel and serial recovery diverge", cuts, torn)
				}
				for si := range s.servers {
					if !reflect.DeepEqual(parallel[si].descs, pre[si].descs) || !reflect.DeepEqual(parallel[si].chunks, pre[si].chunks) {
						t.Fatalf("cuts %v torn=%v: node %d did not recover to its pre-write state", cuts, torn, si)
					}
				}
				if msg := s.CheckInvariants(); msg != "" {
					t.Fatalf("cuts %v torn=%v: invariants: %s", cuts, torn, msg)
				}
				got := make([]byte, len(w.want[key]))
				if _, err := s.ReadBlob(w.ctx, key, 0, got); err != nil || !bytes.Equal(got, w.want[key]) {
					t.Fatalf("cuts %v torn=%v: blob does not read back as its pre-write bytes (err %v)", cuts, torn, err)
				}
			}
		}
	}
	t.Logf("%d records appended by the failed write, %d crash images", appended, images)
}

// TestRecoveryEquivalenceRandomized: randomized lane counts, op mixes
// (concurrent fan-out 2PC included), tears at arbitrary byte offsets, and
// occasional corruption — parallel and serial recovery must agree on every
// node, byte for byte, error for error.
func TestRecoveryEquivalenceRandomized(t *testing.T) {
	rng := sim.NewRNG(2025)
	laneChoices := []int{1, 2, 3, 4, 16}
	keys := []string{"r0", "r1", "r2", "r3", "r4"}
	for iter := 0; iter < 25; iter++ {
		lanes := laneChoices[rng.Intn(len(laneChoices))]
		s := New(cluster.New(cluster.Config{Nodes: 4, Seed: uint64(iter + 1)}),
			Config{ChunkSize: 48, Replication: 2, WALLanes: lanes})
		ctx := storage.NewContext()
		live := make(map[string]bool)
		ops := 12 + rng.Intn(18)
		for i := 0; i < ops; i++ {
			key := keys[rng.Intn(len(keys))]
			switch rng.Intn(10) {
			case 0, 1:
				if !live[key] {
					if err := s.CreateBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
					live[key] = true
				}
			case 2, 3, 4, 5, 6:
				if live[key] {
					data := make([]byte, 1+rng.Intn(200))
					rng.Fill(data)
					if _, err := s.WriteBlob(ctx, key, int64(rng.Intn(120)), data); err != nil {
						t.Fatal(err)
					}
				}
			case 7:
				if live[key] {
					if err := s.TruncateBlob(ctx, key, int64(rng.Intn(150))); err != nil {
						t.Fatal(err)
					}
				}
			case 8:
				if live[key] {
					if err := s.DeleteBlob(ctx, key); err != nil {
						t.Fatal(err)
					}
					live[key] = false
				}
			case 9:
				s.CheckpointAll()
			}
		}
		// Randomized crash damage, different on every server: torn lanes
		// at arbitrary byte offsets, sometimes a flipped byte.
		for _, sv := range s.servers {
			for j := rng.Intn(3); j > 0; j-- {
				lb := sv.wal.LaneBuffer(rng.Intn(lanes))
				if lb.Len() > 0 {
					lb.Truncate(rng.Intn(lb.Len() + 1))
				}
			}
			if rng.Intn(4) == 0 {
				lb := sv.wal.LaneBuffer(rng.Intn(lanes))
				if lb.Len() > 0 {
					if err := lb.Corrupt(rng.Intn(lb.Len())); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		compareRecoveryModes(t, s, len(s.servers)-1)
	}
}
