package blob

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wal"
)

// mkStore builds a store over a fresh cluster with the given fan-out mode.
func mkStore(nodes int, cfg Config, inline bool) *Store {
	cfg.InlineFanout = inline
	return New(cluster.New(cluster.Config{Nodes: nodes, Seed: 42}), cfg)
}

// detScript drives one client's worth of every fan shape — replicated
// creates, multi- and single-chunk writes, striped reads, truncates, a scan,
// failing and deleting ops — and stamps the client's virtual
// clock after each.
func detScript(s *Store) ([]int64, error) {
	ctx := storage.NewContext()
	var stamps []int64
	stamp := func() { stamps = append(stamps, int64(ctx.Clock.Now())) }

	for i := 0; i < 4; i++ {
		if err := s.CreateBlob(ctx, fmt.Sprintf("det-%d", i)); err != nil {
			return nil, err
		}
		stamp()
	}
	buf := make([]byte, 200)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("det-%d", i)
		if _, err := s.WriteBlob(ctx, key, int64(i*13), buf); err != nil { // multi-chunk 2PC
			return nil, err
		}
		stamp()
		if _, err := s.WriteBlob(ctx, key, 5, buf[:8]); err != nil { // single chunk
			return nil, err
		}
		stamp()
		rd := make([]byte, 150)
		if _, err := s.ReadBlob(ctx, key, 3, rd); err != nil {
			return nil, err
		}
		stamp()
		if err := s.TruncateBlob(ctx, key, 70); err != nil { // shrink
			return nil, err
		}
		stamp()
		if err := s.TruncateBlob(ctx, key, 70); err != nil { // no-op
			return nil, err
		}
		stamp()
	}
	if _, err := s.Scan(ctx, "det-"); err != nil {
		return nil, err
	}
	stamp()
	// Error paths must charge deterministically too.
	owners := s.chunkOwners(chunkID{"det-2", 1})
	s.SetDown(cluster.NodeID(owners[0]), true)
	if _, err := s.WriteBlob(ctx, "det-2", 0, buf[:96]); err == nil {
		return nil, errors.New("write with a chunk primary down succeeded")
	}
	stamp()
	s.SetDown(cluster.NodeID(owners[0]), false)
	if err := s.DeleteBlob(ctx, "det-3"); err != nil {
		return nil, err
	}
	stamp()
	return stamps, nil
}

// gateJob parks the pool worker that takes it until the gate opens.
type gateJob struct {
	parked *sync.WaitGroup
	gate   chan struct{}
}

func (j gateJob) run() { j.parked.Done(); <-j.gate }

// parkPool parks every pool worker on a gate job and returns the func that
// opens the gate. Workers read the queue in order and finish one job before
// the next, so once all are parked every help token queued before the call
// has been read and run, and none is left to reach a worker later.
func parkPool() (open func()) {
	ch := dispatchPool()
	j := gateJob{parked: new(sync.WaitGroup), gate: make(chan struct{})}
	for i := dispatchWorkers(); i > 0; i-- {
		j.parked.Add(1)
		ch <- j
	}
	j.parked.Wait()
	return func() { close(j.gate) }
}

// saturatePool parks every pool worker and fills the token queue behind
// them, so no fan can post a help token, let alone have one taken. The
// returned func opens the gate and waits for the workers (which never
// block) to drain the no-op filler, so the next test finds room again.
func saturatePool() (release func()) {
	open := parkPool()
	for offerHelp(&funcJob{}) {
	}
	return func() {
		open()
		for len(dispatchPool()) > 0 {
			runtime.Gosched()
		}
	}
}

// fanCounters reads the store's help-token counters.
func fanCounters(s *Store) (offered, helped int64) {
	return s.Metrics().Counter("blob.fan.offered").Value(), s.Metrics().Counter("blob.fan.helped").Value()
}

// TestFanoutDeterministicVirtualTime pins the dispatcher's core invariant:
// whichever goroutine physically runs a fan's tasks, every operation lands
// on exactly the virtual clock time of the sequential baseline
// (InlineFanout). Charges are recorded per task and folded at join in
// submission order, so a fan run entirely by its caller (pool saturated: no
// token is ever posted) and fans whose tails helpers race for (eight
// clients at once, each on its own cluster so its clock is its own) must
// both agree with the inline twin bit for bit, at every GOMAXPROCS.
func TestFanoutDeterministicVirtualTime(t *testing.T) {
	cfg := Config{ChunkSize: 32, Replication: 3}
	want, err := detScript(mkStore(6, cfg, true))
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, got []int64, err error) {
		t.Helper()
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != len(want) {
			t.Errorf("stamp counts diverge: inline %d, got %d", len(want), len(got))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("virtual time diverges at op %d: inline %d, got %d", i, want[i], got[i])
				return
			}
		}
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			s := mkStore(6, cfg, true)
			got, err := detScript(s)
			check(t, got, err)
			if offered, helped := fanCounters(s); offered != 0 || helped != 0 {
				t.Errorf("InlineFanout store posted %d tokens, %d tasks helped; want 0/0", offered, helped)
			}

			release := saturatePool()
			s = mkStore(6, cfg, false)
			got, err = detScript(s)
			release()
			check(t, got, err)
			if offered, helped := fanCounters(s); offered != 0 || helped != 0 {
				t.Errorf("saturated pool: %d tokens posted, %d tasks helped; want 0/0", offered, helped)
			}

			const clients = 8
			var wg sync.WaitGroup
			stamps, errs := make([][]int64, clients), make([]error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					stamps[c], errs[c] = detScript(mkStore(6, cfg, false))
				}(c)
			}
			wg.Wait()
			for c := 0; c < clients; c++ {
				check(t, stamps[c], errs[c])
			}
		})
	}
}

// TestPoolSizedByHostNotFirstUse: the pool's worker count is a function of
// the host's CPUs alone, and a store's per-fan token cap follows the
// GOMAXPROCS in force when the store is built — neither remembers whichever
// -cpu value happened to run the first fan.
func TestPoolSizedByHostNotFirstUse(t *testing.T) {
	dispatchPool()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	wantWorkers := min(max(runtime.NumCPU(), 2), maxDispatchWorkers)
	for _, procs := range []int{1, 4, 2} {
		runtime.GOMAXPROCS(procs)
		if got := dispatchWorkers(); got != wantWorkers {
			t.Errorf("GOMAXPROCS=%d: pool size %d, want %d", procs, got, wantWorkers)
		}
		if got := mkStore(3, Config{}, false).helpers; got != procs {
			t.Errorf("GOMAXPROCS=%d: per-fan token cap %d, want %d", procs, got, procs)
		}
	}
	// The cap bounds what a fan posts: a 16-chunk read on a cap-1 store
	// offers exactly one token.
	runtime.GOMAXPROCS(1)
	s := mkStore(6, Config{ChunkSize: 8, Replication: 1}, false)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "cap"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, err := s.WriteBlob(ctx, "cap", 0, buf); err != nil {
		t.Fatal(err)
	}
	before, _ := fanCounters(s)
	if _, err := s.ReadBlob(ctx, "cap", 0, buf); err != nil {
		t.Fatal(err)
	}
	if after, _ := fanCounters(s); after-before != 1 {
		t.Errorf("16-chunk read at cap 1 posted %d tokens, want 1", after-before)
	}
}

// TestStaleHelpTokenHarmless: a token outlives its fan. A worker that reads
// one after the fan was joined and recycled must find nothing to do — or
// legitimately help whichever operation owns the object by then — so tokens
// for an already-recycled fan pushed throughout 1000 mixed ops change no
// result.
func TestStaleHelpTokenHarmless(t *testing.T) {
	s := mkStore(6, Config{ChunkSize: 16, Replication: 3}, false)
	ctx := storage.NewContext()
	stale := s.newFan()
	for i := 0; i < 3; i++ {
		tk := stale.task(taskFunc)
		tk.fn = func(cg *charge) error { return nil }
		stale.spawn(tk)
	}
	stale.join(ctx) // recycled: the next newFan on this P hands it out again

	const keys = 4
	m := newModel(s)
	for k := range keys {
		if err := s.CreateBlob(ctx, fmt.Sprintf("stale-%d", k)); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(7)
	buf := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		if i%3 == 0 {
			dispatchPool() <- stale
		}
		k := rng.Intn(keys)
		key := fmt.Sprintf("stale-%d", k)
		switch rng.Intn(4) {
		case 0, 1:
			off, p := int64(rng.Intn(60)), buf[:1+rng.Intn(len(buf)-1)]
			rng.Fill(p)
			if _, err := s.WriteBlob(ctx, key, off, p); err != nil {
				t.Fatal(err)
			}
		case 2:
			want, _ := m.data(key)
			got := make([]byte, len(want))
			if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("op %d: read of %s = (%d, %v), diverges from the model", i, key, n, err)
			}
		case 3:
			if err := s.TruncateBlob(ctx, key, int64(rng.Intn(120))); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSound(t, s, m)
}

// TestNestedFanRunByHelper: when a pool worker, not the joining caller, runs
// a single-chunk R=3 write's chunk task and the replica sub-fan it appends,
// join must still fold primary-then-parallel-replicas virtual time exactly
// as the inline oracle does, and a replica task's error must still surface
// through firstError.
func TestNestedFanRunByHelper(t *testing.T) {
	data := bytes.Repeat([]byte("n"), 24)
	id := chunkID{"nest", 0}
	// drain stands in for a pool worker that answers the fan's token before
	// the caller reaches join: it runs everything queued, sub-fans included.
	drain := func(f *ctxFan, helper bool) {
		if helper {
			f.run()
		}
	}
	// dataPhase is writeLocked's data phase for one chunk; it returns the
	// virtual time the write took.
	dataPhase := func(s *Store, helper bool) int64 {
		ctx := storage.NewContext()
		if err := s.CreateBlob(ctx, id.key); err != nil {
			t.Fatal(err)
		}
		h := id.ringHash()
		var rbuf [8]replica
		pl := chunkPlace{id: id, h: h, ver: s.surveyChunk(h, id, rbuf[:]).max + 1, owners: s.ownersForHash(h)}
		start := ctx.Clock.Now()
		offered0, helped0 := fanCounters(s)
		fan := s.newFan()
		wt := fan.task(taskWriteChunk)
		wt.pl, wt.plp, wt.data, wt.rec = pl, &pl, data, wal.RecWrite
		fan.spawn(wt)
		drain(fan, helper)
		if _, err := fan.join(ctx); err != nil {
			t.Fatal(err)
		}
		// The second replica task made two unclaimed, so a token went out
		// (unless the queue was full) and the fan reports its counts:
		// helpers — never the caller — ran all three tasks.
		if offered, helped := fanCounters(s); helper && offered > offered0 && helped-helped0 != 3 {
			t.Fatalf("%d of 3 tasks counted as helped", helped-helped0)
		}
		return int64(ctx.Clock.Now() - start)
	}
	cfg := Config{ChunkSize: 64, Replication: 3}
	s := mkStore(6, cfg, false)
	want, got := dataPhase(mkStore(6, cfg, true), false), dataPhase(s, true)
	if got != want {
		t.Fatalf("helper-run nested fan folded %d virtual ns, inline oracle %d", got, want)
	}
	// The primary's copy, then the slower of two parallel replica copies —
	// not their sum: more than one copy's time, less than three.
	if one := dataPhase(mkStore(6, Config{ChunkSize: 64, Replication: 1}, true), false); got <= one || got >= 3*one {
		t.Fatalf("R=3 single-chunk write took %d virtual ns against %d for one copy: not primary-then-parallel-replicas", got, one)
	}
	for _, o := range s.chunkOwners(id) {
		if held, _, ok := s.servers[o].chunkData(id.ringHash(), id); !ok || !bytes.Equal(held, data) {
			t.Fatalf("replica %d holds %q after the helper-run write", o, held)
		}
	}

	// The real replica body degrades instead of failing, so the error case
	// is a hand-built parent whose second replica sub-task refuses.
	errReplica := errors.New("replica refused")
	failPhase := func(s *Store, helper bool) (int64, int, error) {
		ctx := storage.NewContext()
		fan := s.newFan()
		pt := fan.task(taskFunc)
		pt.fn = func(cg *charge) error {
			cg.rpc(0, len(data), 64, 0)
			sf := pt.subFan()
			for node := cluster.NodeID(1); node <= 2; node++ {
				st := sf.task(taskFunc)
				st.fn = func(cg *charge) error {
					cg.diskWrite(node, len(data))
					if node == 2 {
						return errReplica
					}
					return nil
				}
				sf.spawn(st)
			}
			pt.joinSubs(&sf)
			return nil
		}
		fan.spawn(pt)
		drain(fan, helper)
		errIdx, err := fan.join(ctx)
		return int64(ctx.Clock.Now()), errIdx, err
	}
	wantT, _, _ := failPhase(mkStore(6, cfg, true), false)
	gotT, errIdx, err := failPhase(mkStore(6, cfg, false), true)
	if gotT != wantT || errIdx != 0 || !errors.Is(err, errReplica) {
		t.Fatalf("failing sub-fan run by a helper: (%d ns, %d, %v), want (%d ns, 0, %v)", gotT, errIdx, err, wantT, errReplica)
	}
}

// TestHotPathAllocFree: a warm 1-, 4- and 16-chunk read and a 4-chunk
// transactional write allocate nothing — fan, run queue, tasks, ledgers and
// clocks all come back from their pools.
func TestHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const cs = 1 << 10
	s := mkStore(9, Config{ChunkSize: cs, Replication: 3}, false)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "hot"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16*cs)
	if _, err := s.WriteBlob(ctx, "hot", 0, buf); err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 4, 16} {
		if a := testing.AllocsPerRun(100, func() { s.ReadBlob(ctx, "hot", 0, buf[:chunks*cs]) }); a != 0 {
			t.Errorf("warm %d-chunk ReadBlob: %v allocs/op, want 0", chunks, a)
		}
	}
	// Two windows of writes and a checkpoint park the log slabs' high-water
	// on the free lists, as the hot-path benchmarks do before measuring.
	write := func() { s.WriteBlob(ctx, "hot", 0, buf[:4*cs]) }
	for i := 0; i < 256; i++ {
		write()
	}
	s.CheckpointAll()
	if a := testing.AllocsPerRun(100, write); a != 0 {
		t.Errorf("warm 4-chunk WriteBlob: %v allocs/op, want 0", a)
	}
}

// TestTraceOffAllocatesNothing: the appends of repair and migration —
// install and drop, each under the stripe lock — and the debt record and
// clear around them allocate nothing, and neither does a warm foreground
// write, truncate and delete, with no observer and with one copying
// every event into a preallocated slice. The event is a by-value struct, so
// observing costs the subscriber's own work, not a boxed operand per append.
func TestTraceOffAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := mkStore(2, Config{ChunkSize: 64, Replication: 2}, true)
	cg := s.directCharge(storage.NewContext())
	sv := s.servers[0]
	id := chunkID{"traced-chunk", 1 << 20}
	h := id.ringHash()
	data := pattern(3, 32)
	ver := uint64(1 << 20)
	stray := chunkSurvey{reps: []replica{{sv: sv}}}
	step := func() {
		ver++
		s.installChunk(&cg, sv, h, id, chunkBytes{b: data}, ver)
		s.debt.record(h, id, 2, ver)
		s.debt.settle(h, id, &stray, 2)
		s.dropStrays(&cg, &stray, h, id, ver)
	}
	const runs = 100
	ctx := storage.NewContext()
	// Created and written up front: the placement cache's first sight of a
	// chunk allocates.
	keys := make([]string, 64+2*(runs+1))
	for i := range keys {
		keys[i] = fmt.Sprintf("fg-%03d", i)
		if err := s.CreateBlob(ctx, keys[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteBlob(ctx, keys[i], 0, data); err != nil {
			t.Fatal(err)
		}
	}
	fg := func() {
		s.WriteBlob(ctx, keys[0], 0, data)
		s.TruncateBlob(ctx, keys[0], 16)
		s.DeleteBlob(ctx, keys[0])
		keys = keys[1:]
	}
	for i := 0; i < 64; i++ {
		step() // warm the header pool, the stripe maps and the lane's slab
		fg()
	}
	seen := make([]Event, 0, 2*(runs+1))
	ops := make([]Event, 0, 32*(runs+1))
	for _, observer := range []func(Event){nil, func(ev Event) { seen = append(seen, ev) }} {
		s.Observe(observer)
		if a := testing.AllocsPerRun(runs, step); a != 0 {
			t.Errorf("install, record debt, clear debt, drop (observer %v): %v allocs, want 0", observer != nil, a)
		}
		if observer != nil {
			s.Observe(func(ev Event) { ops = append(ops, ev) })
		}
		if a := testing.AllocsPerRun(runs, fg); a != 0 {
			t.Errorf("write, truncate, delete (observer %v): %v allocs, want 0", observer != nil, a)
		}
	}
	if len(seen) != cap(seen) {
		t.Fatalf("observer saw %d appends, want %d", len(seen), cap(seen))
	}
	if len(ops) == 0 {
		t.Fatal("observer saw no foreground event")
	}

	// A warm create and delete of one key, beside another key and on a
	// store it leaves empty: a create's absence check formats no error, and
	// an emptied descriptor table keeps its block for the next create.
	beside, alone := mkStore(2, Config{ChunkSize: 64, Replication: 2}, true), mkStore(2, Config{ChunkSize: 64, Replication: 2}, true)
	if err := beside.CreateBlob(ctx, "kept"); err != nil {
		t.Fatal(err)
	}
	events := 0
	for arm, st := range map[string]*Store{"beside another key": beside, "alone": alone} {
		cycle := func() {
			if err := errors.Join(st.CreateBlob(ctx, "create-delete"), st.DeleteBlob(ctx, "create-delete")); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		for _, observer := range []func(Event){nil, func(Event) { events++ }} {
			st.Observe(observer)
			if a := testing.AllocsPerRun(runs, cycle); a != 0 {
				t.Errorf("create, delete (%s, observer %v): %v allocs, want 0", arm, observer != nil, a)
			}
		}
	}
	if events == 0 {
		t.Fatal("observer saw no create or delete")
	}
}

// TestStripeLockedAppendsShareOneLane: installChunk and dropStrays append
// while holding the chunk's stripe lock, so writers of distinct chunks that
// share a stripe AND a lane contend on both locks in that order. They must
// all finish, and the lane must replay to exactly what memory held.
func TestStripeLockedAppendsShareOneLane(t *testing.T) {
	const (
		writers = 8
		rounds  = 150
	)
	s := mkStore(1, Config{ChunkSize: 64, Replication: 1, WALLanes: 1}, true)
	sv := s.servers[0]
	// Distinct chunks of one key that all hash to one stripe.
	var ids []chunkID
	for idx := int64(0); len(ids) < writers; idx++ {
		id := chunkID{"nest", idx}
		if len(ids) == 0 || sv.stripe(id.ringHash()) == sv.stripe(ids[0].ringHash()) {
			ids = append(ids, id)
		}
	}
	var wg sync.WaitGroup
	for w, id := range ids {
		wg.Add(1)
		go func(w int, id chunkID) {
			defer wg.Done()
			cg := s.directCharge(storage.NewContext())
			h := id.ringHash()
			stray := chunkSurvey{reps: []replica{{sv: sv}}}
			for r := 1; r <= rounds; r++ {
				// Lengths go up and down: a shrinking install is a two-record
				// AppendNV batch, a growing one a single AppendV.
				s.installChunk(&cg, sv, h, id, chunkBytes{b: pattern(w*rounds+r, 1+(r*7+w)%64)}, uint64(r))
				if (r+w)%5 == 0 {
					s.dropStrays(&cg, &stray, h, id, uint64(r))
				}
			}
		}(w, id)
	}
	wg.Wait()

	type held struct {
		data string
		ver  uint64
		ok   bool
	}
	snapshot := func() []held {
		out := make([]held, len(ids))
		for i, id := range ids {
			data, ver, ok := sv.chunkData(id.ringHash(), id)
			out[i] = held{string(data), ver, ok}
		}
		return out
	}
	want := snapshot()
	s.Crash(sv.node)
	if err := s.Recover(sv.node); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("lane replayed to a state memory never held:\n got %v\nwant %v", got, want)
	}
}

// TestFanoutRaceStress hammers shared keys from many goroutines with mixed
// reads, writes (single- and multi-chunk), truncates, sizes, and scans.
// Run under -race (scripts/benchcheck.sh does) it is the dispatcher's
// concurrency-safety gate; the invariant check at the end is the
// correctness gate. The help counters must stay honest under the churn: a
// pooled store cannot report more helped tasks than it spawned (every op
// here spawns well under 64), and its InlineFanout twin posts no token.
func TestFanoutRaceStress(t *testing.T) {
	for _, inline := range []bool{false, true} {
		s := mkStore(8, Config{ChunkSize: 64, Replication: 2}, inline)
		ops := fanoutChurn(t, s)
		offered, helped := fanCounters(s)
		if inline && (offered != 0 || helped != 0) {
			t.Fatalf("InlineFanout store posted %d tokens, %d tasks helped; want 0/0", offered, helped)
		}
		if helped > 64*ops || (offered == 0 && helped != 0) {
			t.Fatalf("%d tasks helped on %d tokens over %d ops", helped, offered, ops)
		}
	}
}

// fanoutChurn runs the stress body against s and returns the op count.
func fanoutChurn(t *testing.T, s *Store) int64 {
	setup := storage.NewContext()
	const keys = 4
	for i := 0; i < keys; i++ {
		if err := s.CreateBlob(setup, fmt.Sprintf("shared-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := storage.NewContext()
			buf := make([]byte, 200)
			for i := range buf {
				buf[i] = byte(w*31 + i)
			}
			rd := make([]byte, 256)
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("shared-%d", (w+i)%keys)
				switch i % 5 {
				case 0: // multi-chunk write
					if _, err := s.WriteBlob(ctx, key, int64((w*17+i)%128), buf); err != nil {
						errs <- err
						return
					}
				case 1: // single-chunk write
					if _, err := s.WriteBlob(ctx, key, int64(i%48), buf[:16]); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := s.ReadBlob(ctx, key, int64(i%200), rd); err != nil {
						errs <- err
						return
					}
				case 3:
					if err := s.TruncateBlob(ctx, key, int64(64+(w*i)%192)); err != nil {
						errs <- err
						return
					}
				case 4:
					if _, err := s.BlobSize(ctx, key); err != nil {
						errs <- err
						return
					}
					if i%20 == 4 {
						if _, err := s.Scan(ctx, "shared-"); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after concurrent churn: %s", msg)
	}
	return workers * iters
}

// TestMultiChunkAbortNotReplayed is the write-atomicity regression test: a
// multi-chunk write that dies in the data phase leaves prepares without
// commits in the logs, and crash replay must drop them instead of
// resurrecting a half-committed transaction. A down replica no longer
// fails the data phase (degraded writes absorb it), so the failure is an
// injected permanent disk-write fault at a participant chunk's primary —
// writeChunk fail-atomically refuses before anything durable lands there.
func TestMultiChunkAbortNotReplayed(t *testing.T) {
	s := mkStore(8, Config{ChunkSize: 8, Replication: 2}, false)
	ctx := storage.NewContext()
	key := "atomic"
	victim := s.chunkOwners(chunkID{key, 1})[0]

	if err := s.CreateBlob(ctx, key); err != nil {
		t.Fatal(err)
	}
	before := []byte("committed-multi-chunk-ok")[:24] // 3 chunks
	if _, err := s.WriteBlob(ctx, key, 0, before); err != nil {
		t.Fatal(err)
	}

	// The prepare phase (meta ops) passes; chunk 1's data phase hits the
	// permanent write fault on its primary and the transaction aborts.
	errDisk := errors.New("injected: disk write refused")
	s.cluster.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{
		{Node: cluster.NodeID(victim), Kind: cluster.FaultDiskWrite, Prob: 1, Fault: cluster.Fault{Err: errDisk}},
	}))
	after := bytes.Repeat([]byte("X"), 24)
	if _, err := s.WriteBlob(ctx, key, 0, after); !errors.Is(err, errDisk) {
		t.Fatalf("overwrite with a faulted chunk primary: err = %v, want the injected fault", err)
	}
	s.cluster.SetFaultInjector(nil)
	// Replica writes that hit the faulted node degraded instead of failing;
	// drain any debt they recorded so the invariant check below is strict.
	s.Repair(ctx)

	// Live replicas must be untouched by the aborted transaction (the
	// data phase defers memory materialization to the commit), so a
	// single recovered node agrees with its live peers.
	live := make([]byte, len(before))
	if n, err := s.ReadBlob(ctx, key, 0, live); err != nil || n != len(before) || !bytes.Equal(live, before) {
		t.Fatalf("aborted write visible on live replicas: (%d, %v) %q", n, err, live)
	}
	someOwner := s.chunkOwners(chunkID{key, 0})[0]
	s.Crash(cluster.NodeID(someOwner))
	if err := s.Recover(cluster.NodeID(someOwner)); err != nil {
		t.Fatal(err)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("recovered node diverges from live peers after abort: %s", msg)
	}

	// Total power loss: every node rebuilds from its WAL alone. The
	// half-committed transaction must not survive.
	for i := 0; i < 8; i++ {
		s.Crash(cluster.NodeID(i))
	}
	for i := 0; i < 8; i++ {
		if err := s.Recover(cluster.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(before))
	if n, err := s.ReadBlob(ctx, key, 0, got); err != nil || n != len(before) {
		t.Fatalf("read after recovery: (%d, %v)", n, err)
	}
	if !bytes.Equal(got, before) {
		t.Fatalf("aborted write resurrected by replay:\n got %q\nwant %q", got, before)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after abort recovery: %s", msg)
	}
}

// TestSingleChunkWriteDegradedOnReplicaDown: the single-chunk direct path
// with a down replica succeeds degraded — the live primary applies and logs
// the write and the store records the down replica as repair debt, the
// acknowledged bytes survive a primary crash, reads never observe the stale
// rejoined replica, and repair converges the set byte-identical.
func TestSingleChunkWriteDegradedOnReplicaDown(t *testing.T) {
	s := mkStore(6, Config{ChunkSize: 64, Replication: 2}, false)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "single"); err != nil {
		t.Fatal(err)
	}
	before := []byte("stable-committed-content")
	if _, err := s.WriteBlob(ctx, "single", 0, before); err != nil {
		t.Fatal(err)
	}
	owners := s.chunkOwners(chunkID{"single", 0})
	s.SetDown(cluster.NodeID(owners[1]), true)
	after := bytes.Repeat([]byte("Y"), len(before))
	if _, err := s.WriteBlob(ctx, "single", 0, after); err != nil {
		t.Fatalf("single-chunk degraded write: err = %v", err)
	}
	// The write is durable on the primary, and the debt is no server's
	// state: both survive its crash.
	s.Crash(cluster.NodeID(owners[0]))
	if err := s.Recover(cluster.NodeID(owners[0])); err != nil {
		t.Fatal(err)
	}
	if s.RepairPending() == 0 {
		t.Fatal("repair debt did not survive the primary's crash")
	}
	got := make([]byte, len(before))
	if n, err := s.ReadBlob(ctx, "single", 0, got); err != nil || n != len(before) {
		t.Fatalf("read after recovery: (%d, %v)", n, err)
	}
	if !bytes.Equal(got, after) {
		t.Fatalf("acknowledged degraded write lost: %q", got)
	}
	// Rejoin: the stale replica must not serve before repair, and repair
	// must leave the set byte-identical.
	s.SetDown(cluster.NodeID(owners[1]), false)
	if n := s.RepairPending(); n != 0 {
		t.Fatalf("repair debt outstanding after rejoin: %d", n)
	}
	id := chunkID{"single", 0}
	h := id.ringHash()
	a, av, _ := s.servers[owners[0]].chunkData(h, id)
	b, bv, _ := s.servers[owners[1]].chunkData(h, id)
	if !bytes.Equal(a, b) || av != bv {
		t.Fatalf("replicas diverge after repair: v%d vs v%d", av, bv)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("replica divergence after degraded single-chunk write: %s", msg)
	}
}

// TestCrashMidTransactionDropsPrepares covers the torn-transaction variant
// of atomicity: prepares logged, commit never written (crash between the
// phases, simulated by truncating the log back to before the commit
// records). Replay must drop the pending prepares.
func TestCrashMidTransactionDropsPrepares(t *testing.T) {
	s := mkStore(3, Config{ChunkSize: 8, Replication: 1}, true)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "torn"); err != nil {
		t.Fatal(err)
	}
	first := []byte("0123456789abcdef01234567") // 3 chunks
	if _, err := s.WriteBlob(ctx, "torn", 0, first); err != nil {
		t.Fatal(err)
	}
	// Cut chunk 0's lane right after a second multi-chunk write's prepare:
	// everything logically after it — the commit records on this lane AND
	// every later record on the other lanes, via the merged order-key
	// prefix — is torn away, exactly a crash between the phases.
	owner := writeCutAfterPrepare(t, s, ctx, "torn", bytes.Repeat([]byte("Z"), 24))
	s.Crash(owner)
	if err := s.Recover(owner); err != nil {
		t.Fatal(err)
	}
	// The recovered node must serve chunk 0's committed (first-write)
	// bytes, not the torn transaction's.
	got := make([]byte, 8)
	if _, err := s.ReadBlob(ctx, "torn", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, first[:8]) {
		t.Fatalf("torn transaction replayed: got %q, want %q", got, first[:8])
	}
}

// writeCutAfterPrepare writes p over key with a multi-chunk write on an
// InlineFanout store, then cuts chunk 0's lane on its primary right after the
// first prepare the write appended there — chunk 0's own, as an inline fan
// appends in chunk order — and returns that primary.
func writeCutAfterPrepare(t *testing.T, s *Store, ctx *storage.Context, key string, p []byte) cluster.NodeID {
	t.Helper()
	h := chunkID{key, 0}.ringHash()
	owner := s.servers[s.ownersForHash(h)[0]]
	lane := owner.wal.LaneBuffer(owner.chunkLane(h))
	cut := -1
	s.Observe(func(ev Event) {
		if cut < 0 && ev.Type == wal.RecPrepWrite && ev.Node == owner.node && ev.Lane == owner.chunkLane(h) {
			cut = lane.Len()
		}
	})
	defer s.Observe(nil)
	if _, err := s.WriteBlob(ctx, key, 0, p); err != nil {
		t.Fatal(err)
	}
	if cut < 0 {
		t.Fatal("the multi-chunk write appended no prepare on chunk 0's lane")
	}
	lane.Truncate(cut)
	return owner.node
}

// TestStalePrepareNotResurrectedByLaterCommit: a dangling RecPrepWrite
// left by a torn transaction must not be applied by a later, unrelated
// transaction's commit to the same chunk — replay keeps only the latest
// pending prepare per chunk.
func TestStalePrepareNotResurrectedByLaterCommit(t *testing.T) {
	s := mkStore(3, Config{ChunkSize: 8, Replication: 1}, true)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "stale"); err != nil {
		t.Fatal(err)
	}
	base := []byte("0123456789abcdef01234567") // 3 chunks
	if _, err := s.WriteBlob(ctx, "stale", 0, base); err != nil {
		t.Fatal(err)
	}
	// A second multi-chunk write torn right after chunk 0's prepare leaves a
	// dangling RecPrepWrite("ZZZZ...").
	owner := writeCutAfterPrepare(t, s, ctx, "stale", bytes.Repeat([]byte("Z"), 24))
	s.Crash(owner)
	if err := s.Recover(owner); err != nil {
		t.Fatal(err)
	}

	// A later multi-chunk transaction commits 4 bytes into chunk 0. Its
	// commit must apply its own prepare only, not the stale one still
	// sitting in the durable log.
	if _, err := s.WriteBlob(ctx, "stale", 4, []byte("yyyyzzzz")); err != nil { // chunks 0 and 1
		t.Fatal(err)
	}
	s.Crash(owner)
	if err := s.Recover(owner); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := s.ReadBlob(ctx, "stale", 0, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte("0123yyyy"); !bytes.Equal(got, want) {
		t.Fatalf("stale prepare resurrected: chunk 0 = %q, want %q", got, want)
	}
}

// TestTruncateNoopLeavesStateUntouched is the regression test for the
// no-op truncate fix: truncating to the current size must charge the
// metadata lookup but change nothing — no WAL append, no descriptor
// replication.
func TestTruncateNoopLeavesStateUntouched(t *testing.T) {
	s := mkStore(4, Config{ChunkSize: 16, Replication: 2}, false)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "noop"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, "noop", 0, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	clockBefore := ctx.Clock.Now()
	s.Observe(func(ev Event) {
		if ev.Kind == EventAppend {
			t.Errorf("no-op truncate appended %+v", ev)
		}
	})
	if err := s.TruncateBlob(ctx, "noop", 40); err != nil {
		t.Fatal(err)
	}
	s.Observe(nil)
	if ctx.Clock.Now() <= clockBefore {
		t.Fatal("no-op truncate did not charge the metadata lookup")
	}

	// A size-changing truncate still applies.
	if err := s.TruncateBlob(ctx, "noop", 48); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.BlobSize(ctx, "noop"); size != 48 {
		t.Fatalf("grow truncate size = %d", size)
	}
}

const truncChunk = 64 << 10

// truncateScript creates a 4-chunk blob on the 9-node / 64 KiB / R = 3
// fixture and returns it with the client context.
func truncateScript(t *testing.T, inline bool) (*Store, *storage.Context) {
	t.Helper()
	s := mkStore(9, Config{ChunkSize: truncChunk, Replication: 3}, inline)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "trunc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlob(ctx, "trunc", 0, make([]byte, 4*truncChunk)); err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

// TestTruncatePostsNoHelpTokens: dropping and trimming chunk replicas is
// map work on the latch holder's goroutine — no fan, so no help token wakes
// a pool worker for a delete(map, key). The only fan a truncate joins is the
// descriptor replication, which a growing truncate joins just the same, so
// shrinking 4 chunks to 0 posts exactly the tokens growing by a byte does.
//
// Fans are pooled and a help token is the fan object itself, so a token an
// earlier fan left unread can reach a worker after the descriptor
// replication reused that object: the worker takes the first replica task
// before the second is spawned, and the truncate posts no token. Each
// measured truncate therefore starts with the pool parked and released
// (parkPool), no stale token left anywhere.
func TestTruncatePostsNoHelpTokens(t *testing.T) {
	s, ctx := truncateScript(t, false)
	offeredBy := func(size int64) int64 {
		parkPool()()
		before, _ := fanCounters(s)
		if err := s.TruncateBlob(ctx, "trunc", size); err != nil {
			t.Fatal(err)
		}
		after, _ := fanCounters(s)
		return after - before
	}
	grow := offeredBy(4*truncChunk + 1)
	if shrink := offeredBy(0); shrink != grow {
		t.Fatalf("truncate to 0 posted %d help tokens, descriptor replication alone posts %d", shrink, grow)
	}
	for node := range s.servers {
		if n := s.ChunkCount(cluster.NodeID(node)); n != 0 {
			t.Fatalf("node %d still holds %d chunks after truncate to 0", node, n)
		}
	}
}

// TestTruncateVirtualCostUnchanged: create, a 4-chunk write, truncate to 1.5
// chunks, truncate to 0 charge the same virtual time pooled and inline, and
// exactly what they charged while the chunk drops still ran as a fan of
// charge-free tasks (the constant predates the inline loop), plus 320 ns for
// the descriptor version: four size changes, each a primary RecMeta and a
// parallel replica one on the critical path, 8 B more each at 200 MB/s.
func TestTruncateVirtualCostUnchanged(t *testing.T) {
	const want = 4360545
	for _, inline := range []bool{false, true} {
		s, ctx := truncateScript(t, inline)
		for _, size := range []int64{truncChunk * 3 / 2, 0} {
			if err := s.TruncateBlob(ctx, "trunc", size); err != nil {
				t.Fatal(err)
			}
		}
		if got := int64(ctx.Clock.Now()); got != want {
			t.Errorf("inline=%v: script charged %d virtual ns, want %d", inline, got, want)
		}
	}
}

// TestErrorPathsJoinFanAndCharge is the fan-leak regression test: an
// operation that fails mid-fan must still join its fan — advancing the
// caller's clock by the work that did complete — and leave the pooled
// dispatcher state consistent for the next operation.
func TestErrorPathsJoinFanAndCharge(t *testing.T) {
	s := mkStore(4, Config{ChunkSize: 8, Replication: 1}, false)
	ctx := storage.NewContext()
	if err := s.CreateBlob(ctx, "leak"); err != nil {
		t.Fatal(err)
	}
	content := []byte("abcdefgh-second-:third--") // chunks 0,1,2
	if _, err := s.WriteBlob(ctx, "leak", 0, content); err != nil {
		t.Fatal(err)
	}

	// Down chunk 1's only replica: reads of chunk 0 succeed, chunk 1 fails.
	victim := s.chunkOwners(chunkID{"leak", 1})[0]
	s.SetDown(cluster.NodeID(victim), true)
	before := ctx.Clock.Now()
	got := make([]byte, 24)
	n, err := s.ReadBlob(ctx, "leak", 0, got)
	if !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("read with chunk 1 down: err = %v", err)
	}
	if n != 8 {
		t.Fatalf("partial read returned n = %d, want 8 (the chunks before the failure)", n)
	}
	if !bytes.Equal(got[:8], content[:8]) {
		t.Fatalf("prefix bytes corrupt: %q", got[:8])
	}
	if ctx.Clock.Now() <= before {
		t.Fatal("failed read charged no virtual time: completed chunk work was lost")
	}

	// A failing multi-chunk write (prepare phase: chunk 1's ONLY replica is
	// down, so not even degraded mode can place it) must also charge, leave
	// the pools reusable, and change nothing: no log record anywhere, and
	// the original bytes once the victim is back.
	before = ctx.Clock.Now()
	var ends []Event
	s.Observe(func(ev Event) {
		if ev.Kind != EventOp {
			t.Errorf("refused write reported %+v", ev)
		}
		ends = append(ends, ev)
	})
	if _, err := s.WriteBlob(ctx, "leak", 0, bytes.Repeat([]byte("X"), 24)); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("write with chunk primary down: err = %v", err)
	}
	s.Observe(nil)
	if len(ends) != 1 || !errors.Is(ends[0].Err, storage.ErrUnavailable) {
		t.Errorf("refused write reported %+v, want one EventOp with its error and no stamp", ends)
	}
	if ctx.Clock.Now() <= before {
		t.Fatal("failed write charged no virtual time")
	}

	// Recover and verify the refused write left the content intact, the
	// store still works and the dispatcher pools were not corrupted by the
	// error exits.
	s.SetDown(cluster.NodeID(victim), false)
	if n, err := s.ReadBlob(ctx, "leak", 0, got); err != nil || n != 24 || !bytes.Equal(got, content) {
		t.Fatalf("after refused write: (%d, %v) %q, want %q", n, err, got, content)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.WriteBlob(ctx, "leak", 0, content); err != nil {
			t.Fatal(err)
		}
		rd := make([]byte, 24)
		if n, err := s.ReadBlob(ctx, "leak", 0, rd); err != nil || n != 24 || !bytes.Equal(rd, content) {
			t.Fatalf("post-error op %d: (%d, %v)", i, n, err)
		}
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
}

// TestRebalanceDeterministicWithDispatcher extends the determinism pin to
// the membership-change scatter-gather.
func TestRebalanceDeterministicWithDispatcher(t *testing.T) {
	run := func(inline bool) int64 {
		c := cluster.New(cluster.Config{Nodes: 6, Seed: 11})
		s := NewOnNodes(c, Config{ChunkSize: 32, Replication: 2, InlineFanout: inline},
			[]cluster.NodeID{0, 1, 2, 3})
		ctx := storage.NewContext()
		buf := make([]byte, 300)
		for i := range buf {
			buf[i] = byte(i)
		}
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("mig-%02d", i)
			if err := s.CreateBlob(ctx, key); err != nil {
				t.Fatal(err)
			}
			if _, err := s.WriteBlob(ctx, key, 0, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddServer(ctx, 4); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveServer(ctx, 0); err != nil {
			t.Fatal(err)
		}
		if msg := s.CheckInvariants(); msg != "" {
			t.Fatalf("invariants after churn: %s", msg)
		}
		return int64(ctx.Clock.Now())
	}
	if seq, par := run(true), run(false); seq != par {
		t.Fatalf("rebalance virtual time diverges: sequential %d, dispatcher %d", seq, par)
	}
}
