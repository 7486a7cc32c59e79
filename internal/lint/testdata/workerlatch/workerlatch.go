// Package workerlatch exercises the workerlatch analyzer: miniature
// replicas of the dispatch-pool shapes (fanTask/funcJob/laneFeed,
// parallelDo, ctxFan and its helper entry, a latch field and the store's key
// latch table) with positive cases the analyzer must flag and sanctioned
// caller-side patterns it must not.
package workerlatch

import "sync"

type descriptor struct {
	latch sync.RWMutex
	size  int64
}

type server struct {
	mu sync.RWMutex
}

type charge struct{}

type fanTask struct {
	fn  func(cg *charge) error
	err error
}

type ctxFan struct{}

func (f *ctxFan) task() *fanTask     { return &fanTask{} }
func (f *ctxFan) spawn(t *fanTask)   {}
func (f *ctxFan) join() (int, error) { return 0, nil }
func (t *fanTask) run(cg *charge)    { t.err = t.fn(cg) }

// run is a pool worker answering a help token: whatever it reaches runs on
// a worker even though no task type names it.
func (f *ctxFan) run(d *descriptor) { helperOnlyLatch(d) }

func helperOnlyLatch(d *descriptor) {
	d.latch.Lock() // want `key latch acquired on a pool worker`
	d.latch.Unlock()
}

func parallelDo(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

type laneFeed struct{ ready chan struct{} }

// run is a decode-job root: consuming a sibling feed from inside it is
// a pool wait on a pool worker.
func (f *laneFeed) run(sibling *laneFeed) {
	f.ready <- struct{}{}
	sibling.Next() // want `laneFeed\.Next called on a pool worker`
}

func (f *laneFeed) Next() bool { <-f.ready; return true }

// taskTakesLatch: a pool task body acquiring a latch is the
// canonical deadlock (writers hold it across their own joins).
func taskTakesLatch(f *ctxFan, d *descriptor) {
	t := f.task()
	t.fn = func(cg *charge) error {
		d.latch.RLock() // want `key latch acquired on a pool worker`
		defer d.latch.RUnlock()
		return nil
	}
	f.spawn(t)
}

// helperTakesLatch is only a violation because taskViaHelper makes it
// reachable from a task body: the whole call graph is checked.
func helperTakesLatch(d *descriptor) int64 {
	d.latch.RLock() // want `key latch acquired on a pool worker`
	defer d.latch.RUnlock()
	return d.size
}

func taskViaHelper(f *ctxFan, d *descriptor) {
	t := f.task()
	t.fn = func(cg *charge) error {
		helperTakesLatch(d)
		return nil
	}
	f.spawn(t)
}

// store mirrors the key latch table, whose one take is lockKey.
type store struct {
	latch [8]sync.RWMutex
}

func (s *store) lockKey(key string) {
	s.latch[len(key)%8].RLock() // want `key latch acquired on a pool worker`
}

func (s *store) unlockKey(key string) { s.latch[len(key)%8].RUnlock() }

// taskViaLockKey: a task that reaches the latch table through its helper is
// reported inside the helper.
func taskViaLockKey(f *ctxFan, s *store) {
	t := f.task()
	t.fn = func(cg *charge) error {
		s.lockKey("k")
		s.unlockKey("k")
		return nil
	}
	f.spawn(t)
}

// taskNestedParallelDo: a nested pool wait inside a task saturates and
// deadlocks the pool.
func taskNestedParallelDo(f *ctxFan) {
	t := f.task()
	t.fn = func(cg *charge) error {
		parallelDo(2, func(i int) {}) // want `parallelDo called on a pool worker`
		return nil
	}
	f.spawn(t)
}

// taskNestedJoin: same rule through the fan's own join.
func taskNestedJoin(f *ctxFan) {
	t := f.task()
	t.fn = func(cg *charge) error {
		_, err := f.join() // want `ctxFan\.join called on a pool worker`
		return err
	}
	f.spawn(t)
}

// parallelArgTakesLatch: closures handed to parallelDo are task bodies.
func parallelArgTakesLatch(d *descriptor) {
	parallelDo(4, func(i int) {
		d.latch.Lock() // want `key latch acquired on a pool worker`
		d.latch.Unlock()
	})
}

// mergeFeeds is the recovery caller: waiting on feeds from caller-side
// code is the sanctioned pattern and must stay silent.
func mergeFeeds(feeds []*laneFeed) {
	for _, f := range feeds {
		f.Next()
	}
}

// writeLocked mirrors the sanctioned writer pattern: the CALLER holds
// the latch across its own fan join. Nothing here may be flagged.
func writeLocked(f *ctxFan, d *descriptor) error {
	d.latch.Lock()
	defer d.latch.Unlock()
	t := f.task()
	t.fn = func(cg *charge) error { return nil }
	f.spawn(t)
	_, err := f.join()
	return err
}

// taskShortHold: short-hold locks (server maps, stripes) are explicitly
// allowed in task bodies — only the latch class is forbidden.
func taskShortHold(f *ctxFan, sv *server) {
	t := f.task()
	t.fn = func(cg *charge) error {
		sv.mu.RLock()
		defer sv.mu.RUnlock()
		return nil
	}
	f.spawn(t)
}
