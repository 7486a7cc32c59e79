package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// Tracing is done from outside the program under test: the benchmark
// slides timing wrappers into the interface seams the stack already has
// (storage.FileSystem between an application and blobfs, storage.BlobStore
// between a front-end and blob.Store) and puts plain timers around the
// calls it makes itself (mpiio, Engine.Run, ServeHTTP, control actions).
// End-to-end numbers never come from a traced run.

type layer uint8

const (
	layerMPIIO layer = iota
	layerBlobfs
	layerSparksim
	layerS3gw
	layerBlob
	layerCtl
	numLayers
)

var layerNames = [numLayers]string{"mpiio", "blobfs", "sparksim", "s3gw", "blob", "ctl"}

// span is one timed call at a layer boundary. Its id is its position in
// its lane; parent is the innermost span open on the same lane when it
// began, -1 for a client's top-level call.
type span struct {
	parent     int32
	layer      layer
	req        uint32
	name       string
	start, end int64 // ns since the tracer's epoch
	bytes      int64
}

// lane holds the spans of one client. Only that client's goroutine touches
// it, so recording takes no lock.
type lane struct {
	id    int
	spans []span
	open  []int32
	req   uint32
	// up and upIdx name the span that forked this lane's context (a
	// sparksim job forks one context per executor per stage); nil for a
	// client's own lane.
	up    *lane
	upIdx int32
	// wall is the client's traced wall: the time its loop ran, calls and
	// the generator's own work between them.
	wall time.Duration
}

type forkPoint struct {
	ln  *lane
	idx int32
	req uint32
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
	// byCtx finds the lane of a call from its *storage.Context: every
	// layer passes its caller's context down, so calls of one client nest
	// on one lane. Contexts not bound by the benchmark were forked inside
	// the program under test and attach below the current fork point.
	byCtx sync.Map
	fork  atomic.Pointer[forkPoint]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newLane preallocates room for n spans and touches it, so that recording
// a span never takes a page fault.
func (t *tracer) newLane(n int) *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	ln := &lane{id: len(t.lanes), spans: make([]span, 0, n), open: make([]int32, 0, 8)}
	for i := range ln.spans[:n] {
		ln.spans[:n][i].parent = -1
	}
	t.lanes = append(t.lanes, ln)
	return ln
}

// bind routes calls made with ctx to ln.
func (t *tracer) bind(ctx *storage.Context, ln *lane) { t.byCtx.Store(ctx, ln) }

func (t *tracer) laneFor(ctx *storage.Context) *lane {
	if v, ok := t.byCtx.Load(ctx); ok {
		return v.(*lane)
	}
	ln := t.newLane(64)
	if fp := t.fork.Load(); fp != nil {
		ln.up, ln.upIdx, ln.req = fp.ln, fp.idx, fp.req
	}
	t.byCtx.Store(ctx, ln)
	return ln
}

func (t *tracer) begin(ln *lane, ly layer, name string) int32 {
	idx := int32(len(ln.spans))
	parent := int32(-1)
	if n := len(ln.open); n > 0 {
		parent = ln.open[n-1]
	} else if ln.up == nil {
		ln.req++
	}
	ln.spans = append(ln.spans, span{parent: parent, layer: ly, req: ln.req, name: name, start: t.now()})
	ln.open = append(ln.open, idx)
	return idx
}

func (t *tracer) end(ln *lane, idx int32, bytes int64) {
	s := &ln.spans[idx]
	s.end = t.now()
	s.bytes = bytes
	ln.open = ln.open[:len(ln.open)-1]
}

// forkHere makes span idx of ln the parent of lanes created for contexts
// the program under test forks until the returned function is called.
func (t *tracer) forkHere(ln *lane, idx int32) (done func()) {
	t.fork.Store(&forkPoint{ln: ln, idx: idx, req: ln.spans[idx].req})
	return func() { t.fork.Store(nil) }
}

// probe records spans on one client's lane; the zero value records
// nothing, which is the untraced run.
type probe struct {
	tr *tracer
	ln *lane
}

func (p probe) begin(ly layer, name string) int32 {
	if p.tr == nil {
		return 0
	}
	return p.tr.begin(p.ln, ly, name)
}

func (p probe) end(i int32, bytes int64) {
	if p.tr != nil {
		p.tr.end(p.ln, i, bytes)
	}
}

// wall adds to the client's traced wall.
func (p probe) wall(d time.Duration) {
	if p.tr != nil {
		p.ln.wall += d
	}
}

// blobStore is what the benchmark wraps: the primitive set plus the two
// optional extensions blob.Store offers. A wrapper that dropped either
// would silently change the workload — blobfs.Rename would fall back to
// copy+delete, mpiio collectives would stop aligning to chunks.
type blobStore interface {
	storage.BlobStore
	storage.BlobRenamer
	storage.ChunkSizer
}

// tracedStore times every blob primitive.
type tracedStore struct {
	in blobStore
	tr *tracer
	// ln, when set, owns every call whatever its context: s3gw mints a
	// fresh context per request, so each caller gets its own wrapper.
	ln *lane
}

func (s *tracedStore) lane(ctx *storage.Context) *lane {
	if s.ln != nil {
		return s.ln
	}
	return s.tr.laneFor(ctx)
}

func (s *tracedStore) CreateBlob(ctx *storage.Context, key string) error {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "create")
	err := s.in.CreateBlob(ctx, key)
	s.tr.end(ln, i, 0)
	return err
}

func (s *tracedStore) DeleteBlob(ctx *storage.Context, key string) error {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "delete")
	err := s.in.DeleteBlob(ctx, key)
	s.tr.end(ln, i, 0)
	return err
}

func (s *tracedStore) ReadBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "read")
	n, err := s.in.ReadBlob(ctx, key, off, p)
	s.tr.end(ln, i, int64(n))
	return n, err
}

func (s *tracedStore) WriteBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "write")
	n, err := s.in.WriteBlob(ctx, key, off, p)
	s.tr.end(ln, i, int64(n))
	return n, err
}

func (s *tracedStore) TruncateBlob(ctx *storage.Context, key string, size int64) error {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "truncate")
	err := s.in.TruncateBlob(ctx, key, size)
	s.tr.end(ln, i, 0)
	return err
}

func (s *tracedStore) BlobSize(ctx *storage.Context, key string) (int64, error) {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "size")
	n, err := s.in.BlobSize(ctx, key)
	s.tr.end(ln, i, 0)
	return n, err
}

func (s *tracedStore) Scan(ctx *storage.Context, prefix string) ([]storage.BlobInfo, error) {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "scan")
	infos, err := s.in.Scan(ctx, prefix)
	s.tr.end(ln, i, 0)
	return infos, err
}

func (s *tracedStore) RenameBlob(ctx *storage.Context, oldKey, newKey string) error {
	ln := s.lane(ctx)
	i := s.tr.begin(ln, layerBlob, "rename")
	err := s.in.RenameBlob(ctx, oldKey, newKey)
	s.tr.end(ln, i, 0)
	return err
}

func (s *tracedStore) ChunkSize() int { return s.in.ChunkSize() }

// fileSystem is what sits above blobfs: the POSIX subset plus the chunk
// size mpiio aligns its collective shares to.
type fileSystem interface {
	storage.FileSystem
	storage.ChunkSizer
}

// tracedFS times every call an application makes into blobfs.
type tracedFS struct {
	in fileSystem
	tr *tracer
}

func (f *tracedFS) ChunkSize() int { return f.in.ChunkSize() }

func (f *tracedFS) call(ctx *storage.Context, name string, fn func() error) error {
	ln := f.tr.laneFor(ctx)
	i := f.tr.begin(ln, layerBlobfs, name)
	err := fn()
	f.tr.end(ln, i, 0)
	return err
}

func (f *tracedFS) Create(ctx *storage.Context, path string) (storage.Handle, error) {
	var h storage.Handle
	err := f.call(ctx, "create", func() (err error) { h, err = f.in.Create(ctx, path); return })
	if err != nil {
		return nil, err
	}
	return &tracedHandle{in: h, tr: f.tr}, nil
}

func (f *tracedFS) Open(ctx *storage.Context, path string) (storage.Handle, error) {
	var h storage.Handle
	err := f.call(ctx, "open", func() (err error) { h, err = f.in.Open(ctx, path); return })
	if err != nil {
		return nil, err
	}
	return &tracedHandle{in: h, tr: f.tr}, nil
}

func (f *tracedFS) Unlink(ctx *storage.Context, path string) error {
	return f.call(ctx, "unlink", func() error { return f.in.Unlink(ctx, path) })
}

func (f *tracedFS) Stat(ctx *storage.Context, path string) (storage.FileInfo, error) {
	var fi storage.FileInfo
	err := f.call(ctx, "stat", func() (err error) { fi, err = f.in.Stat(ctx, path); return })
	return fi, err
}

func (f *tracedFS) Truncate(ctx *storage.Context, path string, size int64) error {
	return f.call(ctx, "truncate", func() error { return f.in.Truncate(ctx, path, size) })
}

func (f *tracedFS) Rename(ctx *storage.Context, oldPath, newPath string) error {
	return f.call(ctx, "rename", func() error { return f.in.Rename(ctx, oldPath, newPath) })
}

func (f *tracedFS) Mkdir(ctx *storage.Context, path string) error {
	return f.call(ctx, "mkdir", func() error { return f.in.Mkdir(ctx, path) })
}

func (f *tracedFS) Rmdir(ctx *storage.Context, path string) error {
	return f.call(ctx, "rmdir", func() error { return f.in.Rmdir(ctx, path) })
}

func (f *tracedFS) ReadDir(ctx *storage.Context, path string) ([]storage.DirEntry, error) {
	var ents []storage.DirEntry
	err := f.call(ctx, "readdir", func() (err error) { ents, err = f.in.ReadDir(ctx, path); return })
	return ents, err
}

func (f *tracedFS) Chmod(ctx *storage.Context, path string, mode uint32) error {
	return f.call(ctx, "chmod", func() error { return f.in.Chmod(ctx, path, mode) })
}

func (f *tracedFS) GetXattr(ctx *storage.Context, path, name string) (string, error) {
	var v string
	err := f.call(ctx, "getxattr", func() (err error) { v, err = f.in.GetXattr(ctx, path, name); return })
	return v, err
}

func (f *tracedFS) SetXattr(ctx *storage.Context, path, name, value string) error {
	return f.call(ctx, "setxattr", func() error { return f.in.SetXattr(ctx, path, name, value) })
}

type tracedHandle struct {
	in storage.Handle
	tr *tracer
}

func (h *tracedHandle) ReadAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	ln := h.tr.laneFor(ctx)
	i := h.tr.begin(ln, layerBlobfs, "pread")
	n, err := h.in.ReadAt(ctx, off, p)
	h.tr.end(ln, i, int64(n))
	return n, err
}

func (h *tracedHandle) WriteAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	ln := h.tr.laneFor(ctx)
	i := h.tr.begin(ln, layerBlobfs, "pwrite")
	n, err := h.in.WriteAt(ctx, off, p)
	h.tr.end(ln, i, int64(n))
	return n, err
}

func (h *tracedHandle) Sync(ctx *storage.Context) error {
	ln := h.tr.laneFor(ctx)
	i := h.tr.begin(ln, layerBlobfs, "fsync")
	err := h.in.Sync(ctx)
	h.tr.end(ln, i, 0)
	return err
}

func (h *tracedHandle) Close(ctx *storage.Context) error {
	ln := h.tr.laneFor(ctx)
	i := h.tr.begin(ln, layerBlobfs, "close")
	err := h.in.Close(ctx)
	h.tr.end(ln, i, 0)
	return err
}

// traceReport is the per-layer reading of a traced run.
type traceReport struct {
	// self is each layer's self time: its spans' durations minus the part
	// of each its child spans cover.
	self [numLayers]int64
	// calls counts spans per layer; under counts, per layer, the spans
	// whose parent span belongs to the given other layer.
	calls [numLayers]int64
	under [numLayers][numLayers]int64
	// durs holds span durations per "layer.name"; selfs the self times of
	// the s3gw request spans.
	durs  map[string][]int64
	selfs [numLayers][]int64
	bytes map[string]int64
	// coverage is, over the benchmark's own clients, the least share of a
	// client's traced wall that its top-level spans cover; what is left is
	// the generator's own work between calls.
	coverage float64
	wall     time.Duration
	spans    int
}

type interval struct{ lo, hi int64 }

// unionLen is the length of the union of the intervals, clipped to [lo, hi].
func unionLen(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total int64
	at := lo
	for _, x := range iv {
		x.lo, x.hi = max(x.lo, at), min(x.hi, hi)
		if x.hi > x.lo {
			total += x.hi - x.lo
			at = x.hi
		}
	}
	return total
}

func (t *tracer) report() *traceReport {
	r := &traceReport{durs: map[string][]int64{}, bytes: map[string]int64{}, coverage: 1}
	// Top-level spans of forked lanes are children of the span that forked
	// them; they may overlap each other, so cover is a union.
	forked := map[forkPoint][]interval{}
	for _, ln := range t.lanes {
		if ln.up == nil {
			continue
		}
		at := forkPoint{ln: ln.up, idx: ln.upIdx}
		for _, s := range ln.spans {
			if s.parent < 0 {
				forked[at] = append(forked[at], interval{s.start, s.end})
			}
		}
	}
	for _, ln := range t.lanes {
		r.spans += len(ln.spans)
		covered := make([]int64, len(ln.spans))
		var top int64
		for i := len(ln.spans) - 1; i >= 0; i-- {
			s := &ln.spans[i]
			dur := s.end - s.start
			cover := covered[i] // same-lane children run one after another
			if iv := forked[forkPoint{ln: ln, idx: int32(i)}]; len(iv) > 0 {
				for j := i + 1; j < len(ln.spans); j++ {
					if c := &ln.spans[j]; c.parent == int32(i) {
						iv = append(iv, interval{c.start, c.end})
					}
				}
				cover = unionLen(iv, s.start, s.end)
			}
			self := dur - cover
			r.self[s.layer] += self
			r.calls[s.layer]++
			r.selfs[s.layer] = append(r.selfs[s.layer], self)
			name := layerNames[s.layer] + "." + s.name
			r.durs[name] = append(r.durs[name], dur)
			r.bytes[name] += s.bytes
			switch {
			case s.parent >= 0:
				covered[s.parent] += dur
				r.under[s.layer][ln.spans[s.parent].layer]++
			case ln.up != nil:
				r.under[s.layer][ln.up.spans[ln.upIdx].layer]++
			default:
				top += dur
			}
		}
		if ln.up == nil && ln.wall > 0 {
			r.wall += ln.wall
			r.coverage = min(r.coverage, float64(top)/float64(ln.wall))
		}
	}
	return r
}

// share is the layer's self time over the self time of all layers: for
// clients that run one call at a time, its share of their traced wall.
func (r *traceReport) share(ly layer) float64 {
	var total int64
	for _, s := range r.self {
		total += s
	}
	if total == 0 {
		return 0
	}
	return float64(r.self[ly]) / float64(total)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeTrace writes the spans as JSON lines: a header object, then one
// object per span. Span ids are global; parent 0 means a top-level call.
func (t *tracer) writeTrace(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	base := make([]int, len(t.lanes))
	n := 1
	for i, ln := range t.lanes {
		base[i] = n
		n += len(ln.spans)
	}
	for _, ln := range t.lanes {
		for i, s := range ln.spans {
			parent := 0
			switch {
			case s.parent >= 0:
				parent = base[ln.id] + int(s.parent)
			case ln.up != nil:
				parent = base[ln.up.id] + int(ln.upIdx)
			}
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":"%d.%d","client":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d,"bytes":%d}`+"\n",
				base[ln.id]+i, parent, t.root(ln).id, s.req, t.root(ln).id, layerNames[s.layer], s.name, s.start, s.end, s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) root(ln *lane) *lane {
	for ln.up != nil {
		ln = ln.up
	}
	return ln
}
