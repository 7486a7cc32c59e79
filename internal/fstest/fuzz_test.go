package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/fs/posixfs"
	"repro/internal/storage"
)

// FuzzFSOps is the differential op-sequence fuzzer: the input bytes decode
// into a script of file-system operations that is replayed, in lockstep,
// against a fresh strict-POSIX reference and against every registered
// backend. Script generation is constrained to each backend's declared
// capability envelope (a backend that rejects random writes is only asked
// to append, a non-replacing rename is never pointed at an existing
// target), so within the envelope every backend must agree with POSIX on
// error class and — where visibility allows — on observable bytes. After
// the script, all handles close and the fuzzer diffs the full surviving
// state: per-path existence, kind, size, contents, and directory listings.
//
// Divergences this fuzzer found during development were fixed in the
// front-ends and pinned by named regression tests (see blobfs: Mkdir over
// an existing file, Rename onto an existing directory, Truncate of a
// directory, Rmdir of a file).

// The fixed namespace keeps scripts short and collisions frequent.
var (
	fuzzDirs  = []string{"d", "d2"}
	fuzzPaths = []string{"a", "b", "d/x", "d/y", "d2/z", "d/sub"}
	// Rename and mkdir draw from both lists so files and directory
	// subtrees both move.
	fuzzNodes = append(append([]string{}, fuzzPaths...), fuzzDirs...)
)

var errClasses = []struct {
	name string
	err  error
}{
	{"notfound", storage.ErrNotFound},
	{"exists", storage.ErrExists},
	{"notempty", storage.ErrNotEmpty},
	{"isdir", storage.ErrIsDirectory},
	{"notdir", storage.ErrNotDirectory},
	{"perm", storage.ErrPermission},
	{"readonly", storage.ErrReadOnly},
	{"invalid", storage.ErrInvalidArg},
	{"unsupported", storage.ErrUnsupported},
	{"closed", storage.ErrClosed},
	{"stale", storage.ErrStaleHandle},
	{"unavailable", storage.ErrUnavailable},
	{"quota", storage.ErrQuotaExceeded},
}

// errClass buckets an error by storage sentinel for cross-backend
// comparison; message text is backend-flavoured and never compared.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range errClasses {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// script decodes fuzz input lazily.
type script struct {
	in  []byte
	pos int
}

func (s *script) done() bool { return s.pos >= len(s.in) }

func (s *script) next() byte {
	if s.done() {
		return 0
	}
	b := s.in[s.pos]
	s.pos++
	return b
}

// openPair is one logical open file replicated on reference and target.
type openPair struct {
	ref, tgt storage.Handle
	writable bool // opened via Create
	dirty    bool // unsynced writes pending
}

// diffState replays one script against ref (strict POSIX) and tgt,
// reporting divergences on t.
type diffState struct {
	t       *testing.T
	name    string
	caps    Capabilities
	ref     storage.FileSystem
	tgt     storage.FileSystem
	refCtx  *storage.Context
	tgtCtx  *storage.Context
	handles map[string]*openPair
	step    int
}

func (d *diffState) failf(format string, args ...any) {
	d.t.Helper()
	d.t.Errorf("backend %s step %d: %s", d.name, d.step, fmt.Sprintf(format, args...))
}

// checkErr compares error classes from the same op on both sides.
func (d *diffState) checkErr(op string, refErr, tgtErr error) bool {
	d.t.Helper()
	rc, tc := errClass(refErr), errClass(tgtErr)
	if rc != tc {
		d.failf("%s: reference %s (%v), target %s (%v)", op, rc, refErr, tc, tgtErr)
		return false
	}
	return rc == "ok"
}

// refSize returns the reference's view of a path's size, or -1 if absent.
func (d *diffState) refSize(path string) int64 {
	fi, err := d.ref.Stat(d.refCtx, path)
	if err != nil || fi.IsDir {
		return -1
	}
	return fi.Size
}

func (d *diffState) refIsDir(path string) bool {
	fi, err := d.ref.Stat(d.refCtx, path)
	return err == nil && fi.IsDir
}

func (d *diffState) refExists(path string) bool {
	_, err := d.ref.Stat(d.refCtx, path)
	return err == nil
}

// anyHandleUnder reports whether an open handle exists at path or anywhere
// in its subtree (ops that would invalidate live handles are skipped —
// that behaviour is backend-defined and outside the envelope).
func (d *diffState) anyHandleUnder(path string) bool {
	for p := range d.handles {
		if p == path || len(p) > len(path) && p[:len(path)] == path && p[len(path)] == '/' {
			return true
		}
	}
	return false
}

// fill writes a deterministic pattern so settle-phase content diffs mean
// something.
func fill(seed byte, p []byte) {
	for i := range p {
		p[i] = seed ^ byte(i*7)
	}
}

func (d *diffState) apply(s *script) {
	op := s.next() % 13
	d.step++
	switch op {
	case 0: // create
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		if _, open := d.handles[path]; open {
			return
		}
		rh, rerr := d.ref.Create(d.refCtx, path)
		th, terr := d.tgt.Create(d.tgtCtx, path)
		if d.checkErr("create "+path, rerr, terr) {
			d.handles[path] = &openPair{ref: rh, tgt: th, writable: true}
		} else {
			closeQuiet(d, rh, th)
		}
	case 1: // open (read path; writes go through create handles only)
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		if _, open := d.handles[path]; open {
			return
		}
		rh, rerr := d.ref.Open(d.refCtx, path)
		th, terr := d.tgt.Open(d.tgtCtx, path)
		if d.checkErr("open "+path, rerr, terr) {
			d.handles[path] = &openPair{ref: rh, tgt: th}
		} else {
			closeQuiet(d, rh, th)
		}
	case 2: // write
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		h, open := d.handles[path]
		if !open || !h.writable {
			return
		}
		size := d.refSize(path)
		if size < 0 {
			return
		}
		var off int64
		if d.caps.RandomWrites {
			off = int64(s.next()) % (size + 17)
			if !d.caps.SparseFiles && off > size {
				off = size
			}
		} else {
			s.next()
			off = size // append-only envelope
		}
		buf := make([]byte, int(s.next())%37+1)
		fill(s.next(), buf)
		rn, rerr := h.ref.WriteAt(d.refCtx, off, buf)
		tn, terr := h.tgt.WriteAt(d.tgtCtx, off, buf)
		if d.checkErr(fmt.Sprintf("write %s@%d", path, off), rerr, terr) {
			if rn != tn {
				d.failf("write %s@%d: reference wrote %d, target %d", path, off, rn, tn)
			}
			h.dirty = true
		}
	case 3: // read
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		h, open := d.handles[path]
		if !open {
			return
		}
		size := d.refSize(path)
		if size < 0 {
			size = 0
		}
		off := int64(s.next()) % (size + 9)
		buf := make([]byte, int(s.next())%48+1)
		rbuf := make([]byte, len(buf))
		rn, rerr := h.ref.ReadAt(d.refCtx, off, rbuf)
		tn, terr := h.tgt.ReadAt(d.tgtCtx, off, buf)
		// Bytes are comparable only when the envelope promises the write
		// is visible: immediately, or because this handle has synced.
		if d.checkErr(fmt.Sprintf("read %s@%d", path, off), rerr, terr) &&
			(d.caps.ImmediateVisibility || !h.dirty) {
			if rn != tn || !bytes.Equal(rbuf[:rn], buf[:tn]) {
				d.failf("read %s@%d len %d: reference %d bytes %x, target %d bytes %x",
					path, off, len(buf), rn, rbuf[:rn], tn, buf[:tn])
			}
		}
	case 4: // sync
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		h, open := d.handles[path]
		if !open {
			return
		}
		if d.checkErr("sync "+path, h.ref.Sync(d.refCtx), h.tgt.Sync(d.tgtCtx)) {
			h.dirty = false
		}
	case 5: // close
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		h, open := d.handles[path]
		if !open {
			return
		}
		delete(d.handles, path)
		d.checkErr("close "+path, h.ref.Close(d.refCtx), h.tgt.Close(d.tgtCtx))
	case 6: // unlink
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		if d.anyHandleUnder(path) {
			return
		}
		d.checkErr("unlink "+path, d.ref.Unlink(d.refCtx, path), d.tgt.Unlink(d.tgtCtx, path))
	case 7: // truncate
		path := fuzzPaths[int(s.next())%len(fuzzPaths)]
		if d.anyHandleUnder(path) {
			return
		}
		var size int64
		if d.caps.PartialTruncate {
			size = int64(s.next()) % (maxInt64(d.refSize(path), 0) + 5)
		} else {
			s.next()
		}
		d.checkErr(fmt.Sprintf("truncate %s to %d", path, size),
			d.ref.Truncate(d.refCtx, path, size), d.tgt.Truncate(d.tgtCtx, path, size))
	case 8: // rename
		src := fuzzNodes[int(s.next())%len(fuzzNodes)]
		dst := fuzzNodes[int(s.next())%len(fuzzNodes)]
		if src == dst || d.anyHandleUnder(src) || d.anyHandleUnder(dst) {
			return
		}
		if under(dst, src) {
			return // moving a directory into itself is ErrInvalidArg everywhere, but skip for symmetry with under(src, dst) renames
		}
		if d.refExists(dst) && !d.caps.AtomicRename {
			return // replacing rename is outside this backend's envelope
		}
		d.checkErr(fmt.Sprintf("rename %s -> %s", src, dst),
			d.ref.Rename(d.refCtx, src, dst), d.tgt.Rename(d.tgtCtx, src, dst))
	case 9: // mkdir
		path := fuzzNodes[int(s.next())%len(fuzzNodes)]
		d.checkErr("mkdir "+path, d.ref.Mkdir(d.refCtx, path), d.tgt.Mkdir(d.tgtCtx, path))
	case 10: // rmdir
		path := fuzzNodes[int(s.next())%len(fuzzNodes)]
		if d.anyHandleUnder(path) {
			return
		}
		d.checkErr("rmdir "+path, d.ref.Rmdir(d.refCtx, path), d.tgt.Rmdir(d.tgtCtx, path))
	case 11: // stat
		path := fuzzNodes[int(s.next())%len(fuzzNodes)]
		rfi, rerr := d.ref.Stat(d.refCtx, path)
		tfi, terr := d.tgt.Stat(d.tgtCtx, path)
		if !d.checkErr("stat "+path, rerr, terr) {
			return
		}
		if rfi.IsDir != tfi.IsDir {
			d.failf("stat %s: reference isdir=%v, target isdir=%v", path, rfi.IsDir, tfi.IsDir)
		}
		if !rfi.IsDir && (d.caps.ImmediateVisibility || !d.dirtyAt(path)) && rfi.Size != tfi.Size {
			d.failf("stat %s: reference size %d, target size %d", path, rfi.Size, tfi.Size)
		}
	case 12: // readdir
		path := fuzzDirs[int(s.next())%len(fuzzDirs)]
		rents, rerr := d.ref.ReadDir(d.refCtx, path)
		tents, terr := d.tgt.ReadDir(d.tgtCtx, path)
		if d.checkErr("readdir "+path, rerr, terr) {
			if rl, tl := listing(rents), listing(tents); rl != tl {
				d.failf("readdir %s: reference [%s], target [%s]", path, rl, tl)
			}
		}
	}
}

func (d *diffState) dirtyAt(path string) bool {
	h, ok := d.handles[path]
	return ok && h.dirty
}

// settle closes every handle and diffs the full observable state. With all
// handles closed, every backend's visibility envelope requires the data to
// be published, so bytes are compared unconditionally.
func (d *diffState) settle() {
	paths := make([]string, 0, len(d.handles))
	for p := range d.handles {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		h := d.handles[p]
		delete(d.handles, p)
		d.checkErr("settle close "+p, h.ref.Close(d.refCtx), h.tgt.Close(d.tgtCtx))
	}
	for _, p := range fuzzNodes {
		rfi, rerr := d.ref.Stat(d.refCtx, p)
		tfi, terr := d.tgt.Stat(d.tgtCtx, p)
		if !d.checkErr("settle stat "+p, rerr, terr) {
			continue
		}
		if rfi.IsDir != tfi.IsDir {
			d.failf("settle stat %s: reference isdir=%v, target isdir=%v", p, rfi.IsDir, tfi.IsDir)
			continue
		}
		if rfi.IsDir {
			rents, rerr := d.ref.ReadDir(d.refCtx, p)
			tents, terr := d.tgt.ReadDir(d.tgtCtx, p)
			if d.checkErr("settle readdir "+p, rerr, terr) {
				if rl, tl := listing(rents), listing(tents); rl != tl {
					d.failf("settle readdir %s: reference [%s], target [%s]", p, rl, tl)
				}
			}
			continue
		}
		if rfi.Size != tfi.Size {
			d.failf("settle stat %s: reference size %d, target size %d", p, rfi.Size, tfi.Size)
			continue
		}
		rdata := slurp(d.t, d.ref, d.refCtx, p, rfi.Size)
		tdata := slurp(d.t, d.tgt, d.tgtCtx, p, rfi.Size)
		if !bytes.Equal(rdata, tdata) {
			d.failf("settle content %s (%d bytes): reference %x, target %x", p, rfi.Size, rdata, tdata)
		}
	}
}

func slurp(t *testing.T, fs storage.FileSystem, ctx *storage.Context, path string, size int64) []byte {
	t.Helper()
	h, err := fs.Open(ctx, path)
	if err != nil {
		t.Errorf("settle open %s: %v", path, err)
		return nil
	}
	defer h.Close(ctx)
	out := make([]byte, size)
	var off int64
	for off < size {
		n, err := h.ReadAt(ctx, off, out[off:])
		if err != nil {
			t.Errorf("settle read %s@%d: %v", path, off, err)
			return out[:off]
		}
		if n == 0 {
			return out[:off]
		}
		off += int64(n)
	}
	return out
}

func listing(ents []storage.DirEntry) string {
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		kind := "f"
		if e.IsDir {
			kind = "d"
		}
		names = append(names, e.Name+":"+kind)
	}
	sort.Strings(names)
	var b bytes.Buffer
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
	}
	return b.String()
}

func closeQuiet(d *diffState, rh, th storage.Handle) {
	if rh != nil {
		_ = rh.Close(d.refCtx)
	}
	if th != nil {
		_ = th.Close(d.tgtCtx)
	}
}

func under(p, dir string) bool {
	return len(p) > len(dir) && p[:len(dir)] == dir && p[len(dir)] == '/'
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

const maxFuzzOps = 64

func runScript(t *testing.T, b Backend, input []byte) {
	t.Helper()
	d := &diffState{
		t:       t,
		name:    b.Name,
		caps:    b.Caps,
		ref:     posixfs.NewStrict(newCluster()),
		tgt:     b.Mk(),
		refCtx:  storage.NewContext(),
		tgtCtx:  storage.NewContext(),
		handles: make(map[string]*openPair),
	}
	for _, dir := range fuzzDirs {
		if err := d.ref.Mkdir(d.refCtx, dir); err != nil {
			t.Fatalf("setup mkdir %s on reference: %v", dir, err)
		}
		if err := d.tgt.Mkdir(d.tgtCtx, dir); err != nil {
			t.Fatalf("setup mkdir %s on %s: %v", dir, b.Name, err)
		}
	}
	s := &script{in: input}
	for !s.done() && d.step < maxFuzzOps {
		d.apply(s)
	}
	d.settle()
}

func FuzzFSOps(f *testing.F) {
	// Seeds cover every opcode and the interesting interleavings: write
	// then read through the same handle, sync-then-read, rename of a file
	// with data, sparse offsets, truncate, directory churn.
	f.Add([]byte{0, 0, 2, 0, 200, 20, 7, 3, 0, 0, 24, 4, 0, 5, 0})
	f.Add([]byte{0, 2, 2, 2, 5, 30, 1, 5, 2, 8, 2, 0, 11, 0, 12, 0})
	f.Add([]byte{0, 0, 2, 0, 90, 36, 9, 5, 0, 7, 0, 12, 11, 0, 1, 0, 3, 0, 3, 40})
	f.Add([]byte{9, 5, 0, 3, 2, 3, 0, 18, 77, 4, 3, 5, 3, 8, 3, 1, 6, 0, 10, 0, 10, 7})
	f.Add([]byte{0, 1, 2, 1, 255, 36, 33, 2, 1, 128, 12, 9, 4, 1, 3, 1, 10, 3, 1, 5, 1, 8, 1, 4, 6, 4})
	f.Add([]byte{8, 6, 0, 9, 6, 9, 2, 0, 4, 2, 4, 120, 30, 2, 5, 4, 11, 4, 5, 4, 8, 4, 0, 6, 4, 10, 6})
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, b := range Backends() {
			runScript(t, b, input)
		}
	})
}
