// Package blobfs implements a POSIX-IO file-system interface on top of the
// flat-namespace blob store, the Section III legacy-compatibility argument
// ("this is proven possible by the Ceph file system, a file-system
// interface to RADOS").
//
// Mapping, exactly as the paper describes:
//
//   - file operations map one-to-one onto blob primitives: open/stat →
//     size, read → random read, write → random write, create → create,
//     unlink → delete, truncate → truncate;
//   - directory operations have no blob counterpart and are EMULATED with
//     the scan primitive: a directory is a marker blob whose key ends in
//     "/", and listing scans the key prefix. The paper calls this path
//     "far from optimized", and the ablation benchmarks quantify it;
//   - permissions and xattrs — the POSIX features the paper calls rarely
//     needed — are kept client-side by the adapter (the blob layer
//     deliberately has no notion of them), enough for legacy applications
//     to run unmodified.
//
// Rename has no paper-level blob primitive either. When the store offers
// the storage.BlobRenamer extension (internal/blob's server-side rename),
// the adapter uses it — chunks move through the fast data plane without a
// client round trip per megabyte; otherwise rename degrades to the honest
// copy + delete emulation.
package blobfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/storage"
)

// FS adapts a storage.BlobStore to storage.FileSystem.
type FS struct {
	store storage.BlobStore

	// Client-side metadata for POSIX conveniences the blob layer lacks.
	mu     sync.Mutex
	modes  map[string]uint32
	xattrs map[string]map[string]string
}

// New returns a POSIX adapter over store.
func New(store storage.BlobStore) *FS {
	return &FS{
		store:  store,
		modes:  make(map[string]uint32),
		xattrs: make(map[string]map[string]string),
	}
}

// Store returns the underlying blob store.
func (fs *FS) Store() storage.BlobStore { return fs.store }

// ChunkSize forwards the store's placement granularity (storage.ChunkSizer)
// so collective writers above the adapter can align their shares to whole
// chunks; 0 when the store has no natural granularity.
func (fs *FS) ChunkSize() int {
	if cs, ok := fs.store.(storage.ChunkSizer); ok {
		return cs.ChunkSize()
	}
	return 0
}

// fileKey maps a path to its blob key; dirKey maps a path to its directory
// marker key (trailing slash keeps the two namespaces disjoint).
func fileKey(path string) (string, error) {
	k := strings.Trim(path, "/")
	if k == "" || strings.Contains(k, "//") || strings.Contains(path, "..") {
		return "", fmt.Errorf("path %q: %w", path, storage.ErrInvalidArg)
	}
	return k, nil
}

func dirKey(path string) (string, error) {
	if strings.Trim(path, "/") == "" {
		return "", nil // root: always exists, no marker needed
	}
	k, err := fileKey(path)
	if err != nil {
		return "", err
	}
	return k + "/", nil
}

// parentExists verifies the parent directory marker, one flat lookup.
func (fs *FS) parentExists(ctx *storage.Context, path string) error {
	k, err := fileKey(path)
	if err != nil {
		return err
	}
	i := strings.LastIndexByte(k, '/')
	if i < 0 {
		return nil // parent is the root
	}
	parentMarker := k[:i] + "/"
	if _, err := fs.store.BlobSize(ctx, parentMarker); err != nil {
		return fmt.Errorf("parent of %q: %w", path, fs.classifyMiss(ctx, path))
	}
	return nil
}

// classifyMiss picks the POSIX error class for a failed path lookup the
// way a component walk would: when a strict ancestor of the path exists
// as a FILE, resolution died at that component (ErrNotDirectory, POSIX
// ENOTDIR); otherwise the path is simply absent (ErrNotFound). The flat
// namespace has no real walk, so this probes ancestor blob keys only on
// the miss path — the differential fuzzer pins the taxonomy to posixfs's.
func (fs *FS) classifyMiss(ctx *storage.Context, path string) error {
	k, err := fileKey(path)
	if err != nil {
		return storage.ErrNotFound
	}
	for i := strings.LastIndexByte(k, '/'); i > 0; i = strings.LastIndexByte(k[:i], '/') {
		if _, err := fs.store.BlobSize(ctx, k[:i]); err == nil {
			return storage.ErrNotDirectory
		}
	}
	return storage.ErrNotFound
}

// Create makes (or truncates) a file. Maps to blob create (+ truncate when
// the file existed).
func (fs *FS) Create(ctx *storage.Context, path string) (storage.Handle, error) {
	k, err := fileKey(path)
	if err != nil {
		return nil, err
	}
	if err := fs.parentExists(ctx, path); err != nil {
		return nil, err
	}
	if isDir, _ := fs.isDir(ctx, path); isDir {
		return nil, fmt.Errorf("create %q: %w", path, storage.ErrIsDirectory)
	}
	switch err := fs.store.CreateBlob(ctx, k); {
	case err == nil:
		fs.setMode(path, 0o644)
	case errors.Is(err, storage.ErrExists):
		if err := fs.store.TruncateBlob(ctx, k, 0); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	return &handle{fs: fs, key: k, open: true}, nil
}

// Open opens an existing file. Maps to a blob size probe.
func (fs *FS) Open(ctx *storage.Context, path string) (storage.Handle, error) {
	k, err := fileKey(path)
	if err != nil {
		return nil, err
	}
	if isDir, _ := fs.isDir(ctx, path); isDir {
		return nil, fmt.Errorf("open %q: %w", path, storage.ErrIsDirectory)
	}
	if _, err := fs.store.BlobSize(ctx, k); err != nil {
		return nil, fmt.Errorf("open %q: %w", path, fs.classifyMiss(ctx, path))
	}
	return &handle{fs: fs, key: k, open: true}, nil
}

// Unlink removes a file. Maps to blob delete.
func (fs *FS) Unlink(ctx *storage.Context, path string) error {
	k, err := fileKey(path)
	if err != nil {
		return err
	}
	if isDir, _ := fs.isDir(ctx, path); isDir {
		return fmt.Errorf("unlink %q: %w", path, storage.ErrIsDirectory)
	}
	if err := fs.store.DeleteBlob(ctx, k); err != nil {
		return fmt.Errorf("unlink %q: %w", path, fs.classifyMiss(ctx, path))
	}
	fs.clearMeta(path)
	return nil
}

func (fs *FS) isDir(ctx *storage.Context, path string) (bool, error) {
	dk, err := dirKey(path)
	if err != nil {
		return false, err
	}
	if dk == "" {
		return true, nil // root
	}
	_, err = fs.store.BlobSize(ctx, dk)
	return err == nil, nil
}

// Stat maps to a blob size probe (file) or marker probe (directory).
func (fs *FS) Stat(ctx *storage.Context, path string) (storage.FileInfo, error) {
	if isDir, err := fs.isDir(ctx, path); err != nil {
		return storage.FileInfo{}, err
	} else if isDir {
		return storage.FileInfo{Name: baseName(path), Mode: 0o755, IsDir: true}, nil
	}
	k, err := fileKey(path)
	if err != nil {
		return storage.FileInfo{}, err
	}
	size, err := fs.store.BlobSize(ctx, k)
	if err != nil {
		return storage.FileInfo{}, fmt.Errorf("stat %q: %w", path, fs.classifyMiss(ctx, path))
	}
	return storage.FileInfo{Name: baseName(path), Size: size, Mode: fs.mode(path), IsDir: false}, nil
}

func baseName(path string) string {
	k := strings.Trim(path, "/")
	if i := strings.LastIndexByte(k, '/'); i >= 0 {
		return k[i+1:]
	}
	return k
}

// Truncate maps to blob truncate. Directory paths are rejected with the
// POSIX class (ErrIsDirectory, not ErrNotFound) so the differential fuzzer
// sees the same error taxonomy as posixfs.
func (fs *FS) Truncate(ctx *storage.Context, path string, size int64) error {
	k, err := fileKey(path)
	if err != nil {
		return err
	}
	if isDir, _ := fs.isDir(ctx, path); isDir {
		return fmt.Errorf("truncate %q: %w", path, storage.ErrIsDirectory)
	}
	if err := fs.store.TruncateBlob(ctx, k, size); err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return fmt.Errorf("truncate %q: %w", path, fs.classifyMiss(ctx, path))
		}
		return err
	}
	return nil
}

// Rename moves a file or directory subtree. When the store implements
// storage.BlobRenamer (internal/blob does), each blob moves server-side
// through the fast data plane — WAL-durable chunk rewrites under both keys'
// latches, no bytes through the client; otherwise the adapter
// falls back to the honest copy-then-delete emulation the paper describes,
// visible in the ablation benchmarks. The target must not exist (blobfs
// rename is HDFS-style non-replacing; the fstest matrix pins it).
func (fs *FS) Rename(ctx *storage.Context, oldPath, newPath string) error {
	if err := fs.parentExists(ctx, newPath); err != nil {
		return err
	}
	if isDir, _ := fs.isDir(ctx, oldPath); isDir {
		oldPrefix, err := dirKey(oldPath)
		if err != nil {
			return err
		}
		newPrefix, err := dirKey(newPath)
		if err != nil {
			return err
		}
		if newPrefix == "" {
			return fmt.Errorf("rename to root: %w", storage.ErrInvalidArg)
		}
		if strings.HasPrefix(newPrefix, oldPrefix) {
			return fmt.Errorf("rename %q into its own subtree %q: %w", oldPath, newPath, storage.ErrInvalidArg)
		}
		if exists, _ := fs.pathExists(ctx, newPath); exists {
			return fmt.Errorf("rename to %q: %w", newPath, storage.ErrExists)
		}
		infos, err := fs.store.Scan(ctx, oldPrefix)
		if err != nil {
			return err
		}
		// Move the marker itself plus everything under it.
		if err := fs.moveBlob(ctx, strings.TrimSuffix(oldPrefix, "/")+"/", newPrefix); err != nil {
			return err
		}
		fs.moveMeta(oldPath, newPath)
		for _, info := range infos {
			if info.Key == oldPrefix {
				continue
			}
			rest := strings.TrimPrefix(info.Key, oldPrefix)
			if err := fs.moveBlob(ctx, info.Key, newPrefix+rest); err != nil {
				return err
			}
			fs.moveMeta(oldPath+"/"+strings.TrimSuffix(rest, "/"), newPath+"/"+strings.TrimSuffix(rest, "/"))
		}
		return nil
	}
	oldKey, err := fileKey(oldPath)
	if err != nil {
		return err
	}
	newKey, err := fileKey(newPath)
	if err != nil {
		return err
	}
	if _, err := fs.store.BlobSize(ctx, oldKey); err != nil {
		return fmt.Errorf("rename %q: %w", oldPath, fs.classifyMiss(ctx, oldPath))
	}
	if exists, _ := fs.pathExists(ctx, newPath); exists {
		return fmt.Errorf("rename to %q: %w", newPath, storage.ErrExists)
	}
	if err := fs.moveBlob(ctx, oldKey, newKey); err != nil {
		return err
	}
	fs.moveMeta(oldPath, newPath)
	return nil
}

// pathExists reports whether the path names an existing file or directory
// (either namespace: data blob or marker blob).
func (fs *FS) pathExists(ctx *storage.Context, path string) (bool, error) {
	if isDir, err := fs.isDir(ctx, path); err != nil {
		return false, err
	} else if isDir {
		return true, nil
	}
	k, err := fileKey(path)
	if err != nil {
		return false, err
	}
	_, err = fs.store.BlobSize(ctx, k)
	return err == nil, nil
}

// moveBlob relocates one blob. Fast path: the store's server-side rename.
// Fallback: client-side streaming copy then delete.
func (fs *FS) moveBlob(ctx *storage.Context, oldKey, newKey string) error {
	if r, ok := fs.store.(storage.BlobRenamer); ok {
		return r.RenameBlob(ctx, oldKey, newKey)
	}
	size, err := fs.store.BlobSize(ctx, oldKey)
	if err != nil {
		return err
	}
	if err := fs.store.CreateBlob(ctx, newKey); err != nil {
		return err
	}
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	for off := int64(0); off < size; {
		n, err := fs.store.ReadBlob(ctx, oldKey, off, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if _, err := fs.store.WriteBlob(ctx, newKey, off, buf[:n]); err != nil {
			return err
		}
		off += int64(n)
	}
	return fs.store.DeleteBlob(ctx, oldKey)
}

// Mkdir is emulated with a marker blob. A file occupying the path blocks
// the directory: the two key namespaces are disjoint (trailing slash), so
// without this check a marker could silently coexist with a file blob —
// found by the FuzzFSOps differential fuzzer and pinned by
// TestMkdirOverFileRejected.
func (fs *FS) Mkdir(ctx *storage.Context, path string) error {
	if path == "" {
		return fmt.Errorf("mkdir %q: %w", path, storage.ErrInvalidArg)
	}
	dk, err := dirKey(path)
	if err != nil {
		return err
	}
	if dk == "" {
		return fmt.Errorf("mkdir %q: %w", path, storage.ErrExists)
	}
	if err := fs.parentExists(ctx, path); err != nil {
		return err
	}
	if fk, err := fileKey(path); err == nil {
		if _, err := fs.store.BlobSize(ctx, fk); err == nil {
			return fmt.Errorf("mkdir %q: file in the way: %w", path, storage.ErrExists)
		}
	}
	if err := fs.store.CreateBlob(ctx, dk); err != nil {
		return fmt.Errorf("mkdir %q: %w", path, storage.ErrExists)
	}
	return nil
}

// Rmdir is emulated with a scan: the directory must hold nothing but its
// own marker.
func (fs *FS) Rmdir(ctx *storage.Context, path string) error {
	dk, err := dirKey(path)
	if err != nil {
		return err
	}
	if dk == "" {
		return fmt.Errorf("rmdir root: %w", storage.ErrInvalidArg)
	}
	if _, err := fs.store.BlobSize(ctx, dk); err != nil {
		// Distinguish "a file sits there" — at the path itself or at an
		// ancestor component (POSIX ENOTDIR) — from "nothing there"
		// (ENOENT), matching posixfs's error classes.
		if fk, ferr := fileKey(path); ferr == nil {
			if _, ferr := fs.store.BlobSize(ctx, fk); ferr == nil {
				return fmt.Errorf("rmdir %q: %w", path, storage.ErrNotDirectory)
			}
		}
		return fmt.Errorf("rmdir %q: %w", path, fs.classifyMiss(ctx, path))
	}
	infos, err := fs.store.Scan(ctx, dk)
	if err != nil {
		return err
	}
	for _, info := range infos {
		if info.Key != dk {
			return fmt.Errorf("rmdir %q: %w", path, storage.ErrNotEmpty)
		}
	}
	return fs.store.DeleteBlob(ctx, dk)
}

// ReadDir is the paper's scan emulation: list every blob under the prefix
// and reduce to immediate children.
func (fs *FS) ReadDir(ctx *storage.Context, path string) ([]storage.DirEntry, error) {
	dk, err := dirKey(path)
	if err != nil {
		return nil, err
	}
	if dk != "" {
		if _, err := fs.store.BlobSize(ctx, dk); err != nil {
			// A file at the path itself or at an ancestor component is
			// ENOTDIR, not ENOENT — same taxonomy as Rmdir above.
			if fk, ferr := fileKey(path); ferr == nil {
				if _, ferr := fs.store.BlobSize(ctx, fk); ferr == nil {
					return nil, fmt.Errorf("readdir %q: %w", path, storage.ErrNotDirectory)
				}
			}
			return nil, fmt.Errorf("readdir %q: %w", path, fs.classifyMiss(ctx, path))
		}
	}
	infos, err := fs.store.Scan(ctx, dk)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []storage.DirEntry
	for _, info := range infos {
		rest := strings.TrimPrefix(info.Key, dk)
		if rest == "" {
			continue // the marker itself
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			// A child directory's marker or a deeper descendant.
			name := rest[:i]
			if !seen[name] {
				seen[name] = true
				out = append(out, storage.DirEntry{Name: name, IsDir: true})
			}
			continue
		}
		if !seen[rest] {
			seen[rest] = true
			out = append(out, storage.DirEntry{Name: rest, IsDir: false})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, nil
}

// Chmod records the mode client-side (no blob-layer permissions exist).
func (fs *FS) Chmod(ctx *storage.Context, path string, mode uint32) error {
	if _, err := fs.Stat(ctx, path); err != nil {
		return err
	}
	fs.setMode(path, mode&0o7777)
	return nil
}

// GetXattr reads a client-side extended attribute.
func (fs *FS) GetXattr(ctx *storage.Context, path, name string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if m, ok := fs.xattrs[clean(path)]; ok {
		if v, ok := m[name]; ok {
			return v, nil
		}
	}
	return "", fmt.Errorf("xattr %q on %q: %w", name, path, storage.ErrNotFound)
}

// SetXattr writes a client-side extended attribute.
func (fs *FS) SetXattr(ctx *storage.Context, path, name, value string) error {
	if _, err := fs.Stat(ctx, path); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := clean(path)
	if fs.xattrs[p] == nil {
		fs.xattrs[p] = make(map[string]string)
	}
	fs.xattrs[p][name] = value
	return nil
}

func clean(path string) string { return "/" + strings.Trim(path, "/") }

func (fs *FS) setMode(path string, mode uint32) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.modes[clean(path)] = mode
}

func (fs *FS) mode(path string) uint32 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if m, ok := fs.modes[clean(path)]; ok {
		return m
	}
	return 0o644
}

func (fs *FS) clearMeta(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.modes, clean(path))
	delete(fs.xattrs, clean(path))
}

// moveMeta carries the client-side mode and xattrs across a rename, the way
// an inode keeps them on a real file system.
func (fs *FS) moveMeta(oldPath, newPath string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	op, np := clean(oldPath), clean(newPath)
	if m, ok := fs.modes[op]; ok {
		fs.modes[np] = m
		delete(fs.modes, op)
	}
	if x, ok := fs.xattrs[op]; ok {
		fs.xattrs[np] = x
		delete(fs.xattrs, op)
	}
}

// handle is an open blobfs file; reads and writes map straight onto blob
// primitives.
type handle struct {
	fs   *FS
	key  string
	mu   sync.Mutex
	open bool
}

func (h *handle) ReadAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	return h.fs.store.ReadBlob(ctx, h.key, off, p)
}

func (h *handle) WriteAt(ctx *storage.Context, off int64, p []byte) (int, error) {
	if err := h.check(); err != nil {
		return 0, err
	}
	return h.fs.store.WriteBlob(ctx, h.key, off, p)
}

// Sync is a no-op: blob writes are durable (WAL) when acknowledged.
func (h *handle) Sync(ctx *storage.Context) error { return h.check() }

func (h *handle) Close(ctx *storage.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return storage.ErrClosed
	}
	h.open = false
	return nil
}

func (h *handle) check() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return storage.ErrClosed
	}
	return nil
}
