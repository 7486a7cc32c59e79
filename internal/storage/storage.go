// Package storage defines the interfaces shared by every storage system in
// the repository and the storage-call taxonomy used by the tracer.
//
// Two interfaces matter:
//
//   - BlobStore is exactly the primitive set of the paper's Section III:
//     blob access (random read, size), blob manipulation (random write,
//     truncate), blob administration (create, delete) and namespace access
//     (scan).
//   - FileSystem is the POSIX-IO subset the traced applications exercise:
//     file ops (open/create/read/write/truncate/unlink/stat/sync) plus the
//     directory and "other" ops (mkdir/rmdir/readdir/xattr/chmod/rename)
//     whose relative frequency Figures 1–2 and Table II measure.
//
// All operations take a client Context carrying the virtual clock, so the
// same interface works for the strict PFS, the relaxed HDFS-like FS, the
// blob store and the blob-backed POSIX adapter.
package storage

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Context identifies a logical client of a storage system: its virtual
// clock plus identity fields used for permission checks.
type Context struct {
	Clock *sim.Clock
	UID   int
	GID   int
}

// NewContext returns a context with a fresh clock and root identity.
func NewContext() *Context {
	return &Context{Clock: sim.NewClock(), UID: 0, GID: 0}
}

// Fork derives a child context with an independent clock starting at the
// parent's current virtual time.
func (c *Context) Fork() *Context {
	return &Context{Clock: c.Clock.Fork(), UID: c.UID, GID: c.GID}
}

// Sentinel errors shared by every backend.
var (
	ErrNotFound      = errors.New("storage: not found")
	ErrExists        = errors.New("storage: already exists")
	ErrNotEmpty      = errors.New("storage: directory not empty")
	ErrIsDirectory   = errors.New("storage: is a directory")
	ErrNotDirectory  = errors.New("storage: not a directory")
	ErrPermission    = errors.New("storage: permission denied")
	ErrReadOnly      = errors.New("storage: write not permitted")
	ErrInvalidArg    = errors.New("storage: invalid argument")
	ErrUnsupported   = errors.New("storage: operation not supported by this backend")
	ErrClosed        = errors.New("storage: handle closed")
	ErrStaleHandle   = errors.New("storage: stale handle")
	ErrUnavailable   = errors.New("storage: unavailable")
	ErrQuotaExceeded = errors.New("storage: quota exceeded")
)

// BlobInfo describes one blob in a scan result.
type BlobInfo struct {
	Key  string
	Size int64
}

// BlobStore is the paper's Section III primitive set.
type BlobStore interface {
	// CreateBlob registers a new empty blob under key.
	CreateBlob(ctx *Context, key string) error
	// DeleteBlob removes the blob and its data.
	DeleteBlob(ctx *Context, key string) error
	// ReadBlob reads up to len(p) bytes at off, returning the count read.
	// Reading at or past EOF returns 0, nil (size is exposed separately),
	// and a short read with a nil error ends at EOF: off+n is the size.
	// A successful ReadBlob writes every byte of p[:n], holes as zeros, so
	// callers may pass a reused buffer without clearing it.
	ReadBlob(ctx *Context, key string, off int64, p []byte) (int, error)
	// WriteBlob writes p at off, extending the blob as needed. It does not
	// retain p after it returns, so callers may reuse the buffer.
	WriteBlob(ctx *Context, key string, off int64, p []byte) (int, error)
	// TruncateBlob sets the blob size, zero-filling on extension.
	TruncateBlob(ctx *Context, key string, size int64) error
	// BlobSize reports the blob's current size.
	BlobSize(ctx *Context, key string) (int64, error)
	// Scan lists blobs whose key starts with prefix, in key order.
	Scan(ctx *Context, prefix string) ([]BlobInfo, error)
}

// BlobRenamer is an optional BlobStore extension: a server-side rename that
// moves a blob to a new key without streaming its bytes through the client.
// Adapters discover it by type assertion and fall back to the honest
// copy-then-delete emulation when the store does not provide it.
type BlobRenamer interface {
	// RenameBlob moves the blob at oldKey to newKey. The target key must
	// not exist (ErrExists otherwise); the source must (ErrNotFound).
	RenameBlob(ctx *Context, oldKey, newKey string) error
}

// BlobCreateUndoer is an optional BlobStore extension that lets a client
// take back a blob it created, and nothing a later op made of it. Like
// BlobRenamer, adapters discover it by type assertion.
type BlobCreateUndoer interface {
	// CreateBlobVersion is CreateBlob that also returns the version the new
	// blob's descriptor was stamped with.
	CreateBlobVersion(ctx *Context, key string) (uint64, error)
	// DeleteBlobVersion deletes the blob only while its descriptor still
	// carries ver: a blob another op has since resized, deleted or created
	// again is left alone (ErrExists if one is there, ErrNotFound if none).
	DeleteBlobVersion(ctx *Context, key string, ver uint64) error
}

// ChunkSizer is an optional extension reporting the backend's natural
// placement granularity in bytes. Clients that partition collective writes
// (mpiio two-phase I/O) align their shares to it so each aggregated write
// maps onto whole chunks. A return of 0 means "no natural granularity".
type ChunkSizer interface {
	ChunkSize() int
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Size  int64
	Mode  uint32
	IsDir bool
}

// DirEntry is one entry in a directory listing.
type DirEntry struct {
	Name  string
	IsDir bool
}

// Handle is an open file. Reads and writes are positional (pread/pwrite
// style), matching both MPI-IO and HDFS stream usage after the seek layer
// is stripped.
type Handle interface {
	ReadAt(ctx *Context, off int64, p []byte) (int, error)
	WriteAt(ctx *Context, off int64, p []byte) (int, error)
	// Sync makes previously written data durable and visible per the
	// backend's semantics.
	Sync(ctx *Context) error
	Close(ctx *Context) error
}

// FileSystem is the POSIX-IO subset the traced applications use.
type FileSystem interface {
	Create(ctx *Context, path string) (Handle, error)
	Open(ctx *Context, path string) (Handle, error)
	Unlink(ctx *Context, path string) error
	Stat(ctx *Context, path string) (FileInfo, error)
	Truncate(ctx *Context, path string, size int64) error
	Rename(ctx *Context, oldPath, newPath string) error

	Mkdir(ctx *Context, path string) error
	Rmdir(ctx *Context, path string) error
	ReadDir(ctx *Context, path string) ([]DirEntry, error)

	// Chmod and xattrs are the paper's "other" call category.
	Chmod(ctx *Context, path string, mode uint32) error
	GetXattr(ctx *Context, path, name string) (string, error)
	SetXattr(ctx *Context, path, name, value string) error
}

// CallKind classifies a storage call into the four categories of Figures
// 1–2: file reads, file writes, directory operations, and other.
type CallKind int

// Call kinds, ordered as in the paper's figures.
const (
	CallFileRead CallKind = iota
	CallFileWrite
	CallDirOp
	CallOther
	numCallKinds
)

// String names the kind as in the figures' legends.
func (k CallKind) String() string {
	switch k {
	case CallFileRead:
		return "File read"
	case CallFileWrite:
		return "File write"
	case CallDirOp:
		return "Directory operations"
	case CallOther:
		return "Other"
	default:
		return fmt.Sprintf("CallKind(%d)", int(k))
	}
}

// NumCallKinds is the number of classification buckets.
const NumCallKinds = int(numCallKinds)

// Op identifies a specific storage operation, used for Table II's breakdown
// and for the blob-mapping coverage analysis.
type Op string

// Operation names. File-level operations (the paper classifies open and
// unlink as file operations) map to blob primitives; directory-level ones
// do not and must be emulated.
const (
	OpOpen     Op = "open"
	OpCreate   Op = "create"
	OpClose    Op = "close"
	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpTruncate Op = "truncate"
	OpUnlink   Op = "unlink"
	OpStat     Op = "stat"
	OpRename   Op = "rename"

	OpMkdir   Op = "mkdir"
	OpRmdir   Op = "rmdir"
	OpOpendir Op = "opendir"

	OpChmod    Op = "chmod"
	OpGetXattr Op = "getxattr"
	OpSetXattr Op = "setxattr"
)

// Kind classifies the operation into the figure categories. The mapping
// follows Section IV: reads and writes are the data categories; stat, open,
// close, sync, create, unlink, truncate and rename are file operations that
// the paper counts outside the directory/other buckets — we fold the
// non-read/write file calls into the read or write buckets by data
// direction where meaningful, and report pure-metadata file calls under
// "Other" only when they are xattr/chmod style conveniences.
func (o Op) Kind() CallKind {
	switch o {
	case OpRead, OpOpen, OpStat:
		return CallFileRead
	case OpWrite, OpCreate, OpClose, OpSync, OpTruncate, OpUnlink, OpRename:
		return CallFileWrite
	case OpMkdir, OpRmdir, OpOpendir:
		return CallDirOp
	default:
		return CallOther
	}
}

// MapsToBlobPrimitive reports whether the operation maps directly to one of
// Section III's blob primitives (file ops do; directory ops and xattr-style
// conveniences do not and require scan emulation).
func (o Op) MapsToBlobPrimitive() bool {
	switch o {
	case OpOpen, OpCreate, OpClose, OpRead, OpWrite, OpSync,
		OpTruncate, OpUnlink, OpStat, OpRename:
		return true
	default:
		return false
	}
}
