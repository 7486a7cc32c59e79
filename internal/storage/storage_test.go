package storage

import (
	"testing"
	"time"
)

func TestNewContext(t *testing.T) {
	ctx := NewContext()
	if ctx.Clock == nil {
		t.Fatal("NewContext returned nil clock")
	}
	if ctx.UID != 0 || ctx.GID != 0 {
		t.Fatalf("unexpected identity %d:%d", ctx.UID, ctx.GID)
	}
}

func TestContextFork(t *testing.T) {
	ctx := NewContext()
	ctx.UID, ctx.GID = 42, 7
	ctx.Clock.Advance(5 * time.Millisecond)
	child := ctx.Fork()
	if child.UID != 42 || child.GID != 7 {
		t.Fatalf("Fork dropped identity: %d:%d", child.UID, child.GID)
	}
	if child.Clock.Now() != 5*time.Millisecond {
		t.Fatalf("Fork clock = %v, want 5ms", child.Clock.Now())
	}
	child.Clock.Advance(time.Millisecond)
	if ctx.Clock.Now() != 5*time.Millisecond {
		t.Fatal("child clock advance leaked into parent")
	}
}

func TestCallKindString(t *testing.T) {
	cases := map[CallKind]string{
		CallFileRead:  "File read",
		CallFileWrite: "File write",
		CallDirOp:     "Directory operations",
		CallOther:     "Other",
		CallKind(9):   "CallKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestNumCallKinds(t *testing.T) {
	if NumCallKinds != 4 {
		t.Fatalf("NumCallKinds = %d, want the paper's 4 figure categories", NumCallKinds)
	}
}

func TestOpKindClassification(t *testing.T) {
	readSide := []Op{OpRead, OpOpen, OpStat}
	for _, o := range readSide {
		if o.Kind() != CallFileRead {
			t.Fatalf("%s classified as %v, want File read", o, o.Kind())
		}
	}
	writeSide := []Op{OpWrite, OpCreate, OpClose, OpSync, OpTruncate, OpUnlink, OpRename}
	for _, o := range writeSide {
		if o.Kind() != CallFileWrite {
			t.Fatalf("%s classified as %v, want File write", o, o.Kind())
		}
	}
	dirs := []Op{OpMkdir, OpRmdir, OpOpendir}
	for _, o := range dirs {
		if o.Kind() != CallDirOp {
			t.Fatalf("%s classified as %v, want Directory operations", o, o.Kind())
		}
	}
	other := []Op{OpChmod, OpGetXattr, OpSetXattr}
	for _, o := range other {
		if o.Kind() != CallOther {
			t.Fatalf("%s classified as %v, want Other", o, o.Kind())
		}
	}
}

// Section III: "We classify file open and unlink as file operations" — every
// file-level op must map to a blob primitive; directory ops must not.
func TestMapsToBlobPrimitive(t *testing.T) {
	fileOps := []Op{OpOpen, OpCreate, OpClose, OpRead, OpWrite, OpSync,
		OpTruncate, OpUnlink, OpStat, OpRename}
	for _, o := range fileOps {
		if !o.MapsToBlobPrimitive() {
			t.Fatalf("file op %s should map to a blob primitive", o)
		}
	}
	nonMapping := []Op{OpMkdir, OpRmdir, OpOpendir, OpChmod, OpGetXattr, OpSetXattr}
	for _, o := range nonMapping {
		if o.MapsToBlobPrimitive() {
			t.Fatalf("op %s should require emulation, not a direct mapping", o)
		}
	}
}

func TestSentinelErrorsDistinct(t *testing.T) {
	errs := []error{ErrNotFound, ErrExists, ErrNotEmpty, ErrIsDirectory,
		ErrNotDirectory, ErrPermission, ErrReadOnly, ErrInvalidArg,
		ErrUnsupported, ErrClosed, ErrStaleHandle, ErrUnavailable,
		ErrQuotaExceeded}
	seen := map[string]bool{}
	for _, e := range errs {
		if e == nil {
			t.Fatal("nil sentinel error")
		}
		if seen[e.Error()] {
			t.Fatalf("duplicate error message %q", e.Error())
		}
		seen[e.Error()] = true
	}
}
