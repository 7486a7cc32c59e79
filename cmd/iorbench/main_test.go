package main

import (
	"testing"

	"repro/internal/ior"
	"repro/internal/storage"
)

// TestNewBackendKinds: every kind the -backend flag names builds a file
// system, and any other kind is an error naming it.
func TestNewBackendKinds(t *testing.T) {
	for _, kind := range []string{"posix", "relaxed", "blob"} {
		if fs, err := newBackend(kind); err != nil || fs == nil {
			t.Errorf("newBackend(%q) = (%v, %v), want a file system", kind, fs, err)
		}
	}
	if _, err := newBackend("nfs"); err == nil || err.Error() != `unknown backend "nfs"` {
		t.Errorf("newBackend(%q) error = %v, want unknown backend", "nfs", err)
	}
}

// TestTinyRunOnBlob drives the command's blob backend through one small
// verified IOR run, the path main takes for -backend blob.
func TestTinyRunOnBlob(t *testing.T) {
	fs, err := newBackend("blob")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(storage.NewContext(), "/ior"); err != nil {
		t.Fatal(err)
	}
	p := ior.Params{Clients: 2, TransferSize: 4 << 10, BlockSize: 16 << 10, Segments: 2, SharedFile: true, ReadBack: true}
	res, err := ior.Run(fs, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * 16 << 10 * 2); res.TotalBytes != want || res.WriteMBps <= 0 || res.ReadMBps <= 0 {
		t.Fatalf("run = %d bytes at %.1f / %.1f MB/s, want %d bytes at positive rates", res.TotalBytes, res.WriteMBps, res.ReadMBps, want)
	}
}
