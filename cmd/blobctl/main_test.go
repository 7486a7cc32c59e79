package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func newShell() (storage.BlobStore, *storage.Context) {
	platform := core.New(core.Options{Nodes: 4})
	return platform.Blob(), platform.NewContext()
}

func run(t *testing.T, store storage.BlobStore, ctx *storage.Context, lines ...string) string {
	t.Helper()
	var out strings.Builder
	for _, line := range lines {
		if err := execute(&out, store, ctx, line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	return out.String()
}

func TestShellRoundTrip(t *testing.T) {
	store, ctx := newShell()
	out := run(t, store, ctx,
		"create greeting",
		"write greeting 0 hello blob world",
		"read greeting 6 4",
		"read greeting 11 4000000000000", // LEN is user input: the blob sizes the buffer
		"size greeting",
		"ls",
	)
	for _, want := range []string{"wrote 16 bytes", `"blob"`, `"world"`, "16", "greeting", "(1 blobs)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellTruncateAndRemove(t *testing.T) {
	store, ctx := newShell()
	out := run(t, store, ctx,
		"create k",
		"write k 0 0123456789",
		"trunc k 4",
		"read k 0 10",
		"rm k",
		"ls",
	)
	if !strings.Contains(out, `"0123"`) {
		t.Fatalf("truncate not applied:\n%s", out)
	}
	if !strings.Contains(out, "(0 blobs)") {
		t.Fatalf("rm not applied:\n%s", out)
	}
}

func TestShellErrors(t *testing.T) {
	store, ctx := newShell()
	var out strings.Builder
	cases := []string{
		"bogus",
		"create",
		"write k",
		"write k notanumber data",
		"read k 0",
		"read k 0 -3",
		"read k -1 4000000000000",
		"size",
		"trunc k",
		"rm",
	}
	for _, line := range cases {
		if err := execute(&out, store, ctx, line); err == nil {
			t.Fatalf("%q did not error", line)
		}
	}
	// Operating on a missing blob surfaces the store's error.
	if err := execute(&out, store, ctx, "size ghost"); err == nil {
		t.Fatal("size on missing blob did not error")
	}
}

func TestShellTimeAndHelp(t *testing.T) {
	store, ctx := newShell()
	out := run(t, store, ctx, "help", "time")
	if !strings.Contains(out, "create write read") {
		t.Fatalf("help missing:\n%s", out)
	}
	if !strings.Contains(out, "s") { // a duration string
		t.Fatalf("time missing:\n%s", out)
	}
}

func TestShellScanPrefix(t *testing.T) {
	store, ctx := newShell()
	out := run(t, store, ctx,
		"create logs/a",
		"create logs/b",
		"create data/x",
		"ls logs/",
	)
	if !strings.Contains(out, "(2 blobs)") {
		t.Fatalf("prefix scan wrong:\n%s", out)
	}
	if strings.Contains(out, "data/x") {
		t.Fatalf("prefix scan leaked other namespace:\n%s", out)
	}
}
