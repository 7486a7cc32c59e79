package s3gw

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/cluster"
)

// TestPutOverwriteShorterBody pins the overwrite path: replacing a long
// object with a shorter body must not leave a stale tail from the previous
// version (the PUT trims to the new body's length after writing it).
func TestPutOverwriteShorterBody(t *testing.T) {
	srv, _, _ := newServer(t)
	long := "a-rather-long-first-version-spanning-multiple-chunks-" +
		"0123456789012345678901234567890123456789012345678901234567890123"
	if resp := do(t, http.MethodPut, srv.URL+"/obj", long); resp.StatusCode != http.StatusOK {
		t.Fatalf("first PUT status = %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodPut, srv.URL+"/obj", "tiny"); resp.StatusCode != http.StatusOK {
		t.Fatalf("overwrite PUT status = %d", resp.StatusCode)
	}
	resp := do(t, http.MethodGet, srv.URL+"/obj", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "tiny" {
		t.Fatalf("overwritten object = %q, want %q", body, "tiny")
	}
	if cl := resp.Header.Get("Content-Length"); cl != "4" {
		t.Fatalf("Content-Length = %q, want 4", cl)
	}
	// Overwrite with an empty body must yield an empty object too.
	if resp := do(t, http.MethodPut, srv.URL+"/obj", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty PUT status = %d", resp.StatusCode)
	}
	resp = do(t, http.MethodGet, srv.URL+"/obj", "")
	if body, _ := io.ReadAll(resp.Body); len(body) != 0 {
		t.Fatalf("object after empty overwrite = %q, want empty", body)
	}
}

// TestFailedOverwriteKeepsObject pins write-then-trim: an overwrite PUT whose
// write fails must leave the previous object whole, not emptied.
func TestFailedOverwriteKeepsObject(t *testing.T) {
	srv, _, store := newServer(t)
	v1 := strings.Repeat("first-version-", 8)
	if resp := do(t, http.MethodPut, srv.URL+"/obj", v1); resp.StatusCode != http.StatusOK {
		t.Fatalf("first PUT status = %d", resp.StatusCode)
	}
	c := store.(*blob.Store).Cluster()
	c.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{
		{Node: -1, Kind: cluster.FaultDiskWrite, Prob: 1, Fault: cluster.Fault{Err: errors.New("disk gone")}},
	}))
	if resp := do(t, http.MethodPut, srv.URL+"/obj", "second"); resp.StatusCode == http.StatusOK {
		t.Fatal("overwrite PUT succeeded with every disk failing")
	}
	c.SetFaultInjector(nil)
	resp := do(t, http.MethodGet, srv.URL+"/obj", "")
	if body, _ := io.ReadAll(resp.Body); string(body) != v1 {
		t.Fatalf("object after the failed overwrite = %q, want %q", body, v1)
	}
}

// TestFailedPutLeavesNoObject: a PUT of a new key whose write fails answers
// an error and leaves no object behind, not an empty one that GET, HEAD and
// LIST would show. The gateway takes its create back with a delete that
// applies only while the blob is still at the version that create stamped.
func TestFailedPutLeavesNoObject(t *testing.T) {
	srv, _, store := newServer(t)
	c := store.(*blob.Store).Cluster()
	c.SetFaultInjector(cluster.NewFaultPlan(1, []cluster.FaultRule{
		{Node: -1, Kind: cluster.FaultDiskWrite, Prob: 1, Fault: cluster.Fault{Err: errors.New("disk gone")}},
	}))
	if resp := do(t, http.MethodPut, srv.URL+"/fresh", "never-stored"); resp.StatusCode == http.StatusOK {
		t.Fatal("PUT succeeded with every disk failing")
	}
	c.SetFaultInjector(nil)
	if resp := do(t, http.MethodHead, srv.URL+"/fresh", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD after the failed PUT: status %d, want 404", resp.StatusCode)
	}
	resp := do(t, http.MethodGet, srv.URL+"/?prefix=fresh", "")
	if body, _ := io.ReadAll(resp.Body); strings.Contains(string(body), "<Key>fresh</Key>") {
		t.Fatalf("LIST after the failed PUT shows the key: %s", body)
	}
	// The key is free again: the next PUT creates it.
	if resp := do(t, http.MethodPut, srv.URL+"/fresh", "stored"); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT after the failed one: status %d", resp.StatusCode)
	}
	resp = do(t, http.MethodGet, srv.URL+"/fresh", "")
	if body, _ := io.ReadAll(resp.Body); string(body) != "stored" {
		t.Fatalf("object = %q, want %q", body, "stored")
	}
}

// TestParseRangeEdgeCases pins the single-range parser against the corner
// specs S3 clients actually send.
func TestParseRangeEdgeCases(t *testing.T) {
	const size = 100
	cases := []struct {
		header string
		off    int64
		length int64
		ok     bool
	}{
		{"bytes=0-99", 0, 100, true},
		{"bytes=0-", 0, 100, true},       // open-ended from start
		{"bytes=99-", 99, 1, true},       // open-ended at last byte
		{"bytes=100-", 0, 0, false},      // open-ended at EOF: unsatisfiable
		{"bytes=40-39", 0, 0, false},     // end before start
		{"bytes=90-200", 90, 10, true},   // end clamped to size-1
		{"bytes=0-0", 0, 1, true},        // single byte
		{"bytes=100-110", 0, 0, false},   // wholly beyond size
		{"bytes=-10", 0, 0, false},       // suffix form unsupported here
		{"bytes=a-b", 0, 0, false},       // garbage
		{"bytes=0-9,20-29", 0, 0, false}, // multi-range unsupported
		{"bites=0-9", 0, 0, false},       // wrong unit
		{"bytes=0", 0, 0, false},         // no dash
		{"", 0, 0, false},                // absent header
	}
	for _, c := range cases {
		off, length, ok := parseRange(c.header, size)
		if ok != c.ok || off != c.off || length != c.length {
			t.Errorf("parseRange(%q, %d) = (%d, %d, %v), want (%d, %d, %v)",
				c.header, size, off, length, ok, c.off, c.length, c.ok)
		}
	}
}

// TestRangeAtEOFOverHTTP drives range corner cases through the gateway:
// "bytes=<size>-" is unsatisfiable (416, the S3 answer), while an
// in-bounds open-ended range serves the 206 suffix.
func TestRangeAtEOFOverHTTP(t *testing.T) {
	srv, _, _ := newServer(t)
	if resp := do(t, http.MethodPut, srv.URL+"/r", "0123456789"); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	getRange := func(spec string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/r", nil)
		req.Header.Set("Range", spec)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := getRange("bytes=10-"); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("GET with EOF range: status %d, want 416", resp.StatusCode)
	}
	if resp := getRange("bytes=5-999"); resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("GET with clamped range: status %d, want 206", resp.StatusCode)
	} else {
		if body, _ := io.ReadAll(resp.Body); string(body) != "56789" {
			t.Fatalf("clamped range body = %q, want %q", body, "56789")
		}
		if cr := resp.Header.Get("Content-Range"); cr != "bytes 5-9/10" {
			t.Fatalf("Content-Range = %q", cr)
		}
	}
	if resp := getRange("bytes=junk"); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("GET with malformed range: status %d, want 416", resp.StatusCode)
	}
}

// TestGetWithCrashedDescriptorPrimary: while the node holding an object's
// primary descriptor copy is crashed, GET answers 503, not 404 — the object
// still exists on the descriptor's other owners. Every other single crash
// leaves it readable. Each node is crashed and recovered in turn, so exactly
// one crash is the primary's.
func TestGetWithCrashedDescriptorPrimary(t *testing.T) {
	const nodes = 5
	store := blob.New(cluster.New(cluster.Config{Nodes: nodes, Seed: 1}),
		blob.Config{ChunkSize: 64, Replication: 3})
	gw := New(store)
	if code := serveRecorded(gw, http.MethodPut, "wp", "", strings.NewReader("hello")).Code; code != http.StatusOK {
		t.Fatalf("PUT status = %d", code)
	}
	unavailable := 0
	for n := cluster.NodeID(0); n < nodes; n++ {
		store.Crash(n)
		switch rec := serveRecorded(gw, http.MethodGet, "wp", "", nil); rec.Code {
		case http.StatusOK:
			if body := rec.Body.String(); body != "hello" {
				t.Errorf("GET with node %d crashed: %q, want hello", n, body)
			}
		case http.StatusServiceUnavailable:
			unavailable++
		default:
			t.Errorf("GET with node %d crashed: status %d, want 200 or 503", n, rec.Code)
		}
		if err := store.Recover(n); err != nil {
			t.Fatal(err)
		}
	}
	if unavailable != 1 {
		t.Errorf("%d single crashes answered 503, want exactly the descriptor primary's", unavailable)
	}
}
