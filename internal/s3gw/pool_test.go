package s3gw

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// discardWriter is a ResponseWriter that keeps only the status and the body
// length, so serving into it allocates nothing of its own.
type discardWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(s int)           { w.status = s }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (w *discardWriter) reset() {
	clear(w.hdr)
	w.status, w.n = 0, 0
}

// allocBytesPerOp reports the heap bytes f allocates per call over n calls,
// with the collector off so sync.Pool keeps what the warm-up put in it.
func allocBytesPerOp(n int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestGatewayRequestAllocationBudget pins that a warm gateway allocates no
// per-request buffer: a PUT body or GET response of any size costs a few
// hundred bytes of request bookkeeping, where a buffer per request costs at
// least the object. The PUT bound carries no WAL term: a warm-up window and
// a checkpoint park the log slabs the measured window fills on the lanes'
// free lists, so the log's own growth, the store's live data, allocates
// nothing here. One P throughout: a goroutine that parks in a fan join and
// wakes on another P misses the buffer it left in the first P's private
// pool slot, which is a pool miss, not a per-request allocation.
func TestGatewayRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		getBudget = 1 << 10
		putBudget = 2 << 10
		window    = 64
		nodes     = 9
	)
	store := blob.New(cluster.New(cluster.Config{Nodes: nodes, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
	gw := New(store)
	walSize := func() (n int64) {
		for i := 0; i < nodes; i++ {
			n += store.WALSize(cluster.NodeID(i))
		}
		return n
	}
	var body bytes.Reader
	w := discardWriter{hdr: http.Header{}}
	req := &http.Request{URL: &url.URL{}, Header: http.Header{}, Body: io.NopCloser(&body)}
	for _, size := range []int{4 << 10, 32 << 10, 64 << 10} {
		payload := bytes.Repeat([]byte{0x5A}, size)
		req.URL.Path = "/obj-" + strconv.Itoa(size)
		serve := func(method string) func() {
			return func() {
				req.Method = method
				body.Reset(payload)
				w.reset()
				gw.ServeHTTP(&w, req)
				if w.status != http.StatusOK || (method == http.MethodGet && w.n != size) {
					t.Fatalf("%s %s: status %d, %d bytes", method, req.URL.Path, w.status, w.n)
				}
			}
		}
		get, put := serve(http.MethodGet), serve(http.MethodPut)
		put()
		store.CheckpointAll()
		for i := 0; i < window; i++ {
			put()
			get()
		}
		store.CheckpointAll()

		wal := walSize()
		putBytes := allocBytesPerOp(window, put)
		walPerPut := float64(walSize()-wal) / window
		getBytes := allocBytesPerOp(window, get)
		t.Logf("%5d B object: GET %6.0f B/req, PUT %6.0f B/req (WAL grew %6.0f B/req on recycled slabs)",
			size, getBytes, putBytes, walPerPut)
		if getBytes > getBudget {
			t.Errorf("%d B GET allocates %.0f B per request, budget %d", size, getBytes, getBudget)
		}
		if putBytes > putBudget {
			t.Errorf("%d B PUT allocates %.0f B per request, budget %d", size, putBytes, putBudget)
		}
	}
}

// serveRecorded runs one request through ServeHTTP. body decides the
// Content-Length hint the way a client does: a *bytes.Reader announces its
// length, any other reader none.
func serveRecorded(gw *Gateway, method, key, rng string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, "/"+key, body)
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	return rec
}

// checkGet GETs key, ranged by rng when it is set, and compares the status,
// Content-Length and every body byte with want.
func checkGet(gw *Gateway, key, rng string, want []byte) error {
	rec := serveRecorded(gw, http.MethodGet, key, rng, nil)
	code := http.StatusOK
	if rng != "" {
		code = http.StatusPartialContent
	}
	if rec.Code != code {
		return fmt.Errorf("GET %s %q: status %d, want %d", key, rng, rec.Code, code)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		return fmt.Errorf("GET %s %q: Content-Length %s, want %d", key, rng, cl, len(want))
	}
	got := rec.Body.Bytes()
	if len(got) != len(want) {
		return fmt.Errorf("GET %s %q: %d body bytes, want %d", key, rng, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("GET %s %q: byte %d is %#x, want %#x", key, rng, i, got[i], want[i])
		}
	}
	return nil
}

// TestPooledBuffersNeverLeakBytes checks every body and Content-Length
// against a model while pooled buffers pass from request to request: a large
// object's bytes must not show through a smaller object, a sparse tail, a
// range or an empty object, and concurrent callers must never see each
// other's bytes. 4 KiB chunks make the larger objects multi-chunk.
func TestPooledBuffersNeverLeakBytes(t *testing.T) {
	store := blob.New(cluster.New(cluster.Config{Nodes: 4, Seed: 1}),
		blob.Config{ChunkSize: 4 << 10, Replication: 2})
	gw := New(store)

	t.Run("serial", func(t *testing.T) {
		put := func(key string, data []byte) {
			t.Helper()
			if code := serveRecorded(gw, http.MethodPut, key, "", bytes.NewReader(data)).Code; code != http.StatusOK {
				t.Fatalf("PUT %s: status %d", key, code)
			}
		}
		get := func(key, rng string, want []byte) {
			t.Helper()
			if err := checkGet(gw, key, rng, want); err != nil {
				t.Fatal(err)
			}
		}
		big := bytes.Repeat([]byte{0xAA}, 64<<10)
		put("big", big)
		get("big", "", big)

		small := bytes.Repeat([]byte{0x11}, 4<<10)
		put("small", small)
		get("small", "", small)

		// The hole is grown by the store, not PUT: its zeros come from
		// ReadBlob alone, over a pooled buffer that last held 0xAA.
		head := []byte("0123456789")
		put("sparse", head)
		if err := store.TruncateBlob(storage.NewContext(), "sparse", 40<<10); err != nil {
			t.Fatal(err)
		}
		sparse := append(bytes.Clone(head), make([]byte, 40<<10-len(head))...)
		get("sparse", "", sparse)
		get("sparse", "bytes=5-4200", sparse[5:4201])

		put("empty", nil)
		get("empty", "", nil)
	})

	t.Run("concurrent", func(t *testing.T) {
		const callers, ops = 8, 300
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := leakWorker(gw, c, ops); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	})
}

// leakWorker drives one caller's mix of PUT, GET and ranged GET on its own
// key. Every object it puts is its own fill byte throughout, so a byte from
// another caller's buffer, or from this caller's older larger object, breaks
// the comparison with the model.
func leakWorker(gw *Gateway, id, ops int) error {
	rng := rand.New(rand.NewSource(int64(id)))
	key := fmt.Sprintf("c%d", id)
	fill := byte(0xC0 + id)
	var model []byte
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case model == nil || op < 4:
			data := bytes.Repeat([]byte{fill}, 1+rng.Intn(64<<10))
			var body io.Reader = bytes.NewReader(data)
			if i%2 == 1 {
				body = struct{ io.Reader }{body} // no Content-Length hint
			}
			if code := serveRecorded(gw, http.MethodPut, key, "", body).Code; code != http.StatusOK {
				return fmt.Errorf("op %d: PUT %s: status %d", i, key, code)
			}
			model = data
		case op < 8:
			if err := checkGet(gw, key, "", model); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		default:
			lo := rng.Intn(len(model))
			hi := lo + rng.Intn(len(model)-lo)
			if err := checkGet(gw, key, fmt.Sprintf("bytes=%d-%d", lo, hi), model[lo:hi+1]); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return nil
}

// failingBody yields n bytes, then fails as a dropped connection does.
type failingBody struct{ n int }

func (b *failingBody) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, errors.New("connection reset mid-body")
	}
	k := min(b.n, len(p))
	for i := range p[:k] {
		p[i] = 'x'
	}
	b.n -= k
	return k, nil
}

// TestPutReaderTrustsBytesNotHeaders pins the PUT body reader: Content-Length
// only pre-sizes the buffer, never past maxPooledBuf, the bytes read decide
// what is stored, and a body that fails mid-read stores nothing.
func TestPutReaderTrustsBytesNotHeaders(t *testing.T) {
	store := blob.New(cluster.New(cluster.Config{Nodes: 4, Seed: 1}),
		blob.Config{ChunkSize: 4 << 10, Replication: 2})
	gw := New(store)

	t.Run("Content-Length past the body", func(t *testing.T) {
		const body = "ten bytes!"
		// An earlier object under the key has the log slabs the PUT appends to.
		if code := serveRecorded(gw, http.MethodPut, "liar", "", strings.NewReader("earlier")).Code; code != http.StatusOK {
			t.Fatalf("first PUT status %d", code)
		}
		req := httptest.NewRequest(http.MethodPut, "/liar", strings.NewReader(body))
		req.ContentLength = 1 << 40
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gw.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("PUT status %d", rec.Code)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxPooledBuf+64<<10 {
			t.Fatalf("a %d B body announced as 1 TiB allocated %d B; the hint stops at %d", len(body), got, maxPooledBuf)
		}
		if err := checkGet(gw, "liar", "", []byte(body)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("body fails after 5 bytes", func(t *testing.T) {
		v1 := bytes.Repeat([]byte{0x77}, 6<<10)
		if code := serveRecorded(gw, http.MethodPut, "keep", "", bytes.NewReader(v1)).Code; code != http.StatusOK {
			t.Fatalf("first PUT status %d", code)
		}
		var appends atomic.Int64
		store.Observe(func(blob.Event) { appends.Add(1) })
		rec := serveRecorded(gw, http.MethodPut, "keep", "", &failingBody{n: 5})
		store.Observe(nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("PUT with a failing body: status %d, want %d", rec.Code, http.StatusBadRequest)
		}
		if n := appends.Load(); n != 0 {
			t.Fatalf("PUT with a failing body appended %d times to the store's logs", n)
		}
		if err := checkGet(gw, "keep", "", v1); err != nil {
			t.Fatal(err)
		}
	})
}
