package s3gw

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// hookStore wraps a blob.Store with the gateway's view of it, the primitive
// set plus the create undoer and the chunk size, and counts every call by
// method. before[m] runs right before the next call of method m, after[m]
// right after it returns; each hook runs once. Hooks act on the inner store,
// so what they do is not counted.
type hookStore struct {
	in *blob.Store

	mu            sync.Mutex
	calls         map[string]int
	before, after map[string]func()
}

func newHookStore(chunk int) *hookStore {
	return &hookStore{
		in: blob.New(cluster.New(cluster.Config{Nodes: 4, Seed: 1}),
			blob.Config{ChunkSize: chunk, Replication: 2}),
		calls: map[string]int{}, before: map[string]func(){}, after: map[string]func(){},
	}
}

// take counts a call of m and removes and returns the hook hooks[m].
func (s *hookStore) take(hooks map[string]func(), m string, count bool) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if count {
		s.calls[m]++
	}
	f := hooks[m]
	delete(hooks, m)
	return f
}

func (s *hookStore) enter(m string) {
	if f := s.take(s.before, m, true); f != nil {
		f()
	}
}

func (s *hookStore) exit(m string) {
	if f := s.take(s.after, m, false); f != nil {
		f()
	}
}

// reset forgets the counts so far and returns them.
func (s *hookStore) reset() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.calls
	s.calls = map[string]int{}
	return c
}

func (s *hookStore) CreateBlob(ctx *storage.Context, key string) error {
	s.enter("CreateBlob")
	defer s.exit("CreateBlob")
	return s.in.CreateBlob(ctx, key)
}

func (s *hookStore) DeleteBlob(ctx *storage.Context, key string) error {
	s.enter("DeleteBlob")
	defer s.exit("DeleteBlob")
	return s.in.DeleteBlob(ctx, key)
}

func (s *hookStore) ReadBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	s.enter("ReadBlob")
	defer s.exit("ReadBlob")
	return s.in.ReadBlob(ctx, key, off, p)
}

func (s *hookStore) WriteBlob(ctx *storage.Context, key string, off int64, p []byte) (int, error) {
	s.enter("WriteBlob")
	defer s.exit("WriteBlob")
	return s.in.WriteBlob(ctx, key, off, p)
}

func (s *hookStore) TruncateBlob(ctx *storage.Context, key string, size int64) error {
	s.enter("TruncateBlob")
	defer s.exit("TruncateBlob")
	return s.in.TruncateBlob(ctx, key, size)
}

func (s *hookStore) BlobSize(ctx *storage.Context, key string) (int64, error) {
	s.enter("BlobSize")
	defer s.exit("BlobSize")
	return s.in.BlobSize(ctx, key)
}

func (s *hookStore) Scan(ctx *storage.Context, prefix string) ([]storage.BlobInfo, error) {
	s.enter("Scan")
	defer s.exit("Scan")
	return s.in.Scan(ctx, prefix)
}

func (s *hookStore) CreateBlobVersion(ctx *storage.Context, key string) (uint64, error) {
	s.enter("CreateBlobVersion")
	defer s.exit("CreateBlobVersion")
	return s.in.CreateBlobVersion(ctx, key)
}

func (s *hookStore) DeleteBlobVersion(ctx *storage.Context, key string, ver uint64) error {
	s.enter("DeleteBlobVersion")
	defer s.exit("DeleteBlobVersion")
	return s.in.DeleteBlobVersion(ctx, key, ver)
}

func (s *hookStore) ChunkSize() int { return s.in.ChunkSize() }

// TestStoreCallsPerRequest pins the store calls each request makes. A plain
// GET is one ReadBlob, whose short read gives the size; an overwrite PUT is
// the write and the trim, with no create in front of them.
func TestStoreCallsPerRequest(t *testing.T) {
	st := newHookStore(64 << 10)
	gw := New(st)
	body := func(s string) io.Reader { return strings.NewReader(s) }
	steps := []struct {
		name, method, key, rng string
		body                   io.Reader
		code                   int
		calls                  map[string]int
	}{
		{"new-key PUT", http.MethodPut, "k", "", body("first version"), http.StatusOK,
			map[string]int{"WriteBlob": 2, "CreateBlobVersion": 1}},
		{"overwrite PUT", http.MethodPut, "k", "", body("second"), http.StatusOK,
			map[string]int{"WriteBlob": 1, "TruncateBlob": 1}},
		{"GET", http.MethodGet, "k", "", nil, http.StatusOK,
			map[string]int{"ReadBlob": 1}},
		{"ranged GET", http.MethodGet, "k", "bytes=1-3", nil, http.StatusPartialContent,
			map[string]int{"BlobSize": 1, "ReadBlob": 1}},
		{"HEAD", http.MethodHead, "k", "", nil, http.StatusOK,
			map[string]int{"BlobSize": 1}},
		{"LIST", http.MethodGet, "", "", nil, http.StatusOK,
			map[string]int{"Scan": 1}},
		{"DELETE", http.MethodDelete, "k", "", nil, http.StatusNoContent,
			map[string]int{"DeleteBlob": 1}},
		{"GET of a missing key", http.MethodGet, "k", "", nil, http.StatusNotFound,
			map[string]int{"ReadBlob": 1}},
		{"new-key empty PUT", http.MethodPut, "e", "", body(""), http.StatusOK,
			map[string]int{"WriteBlob": 1, "CreateBlobVersion": 1}},
		{"GET of an empty object", http.MethodGet, "e", "", nil, http.StatusOK,
			map[string]int{"ReadBlob": 1}},
	}
	for _, s := range steps {
		if rec := serveRecorded(gw, s.method, s.key, s.rng, s.body); rec.Code != s.code {
			t.Errorf("%s: status %d, want %d", s.name, rec.Code, s.code)
		}
		if got := st.reset(); !maps.Equal(got, s.calls) {
			t.Errorf("%s: store calls %v, want %v", s.name, got, s.calls)
		}
	}
}

// TestGetReadsWholeObject GETs objects around the GET buffer's floor and a
// 3 MiB one over 64 KiB chunks: every byte comes back, and an object larger
// than the buffer costs one BlobSize hint and one more ReadBlob.
func TestGetReadsWholeObject(t *testing.T) {
	st := newHookStore(64 << 10)
	gw := New(st)
	if gw.getFloor != 64<<10+1 {
		t.Fatalf("GET buffer floor %d, want one chunk and a byte", gw.getFloor)
	}
	for _, size := range []int{gw.getFloor - 1, gw.getFloor, gw.getFloor + 1, 3 << 20} {
		key := fmt.Sprintf("obj-%d", size)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*7 + i>>16)
		}
		if code := serveRecorded(gw, http.MethodPut, key, "", bytes.NewReader(data)).Code; code != http.StatusOK {
			t.Fatalf("PUT %s: status %d", key, code)
		}
		st.reset()
		if err := checkGet(gw, key, "", data); err != nil {
			t.Fatal(err)
		}
		calls := st.reset()
		if size > maxPooledBuf {
			if want := map[string]int{"ReadBlob": 2, "BlobSize": 1}; !maps.Equal(calls, want) {
				t.Errorf("GET of %d B: store calls %v, want %v", size, calls, want)
			}
		} else if calls["ReadBlob"] != calls["BlobSize"]+1 {
			t.Errorf("GET of %d B: store calls %v, want one ReadBlob more than BlobSize", size, calls)
		}
	}
}

// TestPutRacingDelete deletes the key right before one of an overwrite PUT's
// store calls. Either way the PUT happened: a DELETE before its write leaves
// the key to be created again, and one before its trim came after the body
// landed, so the PUT answers 200 and the object is gone.
func TestPutRacingDelete(t *testing.T) {
	for _, c := range []struct {
		call   string
		after  int    // status of a GET after the PUT
		object string // its body when 200
	}{
		{"WriteBlob", http.StatusOK, "second"},
		{"TruncateBlob", http.StatusNotFound, ""},
	} {
		st := newHookStore(64)
		gw := New(st)
		if code := serveRecorded(gw, http.MethodPut, "k", "", strings.NewReader("first version")).Code; code != http.StatusOK {
			t.Fatalf("first PUT: status %d", code)
		}
		st.before[c.call] = func() {
			if err := st.in.DeleteBlob(storage.NewContext(), "k"); err != nil {
				t.Error(err)
			}
		}
		if code := serveRecorded(gw, http.MethodPut, "k", "", strings.NewReader("second")).Code; code != http.StatusOK {
			t.Errorf("PUT with a DELETE before its %s: status %d, want 200", c.call, code)
		}
		if len(st.before) != 0 {
			t.Fatalf("the PUT made no %s call", c.call)
		}
		rec := serveRecorded(gw, http.MethodGet, "k", "", nil)
		if rec.Code != c.after || (c.after == http.StatusOK && rec.Body.String() != c.object) {
			t.Errorf("GET after the PUT with a DELETE before its %s: status %d, %q; want %d, %q",
				c.call, rec.Code, rec.Body.String(), c.after, c.object)
		}
	}
}

// TestGetIsOneVersion pins that a GET's body is one version of the object,
// never bytes of one version cut to another's size. Serially, a 10-byte
// object of 'A's is overwritten by 20 'B's right after a BlobSize returns
// or right before a ReadBlob starts; a GET answers one of the two whole. A
// concurrent arm races GETs against PUTs whose versions only grow, across
// the buffer floor: version v is 8v bytes of byte v.
func TestGetIsOneVersion(t *testing.T) {
	for _, hook := range []string{"after BlobSize", "before ReadBlob"} {
		st := newHookStore(64)
		gw := New(st)
		if code := serveRecorded(gw, http.MethodPut, "k", "", strings.NewReader("AAAAAAAAAA")).Code; code != http.StatusOK {
			t.Fatalf("PUT: status %d", code)
		}
		overwrite := func() {
			if _, err := st.in.WriteBlob(storage.NewContext(), "k", 0, bytes.Repeat([]byte("B"), 20)); err != nil {
				t.Error(err)
			}
		}
		want := "AAAAAAAAAA"
		if hook == "after BlobSize" {
			st.after["BlobSize"] = overwrite
		} else {
			st.before["ReadBlob"] = overwrite
			want = strings.Repeat("B", 20)
		}
		if err := checkGet(gw, "k", "", []byte(want)); err != nil {
			t.Errorf("overwrite %s: %v", hook, err)
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		const keys, readers, versions = 3, 2, 40
		st := newHookStore(64)
		gw := New(st)
		version := func(v int) []byte { return bytes.Repeat([]byte{byte(v)}, 8*v) }
		for k := 0; k < keys; k++ {
			if code := serveRecorded(gw, http.MethodPut, fmt.Sprint(k), "", bytes.NewReader(version(1))).Code; code != http.StatusOK {
				t.Fatalf("PUT: status %d", code)
			}
		}
		var wg sync.WaitGroup
		for k := 0; k < keys; k++ {
			key := fmt.Sprint(k)
			done := make(chan struct{})
			wg.Add(1 + readers)
			go func() {
				defer wg.Done()
				defer close(done)
				for v := 2; v <= versions; v++ {
					if code := serveRecorded(gw, http.MethodPut, key, "", bytes.NewReader(version(v))).Code; code != http.StatusOK {
						t.Errorf("PUT %s v%d: status %d", key, v, code)
					}
				}
			}()
			for r := 0; r < readers; r++ {
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						rec := serveRecorded(gw, http.MethodGet, key, "", nil)
						got := rec.Body.Bytes()
						if rec.Code != http.StatusOK || len(got) == 0 || !bytes.Equal(got, version(int(got[0]))) {
							t.Errorf("GET %s: status %d, %d bytes, not one whole version", key, rec.Code, len(got))
							return
						}
					}
				}()
			}
		}
		wg.Wait()
	})
}
