// Package s3gw exposes a blob store through an S3-flavoured HTTP object
// interface — the cloud-side access path the paper's related work
// discusses (pwalrus' "storage service layer (S3 interface)" over the same
// data as the parallel-file-system view).
//
// Supported subset:
//
//	PUT    /<key>              store an object (overwrite allowed)
//	GET    /<key>              fetch an object (Range: bytes=a-b honoured)
//	HEAD   /<key>              object metadata (Content-Length)
//	DELETE /<key>              remove an object
//	GET    /?prefix=<p>        list objects, S3 ListBucketResult XML
//
// Every request runs on a forked virtual clock; the accumulated gateway
// time is visible via TotalVirtualTime, so the gateway's cost shows up in
// experiments like every other access layer.
//
// # Buffers
//
// PUT reads its body, and GET its response, into a byte slice taken from a
// package-level pool and returned on every exit, so a warm gateway allocates
// no per-request buffer. Each request is still exactly one WriteBlob or
// ReadBlob: the pool relies on storage.BlobStore's promises that WriteBlob
// does not retain p after it returns and that a successful ReadBlob writes
// every byte of p[:n]. Bodies are not streamed chunk by chunk on purpose: a
// multi-chunk PUT would become several writes, so a failure partway would
// leave old and new chunks mixed, and a chunked GET would lose the one-latch
// snapshot a single ReadBlob gives. A request's Content-Length is only a
// capacity hint, capped at maxPooledBuf, and a buffer that grew past that
// cap is dropped rather than pooled, so one huge object cannot pin memory.
package s3gw

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
)

// maxPooledBuf caps both the capacity a Content-Length hint may reserve up
// front and the capacity of a buffer put back in bufPool.
const maxPooledBuf = 1 << 20

// bufPool holds request buffers. It stores *[]byte so a Put does not
// allocate.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// putBuf empties *bp and pools it, unless its capacity is over maxPooledBuf.
func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// readBody reads r's body into the empty buf until EOF: io.ReadAll's loop,
// over a pooled buffer. It trusts the bytes, not the header: Content-Length
// only pre-sizes buf, never past maxPooledBuf.
func readBody(buf []byte, r *http.Request) ([]byte, error) {
	if hint := min(r.ContentLength, maxPooledBuf); hint > int64(cap(buf)) {
		buf = make([]byte, 0, hint)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Gateway is an http.Handler over a blob store.
type Gateway struct {
	store storage.BlobStore
	// undo is the store's storage.BlobCreateUndoer, nil if it has none: a
	// PUT that created its key takes the create back if its write fails.
	undo storage.BlobCreateUndoer

	mu      sync.Mutex
	virtual time.Duration
}

// New returns a gateway serving the given store.
func New(store storage.BlobStore) *Gateway {
	undo, _ := store.(storage.BlobCreateUndoer)
	return &Gateway{store: store, undo: undo}
}

// TotalVirtualTime reports the summed virtual time of all requests served.
func (g *Gateway) TotalVirtualTime() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.virtual
}

func (g *Gateway) track(ctx *storage.Context) {
	g.mu.Lock()
	g.virtual += ctx.Clock.Now()
	g.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := storage.NewContext()
	defer g.track(ctx)

	key := strings.TrimPrefix(r.URL.Path, "/")
	if key == "" {
		if r.Method == http.MethodGet {
			g.list(ctx, w, r)
			return
		}
		http.Error(w, "missing object key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		g.put(ctx, w, r, key)
	case http.MethodGet:
		g.get(ctx, w, r, key)
	case http.MethodHead:
		g.head(ctx, w, key)
	case http.MethodDelete:
		g.delete(ctx, w, key)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (g *Gateway) put(ctx *storage.Context, w http.ResponseWriter, r *http.Request, key string) {
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	body, err := readBody(*bp, r)
	*bp = body
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var created uint64 // the version this PUT's create stamped
	if g.undo != nil {
		created, err = g.undo.CreateBlobVersion(ctx, key)
	} else {
		err = g.store.CreateBlob(ctx, key)
	}
	exists := errors.Is(err, storage.ErrExists)
	if err != nil && !exists {
		httpStoreError(w, err)
		return
	}
	if len(body) > 0 {
		if _, err := g.store.WriteBlob(ctx, key, 0, body); err != nil {
			// A new key's failed write must not leave an empty object: take
			// the create back, unless another op has changed the blob since.
			if !exists && g.undo != nil {
				_ = g.undo.DeleteBlobVersion(ctx, key, created)
			}
			httpStoreError(w, err)
			return
		}
	}
	// S3 PUT overwrites: trim the old object's tail only once the new body
	// is in, so a failed write leaves the old object, not an empty one.
	if exists {
		if err := g.store.TruncateBlob(ctx, key, int64(len(body))); err != nil {
			httpStoreError(w, err)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
}

// parseRange handles the single-range form "bytes=a-b" (and "bytes=a-").
func parseRange(header string, size int64) (off, length int64, ok bool) {
	spec, found := strings.CutPrefix(header, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	lo, hi, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	start, err := strconv.ParseInt(lo, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	end := size - 1
	if hi != "" {
		end, err = strconv.ParseInt(hi, 10, 64)
		if err != nil || end < start {
			return 0, 0, false
		}
		if end >= size {
			end = size - 1
		}
	}
	return start, end - start + 1, true
}

func (g *Gateway) get(ctx *storage.Context, w http.ResponseWriter, r *http.Request, key string) {
	size, err := g.store.BlobSize(ctx, key)
	if err != nil {
		httpStoreError(w, err)
		return
	}
	off, length := int64(0), size
	status := http.StatusOK
	if rng := r.Header.Get("Range"); rng != "" && size > 0 {
		var ok bool
		off, length, ok = parseRange(rng, size)
		if !ok {
			http.Error(w, "invalid range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		status = http.StatusPartialContent
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
	}
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	buf := slices.Grow(*bp, int(length))[:length]
	*bp = buf
	n, err := g.store.ReadBlob(ctx, key, off, buf)
	if err != nil {
		httpStoreError(w, err)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	w.Write(buf[:n])
}

func (g *Gateway) head(ctx *storage.Context, w http.ResponseWriter, key string) {
	size, err := g.store.BlobSize(ctx, key)
	if err != nil {
		httpStoreError(w, err)
		return
	}
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
}

func (g *Gateway) delete(ctx *storage.Context, w http.ResponseWriter, key string) {
	if err := g.store.DeleteBlob(ctx, key); err != nil {
		httpStoreError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// listBucketResult is the S3 listing document (subset).
type listBucketResult struct {
	XMLName  xml.Name  `xml:"ListBucketResult"`
	Prefix   string    `xml:"Prefix"`
	KeyCount int       `xml:"KeyCount"`
	Contents []content `xml:"Contents"`
}

type content struct {
	Key  string `xml:"Key"`
	Size int64  `xml:"Size"`
}

func (g *Gateway) list(ctx *storage.Context, w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	infos, err := g.store.Scan(ctx, prefix)
	if err != nil {
		httpStoreError(w, err)
		return
	}
	result := listBucketResult{Prefix: prefix, KeyCount: len(infos)}
	for _, info := range infos {
		result.Contents = append(result.Contents, content{Key: info.Key, Size: info.Size})
	}
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	enc.Encode(result)
}

func httpStoreError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, storage.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, storage.ErrInvalidArg):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, storage.ErrStaleHandle), errors.Is(err, storage.ErrUnavailable):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
