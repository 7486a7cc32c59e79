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
package s3gw

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
)

// Gateway is an http.Handler over a blob store.
type Gateway struct {
	store storage.BlobStore

	mu      sync.Mutex
	virtual time.Duration
}

// New returns a gateway serving the given store.
func New(store storage.BlobStore) *Gateway {
	return &Gateway{store: store}
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
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	err = g.store.CreateBlob(ctx, key)
	exists := errors.Is(err, storage.ErrExists)
	if err != nil && !exists {
		httpStoreError(w, err)
		return
	}
	if len(body) > 0 {
		if _, err := g.store.WriteBlob(ctx, key, 0, body); err != nil {
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
	buf := make([]byte, length)
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
