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
// no per-request buffer. The pool relies on storage.BlobStore's promises that
// WriteBlob does not retain p after it returns and that a successful ReadBlob
// writes every byte of p[:n]. Bodies are not streamed chunk by chunk on
// purpose: a multi-chunk PUT would become several writes, so a failure
// partway would leave old and new chunks mixed, and a chunked GET would lose
// the one-latch snapshot a single ReadBlob gives. A request's Content-Length
// is only a capacity hint, capped at maxPooledBuf, and a buffer that grew past
// that cap is dropped rather than pooled, so one huge object cannot pin memory.
//
// A plain GET is one ReadBlob at offset 0 into the buffer's whole capacity:
// ReadBlob's short read ends at EOF, so the count is the object's size, taken
// under the same latch as its bytes, and no BlobSize precedes it. The buffer
// is grown to a floor that holds every one-chunk object (the store's chunk
// size plus one byte, at most maxPooledBuf). A larger object fills the
// buffer; the GET then asks BlobSize for a hint, grows the buffer past it and
// reads again from offset 0 until a read comes back short, so it costs one
// BlobSize and one more ReadBlob per round, and the body is still the bytes of
// one ReadBlob. A ranged GET needs the total size for Content-Range, so it
// keeps BlobSize then ReadBlob.
//
// A PUT writes first: an overwrite is WriteBlob then TruncateBlob, which
// trims the old object's tail and is the one metadata op it pays. Only a
// write that finds no key creates it and writes again. The overwrite is two
// latched ops, so a GET between them sees the new body over the old tail when
// the new body is shorter.
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
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// maxPooledBuf caps both the capacity a Content-Length hint may reserve up
// front and the capacity of a buffer put back in bufPool.
const maxPooledBuf = 1 << 20

// defaultChunk stands in for the chunk size of a store that does not report
// one (storage.ChunkSizer) when sizing the GET buffer floor.
const defaultChunk = 64 << 10

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
	// getFloor is the least capacity a plain GET reads into: one byte more
	// than a chunk, so a one-chunk object's read comes back short.
	getFloor int

	virtual atomic.Int64 // summed request virtual time, in nanoseconds
}

// New returns a gateway serving the given store.
func New(store storage.BlobStore) *Gateway {
	undo, _ := store.(storage.BlobCreateUndoer)
	chunk := defaultChunk
	if cs, ok := store.(storage.ChunkSizer); ok && cs.ChunkSize() > 0 {
		chunk = cs.ChunkSize()
	}
	return &Gateway{store: store, undo: undo, getFloor: min(chunk+1, maxPooledBuf)}
}

// TotalVirtualTime reports the summed virtual time of all requests served.
func (g *Gateway) TotalVirtualTime() time.Duration {
	return time.Duration(g.virtual.Load())
}

func (g *Gateway) track(ctx *storage.Context) {
	g.virtual.Add(int64(ctx.Clock.Now()))
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
	if err := g.putBody(ctx, key, body); err != nil {
		httpStoreError(w, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// putBody stores body as key's object: the write, then the trim of an old
// object's tail, so a failed write leaves the old object, not an empty one. A
// write that finds no key creates it and writes again.
func (g *Gateway) putBody(ctx *storage.Context, key string, body []byte) error {
	for {
		_, err := g.store.WriteBlob(ctx, key, 0, body)
		if err == nil {
			// The body is in: a trim that finds no key lost to a DELETE that
			// came after this PUT, which is still a PUT that happened.
			if err := g.store.TruncateBlob(ctx, key, int64(len(body))); err != nil && !errors.Is(err, storage.ErrNotFound) {
				return err
			}
			return nil
		}
		if !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		var created uint64 // the version this PUT's create stamped
		if g.undo != nil {
			created, err = g.undo.CreateBlobVersion(ctx, key)
		} else {
			err = g.store.CreateBlob(ctx, key)
		}
		if errors.Is(err, storage.ErrExists) {
			continue // another PUT created the key meanwhile: overwrite it
		}
		if err != nil {
			return err
		}
		if len(body) > 0 {
			if _, err := g.store.WriteBlob(ctx, key, 0, body); err != nil {
				// A new key's failed write must not leave an empty object: take
				// the create back, unless another op has changed the blob since.
				if g.undo != nil {
					_ = g.undo.DeleteBlobVersion(ctx, key, created)
				}
				return err
			}
		}
		return nil
	}
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
	bp := bufPool.Get().(*[]byte)
	defer putBuf(bp)
	rng := r.Header.Get("Range")
	if rng == "" {
		body, err := g.readWhole(ctx, key, bp)
		if err != nil {
			httpStoreError(w, err)
			return
		}
		writeBody(w, http.StatusOK, body)
		return
	}
	size, err := g.store.BlobSize(ctx, key)
	if err != nil {
		httpStoreError(w, err)
		return
	}
	off, length := int64(0), size
	status := http.StatusOK
	if size > 0 {
		var ok bool
		off, length, ok = parseRange(rng, size)
		if !ok {
			http.Error(w, "invalid range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		status = http.StatusPartialContent
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, size))
	}
	buf := slices.Grow(*bp, int(length))[:length]
	*bp = buf
	n, err := g.store.ReadBlob(ctx, key, off, buf)
	if err != nil {
		httpStoreError(w, err)
		return
	}
	writeBody(w, status, buf[:n])
}

// readWhole reads key's whole object into *bp, growing it as needed, and
// returns it. The body is the bytes of one ReadBlob: a read that fills the
// buffer may have stopped short of the end, so the buffer grows past the
// size BlobSize hints and the read starts again from offset 0.
func (g *Gateway) readWhole(ctx *storage.Context, key string, bp *[]byte) ([]byte, error) {
	buf := slices.Grow((*bp)[:0], g.getFloor)
	for {
		buf = buf[:cap(buf)]
		*bp = buf
		n, err := g.store.ReadBlob(ctx, key, 0, buf)
		if err != nil {
			return nil, err
		}
		if n < len(buf) {
			return buf[:n], nil
		}
		size, err := g.store.BlobSize(ctx, key)
		if err != nil {
			return nil, err
		}
		buf = slices.Grow(buf[:0], int(max(size, int64(len(buf))))+1)
	}
}

// writeBody answers status with body and its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
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
