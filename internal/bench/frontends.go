package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/blob"
	"repro/internal/blobfs"
	"repro/internal/cluster"
	"repro/internal/s3gw"
	"repro/internal/storage"
)

// The front-end twins price two converged access paths in virtual time: one
// request through the S3 gateway and one blobfs Rename. blobfs routes Rename
// through blob.RenameBlob (server-side chunk rewrite under both descriptor
// latches) when the store implements storage.BlobRenamer and falls back to
// the client-side copy loop otherwise; TestVirtualTwinsPinned requires the
// fast path to actually beat the copy on simulated cost.

func newFrontendStore() *blob.Store {
	return blob.New(cluster.New(cluster.Config{Nodes: 5, Seed: 1}),
		blob.Config{ChunkSize: 64 << 10, Replication: 3})
}

const (
	s3Objects = 8
	s3ObjSize = 16 << 10
)

// runS3Cycle PUTs and GETs s3Objects objects through the gateway.
func runS3Cycle(url string, payload []byte) error {
	for i := 0; i < s3Objects; i++ {
		key := fmt.Sprintf("%s/bench/obj-%d", url, i)
		req, err := http.NewRequest(http.MethodPut, key, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("bench: PUT %s: status %d", key, resp.StatusCode)
		}
		resp, err = http.Get(key)
		if err != nil {
			return err
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n != int64(len(payload)) {
			return fmt.Errorf("bench: GET %s: status %d, %d bytes", key, resp.StatusCode, n)
		}
	}
	return nil
}

// noRenamer hides blob.Store's BlobRenamer (and ChunkSizer) behind the
// plain BlobStore interface, forcing blobfs onto its copy-loop fallback.
type noRenamer struct {
	storage.BlobStore
}

// VirtualRenameCost measures the simulated marginal cost of one blobfs
// Rename of a 1 MiB (16-chunk) file, through the server-side fast path
// (fast=true) or the client-side copy fallback. Fresh fixture plus one
// warm-up rename, then the mean over twinOps — the same deterministic-twin
// recipe VirtualWriteCost uses, and equally host-independent.
func VirtualRenameCost(fast bool) (time.Duration, error) {
	st := newFrontendStore()
	var fs *blobfs.FS
	if fast {
		fs = blobfs.New(st)
	} else {
		fs = blobfs.New(noRenamer{st})
	}
	ctx := storage.NewContext()
	h, err := fs.Create(ctx, "/payload")
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 11)
	}
	if _, err := h.WriteAt(ctx, 0, buf); err != nil {
		return 0, err
	}
	if err := h.Close(ctx); err != nil {
		return 0, err
	}
	names := [2]string{"/payload", "/payload-moved"}
	if err := fs.Rename(ctx, names[0], names[1]); err != nil {
		return 0, err
	}
	start := ctx.Clock.Now()
	for i := 0; i < twinOps; i++ {
		if err := fs.Rename(ctx, names[(i+1)%2], names[i%2]); err != nil {
			return 0, err
		}
	}
	return (ctx.Clock.Now() - start) / twinOps, nil
}

// VirtualS3RequestCost measures the simulated cost of one S3 gateway request:
// a put/get cycle of s3Objects objects over loopback HTTP against a fresh
// store, averaged over its 2*s3Objects requests.
func VirtualS3RequestCost() (time.Duration, error) {
	payload := make([]byte, s3ObjSize)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	gw := s3gw.New(newFrontendStore())
	srv := httptest.NewServer(gw)
	err := runS3Cycle(srv.URL, payload)
	// Close waits for the handlers, which add their virtual time after responding.
	srv.Close()
	if err != nil {
		return 0, err
	}
	return gw.TotalVirtualTime() / (s3Objects * 2), nil
}
