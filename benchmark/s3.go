package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"repro/internal/blob"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/s3gw"
)

// s3-smallobj: C callers drive s3gw.Gateway.ServeHTTP directly — a
// hand-built *http.Request and a reusable discarding ResponseWriter, no
// sockets and no request parsing in the timed call — over s3Objects
// preloaded objects split into disjoint per-caller key ranges, so the
// order of ops on a key, and with it every count, is fixed by the script.
// Keys are Zipf(1.1) within a range; sizes are 4 KiB 70 % / 32 KiB 25 % /
// 64 KiB 5 %, all within one chunk, so every blob call runs inline and
// writes commit directly without 2PC. A slot keeps its size and its
// popularity rank whatever the seed: with Zipf the few hottest keys carry
// a large share of the bytes, and letting the seed pick their sizes would
// make every seed a different workload. The mix is GET 70 % (a tenth
// ranged), PUT-overwrite 20 %, DELETE + PUT of a new key 5 %, HEAD 4 %,
// LIST of a ten-key prefix 1 %.
const (
	s3Objects = 16384
	// s3SliceOps is per caller.
	s3SliceOps   = 20000
	s3WarmSlices = 1
	s3ListSpan   = 10
)

type s3class uint8

const (
	s3Get s3class = iota
	s3GetRange
	s3Put
	s3Replace
	s3Head
	s3List
)

// s3op is one scripted op: the class, the slot it addresses, and random
// bits the executor turns into a range.
type s3op struct {
	class s3class
	slot  uint32
	rnd   uint32
}

// s3slot is the shadow of one key slot: the generation of its current key
// (bumped when the key is deleted and a new one put), and the version and
// size of the object under it.
type s3slot struct {
	gen  uint32
	seq  uint32
	size int32
	path string
}

type s3 struct {
	env      *env
	fx       *fixture
	callers  []*s3caller
	sliceOps int
}

type s3caller struct {
	w      *s3
	id     int
	gw     [2]*s3gw.Gateway
	ln     *lane
	lat    *latencies
	slots  []s3slot
	rng    *rand.Rand
	zipf   *rand.Zipf
	script []s3op

	req  http.Request
	url  url.URL
	body bodyReader
	rw   respWriter
	rnge []string

	ops, readBytes, writeBytes int64
}

// bodyReader is a request body over a slice of the pattern ring.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// respWriter discards the response, keeping only what the checks need:
// status, length, a 64-byte sample of a GET body compared in place, and
// the whole body of a LIST.
type respWriter struct {
	hdr    http.Header
	status int
	n      int
	// GET expectation, checked on the gateway's single body Write.
	pat      *pattern
	key, seq uint32
	off      int64
	want     int
	ok       bool
	keep     bool
	kept     []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(s int)   { w.status = s }
func (w *respWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	switch {
	case w.keep:
		w.kept = append(w.kept, p...)
	case w.want >= 0:
		w.ok = w.pat.sample(w.key, w.seq, w.off, p, w.want)
	}
	return len(p), nil
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.status, w.n, w.want, w.ok, w.keep = http.StatusOK, 0, -1, false, false
	w.kept = w.kept[:0]
}

func newS3(e *env) (workload, error) {
	s := &s3{env: e, fx: newFixture(e.seed, e.pat, blob.Config{}), sliceOps: e.scaled(s3SliceOps)}
	perCaller := max(s3ListSpan, e.scaled(s3Objects)/s.fx.clients/s3ListSpan*s3ListSpan)
	for id := 0; id < s.fx.clients; id++ {
		c := &s3caller{w: s, id: id, slots: make([]s3slot, perCaller), script: make([]s3op, s.sliceOps)}
		c.rng = rand.New(rand.NewSource(int64(e.seed)<<8 | int64(id)))
		c.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(perCaller-1))
		c.gw[0] = s3gw.New(s.fx.st)
		if e.tr != nil {
			c.ln = e.tr.newLane(1 << 19)
			c.gw[1] = s3gw.New(&tracedStore{in: s.fx.st, tr: e.tr, ln: c.ln})
		}
		c.req = http.Request{URL: &c.url, Header: http.Header{}, Body: &c.body}
		c.rw = respWriter{hdr: http.Header{}, pat: e.pat}
		c.rnge = make([]string, 1)
		s.callers = append(s.callers, c)
	}
	s.resetLatencies()
	// Preload through the gateway, then the warm-up: whole slices, so the
	// Go heap reaches the size it cycles in, and the two CheckpointAll.
	err := runClients(len(s.callers), func(id int) error {
		c := s.callers[id]
		for slot := range c.slots {
			c.slots[slot].path = c.pathOf(slot, 0)
			atomic.AddInt64(&s.fx.liveBytes, int64(sizeOf(slot)))
			if !c.put(false, slot) {
				return fmt.Errorf("preload of %s failed with status %d", c.slots[slot].path, c.rw.status)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < s3WarmSlices; i++ {
		if _, err := s.slice(false); err != nil {
			return nil, fmt.Errorf("s3-smallobj warm-up: %w", err)
		}
	}
	s.fx.warm()
	s.resetLatencies()
	return s, nil
}

func (s *s3) fixture() *fixture { return s.fx }

func (s *s3) resetLatencies() []*latencies {
	var old []*latencies
	for _, c := range s.callers {
		old = append(old, c.lat)
		c.lat = newLatencies(1 << 17)
	}
	return old
}

func (c *s3caller) pathOf(slot int, gen uint32) string {
	return fmt.Sprintf("/o/c%d/%05d-g%d", c.id, slot, gen)
}

func (c *s3caller) key32(slot int) uint32 { return uint32(c.id)<<24 | uint32(slot) }

// sizeOf is the size of every object ever put under the slot.
func sizeOf(slot int) int {
	switch p := slot % 20; {
	case p < 14:
		return 4 << 10
	case p < 19:
		return 32 << 10
	default:
		return 64 << 10
	}
}

// generate writes the next slice's script. The Zipf rank is spread over
// the range by an odd multiplier so hot keys are not neighbours.
func (c *s3caller) generate() {
	n := uint64(len(c.slots))
	for i := range c.script {
		op := s3op{slot: uint32(c.zipf.Uint64() * 7919 % n), rnd: c.rng.Uint32()}
		switch p := c.rng.Intn(1000); {
		case p < 630:
			op.class = s3Get
		case p < 700:
			op.class = s3GetRange
		case p < 900:
			op.class = s3Put
		case p < 950:
			op.class = s3Replace
		case p < 990:
			op.class = s3Head
		default:
			op.class = s3List
		}
		c.script[i] = op
	}
}

// serve times one ServeHTTP call.
func (c *s3caller) serve(traced bool, method, path, query string) time.Duration {
	c.req.Method, c.url.Path, c.url.RawQuery = method, path, query
	gw := c.gw[0]
	var p probe
	if traced {
		gw, p = c.gw[1], probe{c.w.env.tr, c.ln}
	}
	t := time.Now()
	i := p.begin(layerS3gw, method)
	gw.ServeHTTP(&c.rw, &c.req)
	p.end(i, int64(c.rw.n))
	c.ops++
	return time.Since(t)
}

func (c *s3caller) put(traced bool, slot int) bool {
	sl, size := &c.slots[slot], sizeOf(slot)
	seq := sl.seq + 1
	c.body.Reset(c.w.env.pat.bytes(c.key32(slot), seq, 0, size))
	c.rw.reset()
	d := c.serve(traced, http.MethodPut, sl.path, "")
	c.lat.write = append(c.lat.write, int64(d))
	c.body.Reset(nil)
	if c.rw.status != http.StatusOK {
		return false
	}
	sl.seq, sl.size = seq, int32(size)
	c.writeBytes += int64(size)
	return true
}

// run executes the caller's script for one slice.
func (c *s3caller) run(traced bool) {
	v := c.w.env.v
	for _, op := range c.script {
		slot := int(op.slot)
		sl := &c.slots[slot]
		switch op.class {
		case s3Get, s3GetRange:
			off, length := int64(0), int(sl.size)
			c.rw.reset()
			if op.class == s3GetRange {
				off = int64(op.rnd) % int64(sl.size)
				length = 1 + int(op.rnd>>8)%(int(sl.size)-int(off))
				c.rnge[0] = "bytes=" + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(off+int64(length)-1, 10)
				c.req.Header["Range"] = c.rnge
			}
			c.rw.key, c.rw.seq, c.rw.off, c.rw.want = c.key32(slot), sl.seq, off, length
			d := c.serve(traced, http.MethodGet, sl.path, "")
			c.lat.read = append(c.lat.read, int64(d))
			delete(c.req.Header, "Range")
			c.readBytes += int64(c.rw.n)
			if !c.rw.ok || (c.rw.status != http.StatusOK && c.rw.status != http.StatusPartialContent) {
				v.fail("s3-smallobj: GET %s [%d,+%d) of version %d: status %d, %d bytes", sl.path, off, length, sl.seq, c.rw.status, c.rw.n)
			}
		case s3Put:
			if !c.put(traced, slot) {
				v.fail("s3-smallobj: PUT %s: status %d", sl.path, c.rw.status)
			}
		case s3Replace:
			c.rw.reset()
			d := c.serve(traced, http.MethodDelete, sl.path, "")
			c.lat.other = append(c.lat.other, int64(d))
			if c.rw.status != http.StatusNoContent {
				v.fail("s3-smallobj: DELETE %s: status %d", sl.path, c.rw.status)
			}
			sl.gen++
			sl.path = c.pathOf(slot, sl.gen)
			if !c.put(traced, slot) {
				v.fail("s3-smallobj: PUT of new key %s: status %d", sl.path, c.rw.status)
			}
		case s3Head:
			c.rw.reset()
			d := c.serve(traced, http.MethodHead, sl.path, "")
			c.lat.other = append(c.lat.other, int64(d))
			if c.rw.status != http.StatusOK || c.rw.hdr.Get("Content-Length") != strconv.Itoa(int(sl.size)) {
				v.fail("s3-smallobj: HEAD %s: status %d length %q, want %d", sl.path, c.rw.status, c.rw.hdr.Get("Content-Length"), sl.size)
			}
		case s3List:
			// Slots are numbered with five digits, so a four-digit prefix
			// names exactly ten of them, each holding one live key.
			prefix := fmt.Sprintf("o/c%d/%04d", c.id, slot/s3ListSpan)
			c.rw.reset()
			c.rw.keep = true
			d := c.serve(traced, http.MethodGet, "/", "prefix="+url.QueryEscape(prefix))
			c.lat.other = append(c.lat.other, int64(d))
			if got := bytes.Count(c.rw.kept, []byte("<Key>")); c.rw.status != http.StatusOK || got != s3ListSpan {
				v.fail("s3-smallobj: LIST %s: status %d, %d keys", prefix, c.rw.status, got)
			}
		}
	}
}

func (s *s3) slice(traced bool) (sliceStats, error) {
	fx := s.fx
	var st sliceStats
	for _, c := range s.callers {
		c.generate()
		c.ops, c.readBytes, c.writeBytes = 0, 0, 0
	}
	fx.cl.ResetStats()
	t0 := time.Now()
	_ = runClients(len(s.callers), func(id int) error {
		c := s.callers[id]
		t := time.Now()
		c.run(traced)
		if traced {
			c.ln.wall += time.Since(t)
		}
		return nil
	})
	st.fgWall = time.Since(t0)
	st.writeWall, st.readWall = st.fgWall, st.fgWall
	for _, c := range s.callers {
		st.ops += c.ops
		st.readBytes += c.readBytes
		st.writeBytes += c.writeBytes
	}
	s.env.v.add(st.ops)
	// The gateway mints a fresh clock per request, so no client clock
	// spans the slice; the busiest device's horizon is its makespan.
	st.sim = fx.simMakespan()
	st.device(fx)
	var p probe
	if traced {
		p = probe{s.env.tr, s.callers[0].ln}
	}
	st.maintWall, st.walGrowth = fx.checkpoint(p)
	return st, nil
}

// epilogue GETs every live object and checks all of its bytes.
func (s *s3) epilogue() error {
	return runClients(len(s.callers), func(id int) error {
		c := s.callers[id]
		for slot := range c.slots {
			sl := &c.slots[slot]
			c.rw.reset()
			c.rw.keep = true
			c.serve(false, http.MethodGet, sl.path, "")
			s.env.v.add(1)
			if c.rw.status != http.StatusOK || len(c.rw.kept) != int(sl.size) || !s.env.pat.full(c.key32(slot), sl.seq, 0, c.rw.kept) {
				s.env.v.fail("s3-smallobj: object %s does not hold version %d", sl.path, sl.seq)
			}
		}
		return nil
	})
}
