// Package wal implements the write-ahead log used by each blob-store server
// for durability of namespace mutations and chunk writes. Records are
// length-prefixed and CRC32C-protected; replay stops cleanly at the first
// torn or corrupt record, mimicking crash-recovery behaviour of real object
// stores (RADOS journals, Týr's persistent log).
//
// The log writes into any io.Writer (in the simulation, an in-memory buffer
// whose persistence cost is charged to the virtual disk by the caller), so
// the package itself is pure and synchronous.
//
// # Vectored appends
//
// A record's payload often arrives in two pieces: a small caller-encoded
// header (chunk addressing, descriptor metadata) and a large data segment
// (the chunk bytes). AppendV and AppendNV accept the pieces separately and,
// when the target implements RecordWriter, stream prefix, header, and
// payload to the medium as one vectored write — the data segment is copied
// exactly once, caller buffer to log medium, with the CRC computed
// incrementally over the segments. Targets that only implement io.Writer
// get the same byte stream via a staging buffer. Either way the encoding is
// bit-identical to the single-buffer appendRecord form, so logs written by
// any mix of Append/AppendV/AppendNV replay interchangeably.
//
// # Sharded lanes
//
// A single Log serializes every appender on one mutex — the write-scaling
// wall of a server whose chunks are otherwise independently locked.
// MultiLog (multilog.go) removes it: N lanes per server, each lane a
// private Log over its own medium, with a server-scoped atomic order key
// stamped into the records' LSN field so replay can interleave the lanes
// back into the exact logical append order. The lane format is exactly the
// single-log format — a MultiLog with one lane is byte-identical to a Log —
// and a lane append is that Log's append under its own mutex. See
// multilog.go for the order-key semantics and the merged-replay prefix
// contract.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// RecordType tags the semantic kind of a log record. The WAL itself treats
// payloads as opaque; types exist so replay handlers can dispatch.
type RecordType uint8

// Record types used by the blob server. The values are positional: deleting a
// type renumbers those after it (RecMeta…RecMigrateEnd are 6…13 since the abort
// marker went), which is safe only because no log outlives the process that
// wrote it and nothing stores a type number.
const (
	RecCreate RecordType = iota + 1
	RecDelete
	RecWrite
	RecTruncate
	RecCommit
	RecMeta
	RecChunkDelete
	RecChunkTruncate
	// RecPrepWrite is a chunk write prepared by a multi-chunk (2PC)
	// transaction: replay buffers it and applies it only once the same
	// chunk's RecChunkCommit arrives, so a crash mid-transaction cannot
	// resurrect a half-committed write.
	RecPrepWrite
	// RecChunkCommit commits every buffered RecPrepWrite for its chunk.
	// (RecCommit remains the transaction-level marker with a meta payload;
	// replay skips it.)
	RecChunkCommit
	// RecRepairNeeded records replication debt for one chunk: a degraded
	// write succeeded on this replica while peers named in the payload's
	// mask missed it. The payload reuses the chunk header layout with the
	// debt mask in the version field and no data. Replay uses overwrite
	// semantics — the latest record's mask wins — so clearing debt is
	// logged as a mask with the repaired bits dropped (0 deletes the
	// entry).
	RecRepairNeeded
	// RecMigrateBegin is the durable intent record of a membership change:
	// AddServer/RemoveServer append it to every live server's log BEFORE the
	// ring mutates, so a crash mid-rebalance recovers with the intent open
	// and can roll the interrupted migration forward. The payload carries
	// the migration sequence number, the operation (add/remove), and the
	// node; replay keeps at most one intent open per server (a later Begin
	// supersedes an earlier one).
	RecMigrateBegin
	// RecMigrateEnd closes the intent opened by RecMigrateBegin with the
	// same sequence number: the migration completed and recovery has
	// nothing to roll forward. Between the two, chunks move under the
	// ordinary chunk records (RecWrite, RecChunkDelete).
	RecMigrateEnd
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecCreate:
		return "create"
	case RecDelete:
		return "delete"
	case RecWrite:
		return "write"
	case RecTruncate:
		return "truncate"
	case RecCommit:
		return "commit"
	case RecMeta:
		return "meta"
	case RecChunkDelete:
		return "chunk-delete"
	case RecChunkTruncate:
		return "chunk-truncate"
	case RecPrepWrite:
		return "prep-write"
	case RecChunkCommit:
		return "chunk-commit"
	case RecRepairNeeded:
		return "repair-needed"
	case RecMigrateBegin:
		return "migrate-begin"
	case RecMigrateEnd:
		return "migrate-end"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one durable log entry.
type Record struct {
	Type    RecordType
	LSN     uint64 // assigned by the log at append time
	Payload []byte
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record whose checksum failed during replay.
var ErrCorrupt = errors.New("wal: corrupt record")

// RecordWriter is the writev-style log target: WriteV appends the
// concatenation of the segments as one atomic write, so a vectored record
// append lands on the medium without the segments being staged into a
// contiguous buffer first. Buffer implements it; targets that do not are
// served through a staging fallback producing the identical byte stream.
type RecordWriter interface {
	io.Writer
	WriteV(segs [][]byte) (int, error)
}

// Log is an append-only write-ahead log. Safe for concurrent appends.
type Log struct {
	mu      sync.Mutex
	w       io.Writer
	rw      RecordWriter // non-nil when w supports vectored writes
	nextLSN uint64
	bytes   int64
	// scratch is the per-log reusable encode buffer for non-vectored
	// targets: records are staged here under mu and written out in one
	// Write call, so steady-state appends allocate nothing once the buffer
	// has grown to the working record size.
	scratch []byte
	// hdrs stages the fixed 17-byte prefix+header block of each record in
	// a vectored append (recPrefixLen per record, contiguous). Persistent
	// so the blocks never escape to a per-call heap allocation.
	hdrs []byte
	// segs is the reusable segment list handed to rw.WriteV.
	segs [][]byte
	// src, when non-nil, overrides LSN assignment: each record draws its
	// LSN from this shared counter instead of the log's private nextLSN.
	// MultiLog sets it on its lane logs so every record carries a
	// server-scoped order key; the key is drawn under the lane log's mutex,
	// so the keys on each lane's medium are strictly increasing.
	// With src set, a failed medium write burns the drawn keys — callers
	// must use an infallible medium (Buffer is; the blob store panics on
	// any append error regardless), or merged replay would stop at the gap.
	src *atomic.Uint64
}

// recPrefixLen is the encoded size of the per-record framing: u32 length,
// u32 crc32c, u8 type, u64 lsn.
const recPrefixLen = 17

// New returns a log appending to w.
func New(w io.Writer) *Log {
	l := &Log{w: w, nextLSN: 1}
	l.rw, _ = w.(RecordWriter)
	return l
}

// Append writes one record and returns its LSN and the encoded size in
// bytes (so the caller can charge the virtual disk for the persistence).
func (l *Log) Append(t RecordType, payload []byte) (lsn uint64, n int, err error) {
	return l.AppendV(t, payload, nil)
}

// AppendV writes one record whose payload is the concatenation of header
// and payload, without ever staging the payload segment: on a RecordWriter
// target the prefix, header, and payload stream to the medium as one
// vectored write (payload bytes are copied exactly once). Either segment
// may be nil. The encoded byte stream is bit-identical to
// Append(t, header||payload).
func (l *Log) AppendV(t RecordType, header, payload []byte) (lsn uint64, n int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn = l.nextLSN
	if l.src != nil {
		lsn = l.src.Add(1)
	}
	if cap(l.hdrs) < recPrefixLen {
		l.hdrs = make([]byte, 0, 16*recPrefixLen)
	}
	l.hdrs = l.hdrs[:recPrefixLen]
	l.stagePrefix(0, t, lsn, header, payload)
	if l.rw != nil {
		l.segs = append(l.segs[:0], l.hdrs[0:recPrefixLen], header, payload)
		n, err = l.rw.WriteV(l.segs)
		l.clearSegs()
	} else {
		l.scratch = append(l.scratch[:0], l.hdrs[0:recPrefixLen]...)
		l.scratch = append(l.scratch, header...)
		l.scratch = append(l.scratch, payload...)
		n, err = l.w.Write(l.scratch)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: append: %w", err)
	}
	l.nextLSN = lsn + 1
	l.bytes += int64(n)
	return lsn, n, nil
}

// AppendVSpec is one record of a batched AppendNV: the record's payload is
// the concatenation of Header and Payload (either may be nil).
type AppendVSpec struct {
	Type    RecordType
	Header  []byte
	Payload []byte
}

// AppendNV is the vectored batch append: the records land atomically with
// consecutive LSNs in a single write to the target, every record's header
// and payload segments streaming to a RecordWriter without staging. Byte
// stream, LSNs, and sizes are identical to calling
// Append(t, header||payload) per spec. It returns the LSN of the first
// record and the total encoded size.
func (l *Log) AppendNV(specs []AppendVSpec) (firstLSN uint64, n int, err error) {
	k := len(specs)
	if k == 0 {
		return 0, 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	firstLSN = l.nextLSN
	if l.src != nil {
		firstLSN = l.src.Add(uint64(k)) - uint64(k) + 1
	}
	if need := k * recPrefixLen; cap(l.hdrs) < need {
		l.hdrs = make([]byte, 0, need)
	}
	l.hdrs = l.hdrs[:k*recPrefixLen]
	for i, sp := range specs {
		l.stagePrefix(i*recPrefixLen, sp.Type, firstLSN+uint64(i), sp.Header, sp.Payload)
	}
	if l.rw != nil {
		l.segs = l.segs[:0]
		for i, sp := range specs {
			l.segs = append(l.segs, l.hdrs[i*recPrefixLen:(i+1)*recPrefixLen], sp.Header, sp.Payload)
		}
		n, err = l.rw.WriteV(l.segs)
		l.clearSegs()
	} else {
		l.scratch = l.scratch[:0]
		for i, sp := range specs {
			l.scratch = append(l.scratch, l.hdrs[i*recPrefixLen:(i+1)*recPrefixLen]...)
			l.scratch = append(l.scratch, sp.Header...)
			l.scratch = append(l.scratch, sp.Payload...)
		}
		n, err = l.w.Write(l.scratch)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: append batch: %w", err)
	}
	l.nextLSN = firstLSN + uint64(k)
	l.bytes += int64(n)
	return firstLSN, n, nil
}

// clearSegs drops the segment references once WriteV has copied them out,
// so the log does not pin the caller's payload buffers (which can be whole
// chunk-sized client slices) until its next append.
func (l *Log) clearSegs() {
	for i := range l.segs {
		l.segs[i] = nil
	}
	l.segs = l.segs[:0]
}

// stagePrefix encodes one record's 17-byte framing block at offset off in
// l.hdrs (which the caller has already sized to cover it), computing the
// CRC incrementally over the type/LSN header and both payload segments.
// Staging in the log-owned buffer — not a stack array — keeps the block
// from escaping to a per-append heap allocation in the checksum call.
func (l *Log) stagePrefix(off int, t RecordType, lsn uint64, header, payload []byte) {
	b := l.hdrs[off : off+recPrefixLen]
	b[8] = byte(t)
	binary.LittleEndian.PutUint64(b[9:17], lsn)
	sum := crc32.Update(0, castagnoli, b[8:17])
	sum = crc32.Update(sum, castagnoli, header)
	sum = crc32.Update(sum, castagnoli, payload)
	binary.LittleEndian.PutUint32(b[0:4], uint32(9+len(header)+len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], sum)
}

// NextLSN returns the LSN the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Size returns the encoded bytes appended since New or the last ResetSize.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// ResetSize zeroes the byte counter after the caller has truncated the
// log's underlying writer (checkpoint compaction), keeping Size consistent
// with the bytes actually on the medium. LSNs are deliberately NOT reset:
// they stay monotonic across compactions.
func (l *Log) ResetSize() {
	l.mu.Lock()
	l.bytes = 0
	l.mu.Unlock()
}

// SetSize overwrites the byte counter after the caller has repaired the
// medium to a known length — crash recovery truncating a torn tail
// (ReplayValid). Like ResetSize, it does not touch LSNs.
func (l *Log) SetSize(n int64) {
	l.mu.Lock()
	l.bytes = n
	l.mu.Unlock()
}

// record layout (all integers little-endian):
//
//	u32 length of (type + lsn + payload)     \  framing prefix, 8 bytes
//	u32 crc32c of that region                /
//	u8  type                                 \  record header, 9 bytes,
//	u64 lsn                                  /  covered by the crc
//	payload                                  — covered by the crc
//
// A vectored append (AppendV/AppendNV) contributes the payload as two
// back-to-back segments, header then data; the framing and crc treat them
// as one region, so the on-medium stream does not record — and replay
// cannot observe — which append form produced a record.
//
// appendRecord appends the encoded record to dst without any intermediate
// buffer: the checksum is computed incrementally over the type/LSN header
// and the payload in place. It is the reference encoder the vectored paths
// are pinned against (TestAppendVMatchesAppendRecord); the Log itself now
// encodes through stagePrefix.
func appendRecord(dst []byte, t RecordType, lsn uint64, payload []byte) []byte {
	var hdr [9]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint64(hdr[1:9], lsn)
	sum := crc32.Update(0, castagnoli, hdr[:])
	sum = crc32.Update(sum, castagnoli, payload)
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:4], uint32(len(hdr)+len(payload)))
	binary.LittleEndian.PutUint32(pre[4:8], sum)
	dst = append(dst, pre[:]...)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Replay decodes records from r in order, invoking fn for each. It stops at
// EOF (clean end), at a truncated tail (treated as a torn final write, not
// an error), or at the first checksum failure, which returns ErrCorrupt.
// If fn returns an error, replay stops and returns that error.
func Replay(r io.Reader, fn func(Record) error) error {
	_, err := ReplayValid(r, fn)
	return err
}

// replayBodyStep bounds each incremental body-read allocation during
// replay, so an untrusted length prefix cannot trigger a giant eager
// allocation for bytes the medium does not hold.
const replayBodyStep = 1 << 20

// decoder incrementally decodes records from one log medium. It is the
// engine shared by ReplayValid (a single stream walked to its end) and
// MultiLog's merged replay, which holds one decoded head record per lane
// and advances lanes one record at a time as the order-key merge consumes
// them. Each record's body is a fresh allocation, so a held head stays
// valid while other lanes advance.
type decoder struct {
	r io.Reader
}

// next decodes one record. done=true reports a clean stop — EOF or a torn
// tail (truncated framing or body). err is ErrCorrupt on a checksum or
// framing failure, or a wrapped reader error; rec and frame are valid only
// when done==false and err==nil. frame is the record's full on-medium
// length (framing prefix plus body), the datum valid-prefix accounting and
// crash repair sum up.
func (d *decoder) next() (rec Record, frame int64, done bool, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, 0, true, nil // torn header: clean stop
		}
		return Record{}, 0, false, fmt.Errorf("wal: replay header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length < 9 || length > 1<<30 {
		return Record{}, 0, false, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, length)
	}
	// Read the body in bounded steps: the length field is untrusted
	// (corruption, torn prefix), so the buffer grows only as bytes
	// actually arrive instead of eagerly allocating up to 1 GiB for a
	// record the medium cannot deliver.
	body := make([]byte, 0, min(int(length), replayBodyStep))
	for len(body) < int(length) {
		grow := min(int(length)-len(body), replayBodyStep)
		off := len(body)
		if off+grow <= cap(body) {
			body = body[:off+grow] // records <= one step extend in place
		} else {
			body = append(body, make([]byte, grow)...)
		}
		if _, err := io.ReadFull(d.r, body[off:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Record{}, 0, true, nil // torn body: clean stop
			}
			return Record{}, 0, false, fmt.Errorf("wal: replay body: %w", err)
		}
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return Record{}, 0, false, ErrCorrupt
	}
	rec = Record{
		Type:    RecordType(body[0]),
		LSN:     binary.LittleEndian.Uint64(body[1:9]),
		Payload: body[9:],
	}
	return rec, int64(len(hdr)) + int64(length), false, nil
}

// Decoder is the exported face of the streaming record decoder: it walks
// one log medium record by record, yielding each record's full on-medium
// frame length alongside it. MultiLog's merged recovery accepts per-lane
// record streams through the LaneFeed interface (multilog.go), and Decoder
// is the canonical feed — callers that pre-decode lanes concurrently
// (the blob store's parallel recovery pipeline) wrap one Decoder per lane
// and batch its output, and the merge cannot tell the difference because
// both shapes produce exactly this decode sequence. Each yielded record's
// payload is a fresh allocation, so records stay valid after the decoder
// advances.
type Decoder struct {
	d decoder
}

// NewDecoder returns a decoder streaming records from r, which must read a
// single log medium from its start (Buffer.Reader provides a stable
// snapshot).
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{d: decoder{r: r}}
}

// Next decodes one record. done=true reports a clean stop — EOF or a torn
// tail. err is ErrCorrupt on a checksum or framing failure; rec and frame
// are valid only when done==false and err==nil. frame is the record's full
// on-medium length (framing prefix plus body) — the datum merged recovery
// sums into each lane's repair truncation point, so a feed wrapping this
// decoder must pass it through unchanged.
func (d *Decoder) Next() (rec Record, frame int64, done bool, err error) {
	return d.d.next()
}

// ReplayValid is Replay plus the medium-repair datum crash recovery needs:
// it additionally returns the length in bytes of the valid record prefix —
// the offset just past the last record that decoded and checksummed clean.
// After a torn-tail stop the caller must truncate the medium to that
// offset before appending again; otherwise the next append lands behind
// the torn partial record, whose stale length prefix would make a later
// replay swallow the new record's first bytes and fail the torn record's
// checksum — ErrCorrupt and silent loss of everything appended since.
func ReplayValid(r io.Reader, fn func(Record) error) (valid int64, err error) {
	d := decoder{r: r}
	for {
		rec, frame, done, err := d.next()
		if done || err != nil {
			return valid, err
		}
		if err := fn(rec); err != nil {
			return valid, err
		}
		valid += frame
	}
}

// ReplayAll collects every record from r into a slice; see Replay for
// termination semantics.
func ReplayAll(r io.Reader) ([]Record, error) {
	var recs []Record
	err := Replay(r, func(rec Record) error {
		// Copy the payload: Replay reuses nothing today, but callers must
		// not depend on that.
		p := make([]byte, len(rec.Payload))
		copy(p, rec.Payload)
		rec.Payload = p
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// DefaultSlabSize is Buffer's backing-slab granularity when SlabSize is 0.
const DefaultSlabSize = 64 << 10

// Buffer is a convenience in-memory log target that also serves as the
// replay source. It implements RecordWriter over fixed-size slabs: the
// backing never regrows geometrically (no growSlice copy-and-discard of a
// giant contiguous slice), appends past the current slab simply start a new
// one, and Reset retains the slabs on a free list, so a steady
// append/compact cycle allocates nothing once the high-water mark is
// reached.
type Buffer struct {
	// SlabSize overrides the backing-slab size in bytes (for tests that
	// want to cross slab boundaries cheaply). Zero means DefaultSlabSize.
	// Must not change once the buffer holds data.
	SlabSize int

	mu     sync.Mutex
	slabs  [][]byte // each of slabSize() capacity; bytes [0,n) are live
	n      int      // total content length
	free   [][]byte // slabs retained by Reset for reuse
	writes int      // Write/WriteV calls since creation (not reset by Reset)
}

func (b *Buffer) slabSize() int {
	if b.SlabSize > 0 {
		return b.SlabSize
	}
	return DefaultSlabSize
}

// writeLocked copies p into the slab sequence at the current end.
func (b *Buffer) writeLocked(p []byte) {
	ss := b.slabSize()
	for len(p) > 0 {
		si, off := b.n/ss, b.n%ss
		if si == len(b.slabs) {
			if k := len(b.free); k > 0 {
				b.slabs = append(b.slabs, b.free[k-1])
				b.free[k-1] = nil
				b.free = b.free[:k-1]
			} else {
				b.slabs = append(b.slabs, make([]byte, ss))
			}
		}
		c := copy(b.slabs[si][off:], p)
		b.n += c
		p = p[c:]
	}
}

// Write implements io.Writer.
func (b *Buffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writes++
	b.writeLocked(p)
	return len(p), nil
}

// WriteV implements RecordWriter: the segments land back-to-back under one
// lock acquisition, so a vectored record append is as atomic with respect
// to concurrent appenders and readers as a single Write.
func (b *Buffer) WriteV(segs [][]byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writes++
	n := 0
	for _, p := range segs {
		b.writeLocked(p)
		n += len(p)
	}
	return n, nil
}

// Reader returns a reader over a snapshot of the current contents.
func (b *Buffer) Reader() io.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := make([]byte, b.n)
	ss := b.slabSize()
	for i := 0; i < len(b.slabs) && i*ss < b.n; i++ {
		copy(snap[i*ss:], b.slabs[i][:min(ss, b.n-i*ss)])
	}
	return bytes.NewReader(snap)
}

// Len returns the current content length.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Writes reports how many Write/WriteV calls have landed since creation
// (Reset does not zero it): one per Append/AppendV call, one per AppendNV
// batch however many records it carries.
func (b *Buffer) Writes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.writes
}

// Slabs reports how many backing slabs currently hold content. Tests use
// it to prove a log actually spans a segmented backing.
func (b *Buffer) Slabs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	ss := b.slabSize()
	return (b.n + ss - 1) / ss
}

// Reset discards all buffered content. Checkpointing uses it to drop a log
// prefix that a freshly written snapshot has made redundant. The slabs move
// to a free list, so refilling after a reset reuses them instead of
// re-allocating the first window.
func (b *Buffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.free = append(b.free, b.slabs...)
	b.slabs = b.slabs[:0]
	b.n = 0
}

// Corrupt flips one byte at off, for crash/corruption injection in tests.
func (b *Buffer) Corrupt(off int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 || off >= b.n {
		return fmt.Errorf("wal: corrupt offset %d out of range %d", off, b.n)
	}
	ss := b.slabSize()
	b.slabs[off/ss][off%ss] ^= 0xff
	return nil
}

// Truncate drops all content after n bytes, simulating a torn write. Slabs
// past the cut stay allocated and are overwritten by subsequent appends.
func (b *Buffer) Truncate(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n < b.n {
		b.n = n
	}
}
