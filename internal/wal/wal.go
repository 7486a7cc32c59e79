// Package wal implements the write-ahead log used by each blob-store server
// for durability of namespace mutations and chunk writes. Records are
// length-prefixed and CRC32C-protected; replay stops cleanly at the first
// torn or corrupt record, mimicking crash-recovery behaviour of real object
// stores (RADOS journals, Týr's persistent log).
//
// The log writes into a RecordWriter (in the simulation, an in-memory
// buffer whose persistence cost is charged to the virtual disk by the
// caller), so the package itself is pure and synchronous.
//
// # Vectored appends
//
// A record's payload often arrives in two pieces: a small caller-encoded
// header (chunk addressing, descriptor metadata) and a large data segment
// (the chunk bytes). AppendV and AppendNV accept the pieces separately and
// stream prefix, header, and payload to the medium as one vectored write —
// the data segment is copied exactly once, caller buffer to log medium.
//
// The record CRC covers type, LSN, header and payload, but the payload's
// share enters as the payload's own CRC32C, folded into the CRC of the rest
// by ChecksumCombine (crc.go) without reading the payload again. AppendV
// computes that sum itself; AppendVSum and AppendVSpec.Sum take one the
// caller already holds, so a payload logged on R replicas is checksummed
// once, not R times. The stored CRC is the number one pass over the record
// gives, so the encoding is bit-identical to the single-buffer appendRecord
// form and logs written by any mix of Append/AppendV/AppendVSum/AppendNV
// replay interchangeably.
//
// # Stored payloads
//
// The medium never rewrites a byte it stored (Buffer, buffer.go): it keeps
// the stream as segments over pooled backing, a payload starts on a 64-byte
// boundary of its own, and Truncate and Corrupt leave stored bytes alone. So
// an append can hand the payload back as stored — AppendVSum's stored
// result, AppendVSpec.Stored — and the caller can keep that view as its one
// copy of the bytes instead of copying them a second time. A view stays
// valid until the backing is retired (Buffer.Reset, MultiLog.ResetAll) and
// then recycled (Recycle), which the caller does once it has let go of it.
// In between, a payload that is exactly a retired buffer of its own is
// relinked, not copied, and so is a smaller one whose retired slab the
// payloads re-stored since the Reset still cover at least half of, so a
// checkpoint re-logging its chunks from their views copies only the small
// ones of sparse slabs.
//
// Replay finds the same views again. A decoder reading a Buffer yields each
// record's last contiguous piece as Record.Data, a view of the medium with
// its CRC32C, and copies only the framing and headers in front of it: a
// vectored record's payload segment starts a segment of its own, so its Data
// is exactly the view its append returned. The record CRC is checked in one
// pass, Data's sum folded into the CRC of the rest by ChecksumCombine, so a
// caller keeping Data as its memory — crash recovery keeps chunk payloads as
// the chunks' bytes — holds what the live append left, sum included.
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
// type renumbers those after it (RecDelete…RecMigrateEnd are 1…10 since the
// create and truncate records folded into RecMeta and repair debt left the
// logs for an in-memory table), which is safe only because no log outlives
// the process that wrote it and nothing stores a type number.
const (
	RecDelete RecordType = iota + 1
	RecWrite
	RecCommit
	// RecMeta sets a descriptor's size, creating the descriptor if the
	// server holds none: create, size extension, truncate, replication and
	// checkpoint all log it.
	RecMeta
	RecChunkDelete
	RecChunkTruncate
	// RecPrepWrite is a chunk write prepared by a multi-chunk (2PC)
	// transaction: replay buffers it and applies it only once the same
	// chunk's RecChunkCommit arrives, so a crash mid-transaction cannot
	// resurrect a half-committed write.
	RecPrepWrite
	// RecChunkCommit commits every buffered RecPrepWrite for its chunk.
	// (The blob store does not write RecCommit; the type stays because
	// benchmark/'s small-record probe appends it.)
	RecChunkCommit
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
	case RecDelete:
		return "delete"
	case RecWrite:
		return "write"
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
	case RecMigrateBegin:
		return "migrate-begin"
	case RecMigrateEnd:
		return "migrate-end"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one durable log entry. Its payload is Payload ‖ Data (Bytes).
type Record struct {
	Type RecordType
	LSN  uint64 // assigned by the log at append time
	// Payload is the whole payload, or, when a decoder reading a Buffer
	// split it, the part in front of Data, copied out of the medium.
	Payload []byte
	// Data, set only by a decoder reading a Buffer, is the payload's last
	// contiguous piece as the Buffer stores it: a view that stays valid
	// under the Buffer's rules, until its backing is retired and recycled.
	// DataSum is its CRC32C. For a record appended vectored with a
	// non-empty payload segment (AppendV, AppendVSum, AppendNV), Data is
	// exactly that segment as stored and Payload its header.
	Data    []byte
	DataSum uint32
}

// Bytes returns the whole payload, Payload ‖ Data. It allocates only when
// both parts are non-empty.
func (r Record) Bytes() []byte {
	switch {
	case len(r.Data) == 0:
		return r.Payload
	case len(r.Payload) == 0:
		return r.Data
	}
	return append(append(make([]byte, 0, len(r.Payload)+len(r.Data)), r.Payload...), r.Data...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record whose checksum failed during replay.
var ErrCorrupt = errors.New("wal: corrupt record")

// RecordWriter is the log target: WriteV appends the concatenation of the
// segments as one atomic write, so a vectored record append lands on the
// medium without the segments being staged into a contiguous buffer first.
// Buffer and FaultMedium implement it.
type RecordWriter interface {
	io.Writer
	WriteV(segs [][]byte) (int, error)
}

// Log is an append-only write-ahead log. Safe for concurrent appends.
type Log struct {
	mu      sync.Mutex
	w       RecordWriter
	nextLSN uint64
	bytes   int64
	// hdrs stages the fixed 17-byte prefix+header block of each record in
	// a vectored append (recPrefixLen per record, contiguous). Persistent
	// so the blocks never escape to a per-call heap allocation.
	hdrs []byte
	// segs is the reusable segment list handed to w.WriteV.
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
func New(w RecordWriter) *Log {
	return &Log{w: w, nextLSN: 1}
}

// Append writes one record and returns its LSN and the encoded size in
// bytes (so the caller can charge the virtual disk for the persistence).
func (l *Log) Append(t RecordType, payload []byte) (lsn uint64, n int, err error) {
	return l.AppendV(t, payload, nil)
}

// AppendV writes one record whose payload is the concatenation of header
// and payload, without ever staging the payload segment: the prefix,
// header, and payload stream to the medium as one vectored write (payload
// bytes are copied exactly once). Either segment may be nil. The encoded
// byte stream is bit-identical to Append(t, header||payload). It is
// AppendVSum with the payload's sum computed here.
func (l *Log) AppendV(t RecordType, header, payload []byte) (lsn uint64, n int, err error) {
	lsn, n, _, err = l.AppendVSum(t, header, payload, Checksum(payload))
	return lsn, n, err
}

// AppendVSum is AppendV for a caller that already holds sum =
// Checksum(payload): the record CRC folds sum in instead of reading the
// payload again. A wrong sum writes a record replay rejects as ErrCorrupt.
// stored is the payload as the medium holds it, when the medium is a
// Buffer (nil otherwise, or for an empty payload): it stays valid until the
// Buffer's backing is retired and recycled (see Buffer), so a caller may
// keep it as its own copy of the bytes.
func (l *Log) AppendVSum(t RecordType, header, payload []byte, sum uint32) (lsn uint64, n int, stored []byte, err error) {
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
	l.stagePrefix(0, t, lsn, header, len(payload), sum)
	l.segs = append(l.segs[:0], l.hdrs[0:recPrefixLen], header, payload)
	n, err = l.write()
	stored = l.segs[2]
	l.clearSegs()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("wal: append: %w", err)
	}
	l.nextLSN = lsn + 1
	l.bytes += int64(n)
	return lsn, n, stored, nil
}

// AppendVSpec is one record of a batched AppendNV: the record's payload is
// the concatenation of Header and Payload (either may be nil).
type AppendVSpec struct {
	Type    RecordType
	Header  []byte
	Payload []byte
	// Sum is Checksum(Payload) when the caller already holds it. Zero makes
	// AppendNV compute it, which is also right for a payload whose sum is 0.
	Sum uint32
	// Stored is set by AppendNV: the payload as the medium holds it, under
	// AppendVSum's rules for its stored result.
	Stored []byte
}

// AppendNV is the vectored batch append: the records land atomically with
// consecutive LSNs in a single write to the target, every record's header
// and payload segments streaming to the target without staging. Byte
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
		sum := sp.Sum
		if sum == 0 {
			sum = Checksum(sp.Payload)
		}
		l.stagePrefix(i*recPrefixLen, sp.Type, firstLSN+uint64(i), sp.Header, len(sp.Payload), sum)
	}
	l.segs = l.segs[:0]
	for i, sp := range specs {
		l.segs = append(l.segs, l.hdrs[i*recPrefixLen:(i+1)*recPrefixLen], sp.Header, sp.Payload)
	}
	n, err = l.write()
	for i := range specs {
		specs[i].Stored = l.segs[3*i+2]
	}
	l.clearSegs()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: append batch: %w", err)
	}
	l.nextLSN = firstLSN + uint64(k)
	l.bytes += int64(n)
	return firstLSN, n, nil
}

// write hands l.segs, framing, header and payload per record, to the
// medium. A Buffer stores each payload where a view of it stays valid and
// leaves that view in the payload's slot; any other medium keeps no view, so
// the slot is cleared.
func (l *Log) write() (int, error) {
	if b, ok := l.w.(*Buffer); ok {
		return b.writeRecords(l.segs), nil
	}
	n, err := l.w.WriteV(l.segs)
	for i := 2; i < len(l.segs); i += 3 {
		l.segs[i] = nil
	}
	return n, err
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
// l.hdrs (which the caller has already sized to cover it). The CRC runs over
// the type/LSN header and the header segment, then folds in paySum, the
// Checksum of the payLen payload bytes, without reading them. Staging in the
// log-owned buffer — not a stack array — keeps the block from escaping to a
// per-append heap allocation in the checksum call.
func (l *Log) stagePrefix(off int, t RecordType, lsn uint64, header []byte, payLen int, paySum uint32) {
	b := l.hdrs[off : off+recPrefixLen]
	b[8] = byte(t)
	binary.LittleEndian.PutUint64(b[9:17], lsn)
	sum := crc32.Update(0, castagnoli, b[8:17])
	sum = crc32.Update(sum, castagnoli, header)
	sum = ChecksumCombine(sum, paySum, payLen)
	binary.LittleEndian.PutUint32(b[0:4], uint32(9+len(header)+payLen))
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
// The appenders never run the crc over the payload segment: they take the
// payload's own crc32c (the caller's, via AppendVSum or AppendVSpec.Sum, or
// one computed by AppendV) and fold it into the crc of type, lsn and header
// with ChecksumCombine, crc(A‖B) from crc(A), crc(B) and len(B). The stored
// crc is the number a single pass over the region gives.
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
// them. Reading a Buffer (Buffer.Reader), it copies only what lies in front
// of each record body's last contiguous piece — framing and headers, tens of
// bytes — and yields that piece as the record's Data, a view of the medium;
// over any other reader each body is a fresh allocation. Either way a
// yielded record belongs to the caller and stays valid as the decoder
// advances: a held head stays valid while other lanes advance, and a caller
// may keep Data as its own memory (crash recovery keeps chunk payloads as the
// chunks' bytes) until it recycles the Buffer's backing.
type decoder struct {
	r   io.Reader
	seg *segReader // r, when it reads a Buffer
	// pieces is the reused list of views one record body spans; pre and tl
	// stage its framing and its type and LSN. They are decoder-owned, so the
	// read and checksum calls move no stack array to the heap per record.
	pieces [][]byte
	pre    [8]byte
	tl     [9]byte
}

func newDecoder(r io.Reader) decoder {
	seg, _ := r.(*segReader)
	return decoder{r: r, seg: seg}
}

// next decodes one record. done=true reports a clean stop — EOF or a torn
// tail (truncated framing or body). err is ErrCorrupt on a checksum or
// framing failure, or a wrapped reader error; rec and frame are valid only
// when done==false and err==nil. frame is the record's full on-medium
// length (framing prefix plus body), the datum valid-prefix accounting and
// crash repair sum up.
func (d *decoder) next() (rec Record, frame int64, done bool, err error) {
	hdr := d.pre[:]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
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
	if d.seg != nil {
		rec, done, err = d.view(int(length), sum)
	} else {
		rec, done, err = d.read(int(length), sum)
	}
	if done || err != nil {
		return Record{}, 0, done, err
	}
	return rec, int64(len(hdr)) + int64(length), false, nil
}

// view decodes a body of n bytes from a Buffer's segments without copying
// its last contiguous piece: the type and LSN are decoded, the payload bytes
// in front of that piece are copied into Payload, and the piece is Data. One
// pass over the bytes checks the record CRC: Data is summed once, and its
// sum is folded into the CRC of the rest (ChecksumCombine).
func (d *decoder) view(n int, sum uint32) (rec Record, done bool, err error) {
	var ok bool
	d.pieces, ok = d.seg.views(n, d.pieces[:0])
	if !ok {
		return Record{}, true, nil // torn body: clean stop
	}
	last := d.pieces[len(d.pieces)-1]
	at := max(n-len(last), 9) // where Data starts in the body
	tl := gather(d.tl[:0], d.pieces, 0, 9)
	crc := crc32.Update(0, castagnoli, tl)
	if at > 9 {
		rec.Payload = gather(make([]byte, 0, at-9), d.pieces, 9, at)
		crc = crc32.Update(crc, castagnoli, rec.Payload)
	}
	if at < n {
		rec.Data = last[len(last)-(n-at):]
	}
	rec.DataSum = Checksum(rec.Data)
	clear(d.pieces)
	if ChecksumCombine(crc, rec.DataSum, len(rec.Data)) != sum {
		return Record{}, false, ErrCorrupt
	}
	rec.Type = RecordType(tl[0])
	rec.LSN = binary.LittleEndian.Uint64(tl[1:9])
	return rec, false, nil
}

// gather appends bytes [from, to) of the concatenated pieces to dst.
func gather(dst []byte, pieces [][]byte, from, to int) []byte {
	for _, p := range pieces {
		if to <= 0 {
			break
		}
		if from < len(p) {
			dst = append(dst, p[max(from, 0):min(to, len(p))]...)
		}
		from, to = from-len(p), to-len(p)
	}
	return dst
}

// read decodes a body of n bytes from a plain reader into a fresh
// allocation, the whole payload in Payload.
func (d *decoder) read(n int, sum uint32) (rec Record, done bool, err error) {
	// Read the body in bounded steps: the length field is untrusted
	// (corruption, torn prefix), so the buffer grows only as bytes
	// actually arrive instead of eagerly allocating up to 1 GiB for a
	// record the medium cannot deliver.
	body := make([]byte, 0, min(n, replayBodyStep))
	for len(body) < n {
		grow := min(n-len(body), replayBodyStep)
		off := len(body)
		if off+grow <= cap(body) {
			body = body[:off+grow] // records <= one step extend in place
		} else {
			body = append(body, make([]byte, grow)...)
		}
		if _, err := io.ReadFull(d.r, body[off:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Record{}, true, nil // torn body: clean stop
			}
			return Record{}, false, fmt.Errorf("wal: replay body: %w", err)
		}
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return Record{}, false, ErrCorrupt
	}
	return Record{
		Type:    RecordType(body[0]),
		LSN:     binary.LittleEndian.Uint64(body[1:9]),
		Payload: body[9:],
	}, false, nil
}

// Decoder is the exported face of the streaming record decoder: it walks
// one log medium record by record, yielding each record's full on-medium
// frame length alongside it. MultiLog's merged recovery accepts per-lane
// record streams through the LaneFeed interface (multilog.go), and Decoder
// is the canonical feed — callers that pre-decode lanes concurrently
// (the blob store's parallel recovery pipeline) wrap one Decoder per lane
// and batch its output, and the merge cannot tell the difference because
// both shapes produce exactly this decode sequence. Over Buffer.Reader a
// yielded record's Data is a view of the medium and only the bytes in front
// of it are copied (see decoder); over any other reader its payload is a
// fresh allocation. Either way records stay valid after the decoder
// advances and the caller may keep a payload as its own memory, a Data view
// until it recycles the Buffer's backing.
type Decoder struct {
	d decoder
}

// NewDecoder returns a decoder streaming records from r, which must read a
// single log medium from its start. Buffer.Reader reads the medium in
// place, so its contract holds for as long as the decoder is in use.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{d: newDecoder(r)}
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
	d := newDecoder(r)
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
// termination semantics. Records read from a Buffer keep their Data views of
// it (see decoder), so the slice pins no copy of the log.
func ReplayAll(r io.Reader) ([]Record, error) {
	var recs []Record
	err := Replay(r, func(rec Record) error {
		recs = append(recs, rec) // records stay valid (decoder)
		return nil
	})
	return recs, err
}
