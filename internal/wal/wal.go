// Package wal implements the write-ahead log each blob-store server keeps
// for the durability of its namespace mutations and chunk writes. Records
// are length-prefixed and CRC32C-protected; replay stops cleanly at the
// first torn or corrupt record, mimicking crash-recovery behaviour of real
// object stores (RADOS journals, Týr's persistent log).
//
// # Lanes on a Buffer
//
// A server's log is a MultiLog (multilog.go): N lanes, each a Log appending
// to its own Buffer (buffer.go), the in-memory medium whose persistence
// cost the caller charges to the virtual disk. A Buffer cannot fail, so an
// append returns no error and the package is pure and synchronous. Every
// record's LSN field carries an order key drawn from one atomic counter the
// lanes share, so replay interleaves the lanes back into the exact logical
// append order; a lane append is its Log's append under its own mutex. A
// MultiLog with one lane writes exactly appendRecord's encoding with keys
// 1, 2, 3, …. See multilog.go for the order-key semantics and the
// merged-replay prefix contract.
//
// # Vectored appends
//
// A record's payload often arrives in two pieces: a small caller-encoded
// header (chunk addressing, descriptor metadata) and a large data segment
// (the chunk bytes). AppendVSum and AppendNV take the pieces separately and
// hand prefix, header and payload to the Buffer as one write — the data
// segment is copied at most once, caller buffer to log medium.
//
// The record CRC covers type, LSN, header and payload, but the payload's
// share enters as the payload's own CRC32C, folded into the CRC of the rest
// by ChecksumCombine (crc.go) without reading the payload again.
// MultiLog.AppendV computes that sum itself; AppendVSum and AppendVSpec.Sum
// take one the caller already holds, so a payload logged on R replicas is
// checksummed once, not R times. The stored CRC is the number one pass over
// the record gives, so every append form writes the bytes the reference
// encoder appendRecord writes for header‖payload, and replay cannot tell
// which form wrote a record.
//
// # Stored payloads
//
// A Buffer never rewrites a byte it stored: it keeps the stream as
// segments over pooled backing, a payload starts on a 64-byte boundary of
// its own, and Truncate and Corrupt leave stored bytes alone. So an append
// hands the payload back as stored — AppendVSum's stored result,
// AppendVSpec.Stored — and the caller can keep that view as its one copy of
// the bytes instead of copying them a second time. A view stays valid until
// the backing is retired (Buffer.Reset, MultiLog.ResetAll) and then
// recycled (Recycle), which the caller does once it has let go of it. In
// between, a payload that is exactly a retired buffer of its own is
// relinked, not copied, and so is a smaller one whose retired slab the
// payloads re-stored since the Reset still cover at least half of, so a
// checkpoint re-logging its chunks from their views copies only the small
// ones of sparse slabs.
//
// # Decoding in place
//
// One decoder reads a Buffer (Decoder): it yields each record's last
// contiguous piece as Record.Data, a view of the medium with its CRC32C, and
// copies only the framing and headers in front of it. A vectored record's
// payload segment starts a segment of its own, so its Data is exactly the
// view its append returned. The record CRC is checked in one pass, Data's
// sum folded into the CRC of the rest by ChecksumCombine, so a caller
// keeping Data as its memory — crash recovery keeps chunk payloads as the
// chunks' bytes — holds what the live append left, sum included.
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
	LSN  uint64 // the order key the log drew at append time
	// Payload is the part of the payload in front of Data, copied out of
	// the medium.
	Payload []byte
	// Data is the payload's last contiguous piece as the Buffer stores it:
	// a view that stays valid under the Buffer's rules, until its backing is
	// retired and recycled. DataSum is its CRC32C. For a record appended
	// vectored with a non-empty payload segment, Data is exactly that
	// segment as stored and Payload its header.
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

// Log is one lane of a MultiLog: an append-only record stream on its own
// Buffer, each record's LSN an order key drawn from the counter all lanes
// share. The key is drawn under the lane's mutex, so the keys on the lane's
// medium are strictly increasing. Safe for concurrent appends.
type Log struct {
	mu  sync.Mutex
	buf *Buffer
	src *atomic.Uint64
	// hdrs stages the fixed 17-byte prefix+header block of each record in
	// a vectored append (recPrefixLen per record, contiguous). Persistent
	// so the blocks never escape to a per-call heap allocation.
	hdrs []byte
	// segs is the reusable segment list handed to the Buffer: framing,
	// header and payload per record. The Buffer leaves each payload's
	// stored view in its slot.
	segs [][]byte
}

// recPrefixLen is the encoded size of the per-record framing: u32 length,
// u32 crc32c, u8 type, u64 lsn.
const recPrefixLen = 17

// AppendVSum appends one record whose payload is the concatenation of
// header and payload, either of which may be nil, for a caller that holds
// sum = Checksum(payload): the record CRC folds sum in instead of reading
// the payload again, and a wrong sum writes a record replay rejects as
// ErrCorrupt. It returns the record's key, its encoded size in bytes (so
// the caller can charge the virtual disk for the persistence), and the
// payload as the Buffer stored it (nil for an empty payload), which stays
// valid until the Buffer's backing is retired and recycled (see Buffer), so
// a caller may keep it as its own copy of the bytes.
func (l *Log) AppendVSum(t RecordType, header, payload []byte, sum uint32) (lsn uint64, n int, stored []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn = l.src.Add(1)
	if cap(l.hdrs) < recPrefixLen {
		l.hdrs = make([]byte, 0, 16*recPrefixLen)
	}
	l.hdrs = l.hdrs[:recPrefixLen]
	l.stagePrefix(0, t, lsn, header, len(payload), sum)
	l.segs = append(l.segs[:0], l.hdrs[0:recPrefixLen], header, payload)
	n = l.buf.writeRecords(l.segs)
	stored = l.segs[2]
	l.clearSegs()
	return lsn, n, stored
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
// consecutive keys in a single write to the Buffer, byte for byte what
// AppendVSum would write per spec. It returns the key of the first record
// and the total encoded size, and sets each spec's Stored.
func (l *Log) AppendNV(specs []AppendVSpec) (firstLSN uint64, n int) {
	k := len(specs)
	if k == 0 {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	firstLSN = l.src.Add(uint64(k)) - uint64(k) + 1
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
	n = l.buf.writeRecords(l.segs)
	for i := range specs {
		specs[i].Stored = l.segs[3*i+2]
	}
	l.clearSegs()
	return firstLSN, n
}

// clearSegs drops the segment references once the Buffer has stored them,
// so the log pins neither the caller's payload buffers (which can be whole
// chunk-sized client slices) nor retired backing until its next append.
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

// record layout (all integers little-endian):
//
//	u32 length of (type + lsn + payload)     \  framing prefix, 8 bytes
//	u32 crc32c of that region                /
//	u8  type                                 \  record header, 9 bytes,
//	u64 lsn                                  /  covered by the crc
//	payload                                  — covered by the crc
//
// A vectored append (AppendVSum/AppendNV) contributes the payload as two
// back-to-back segments, header then data; the framing and crc treat them
// as one region, so the on-medium stream does not record — and replay
// cannot observe — which append form produced a record.
//
// The appenders never run the crc over the payload segment: they take the
// payload's own crc32c (the caller's, via AppendVSum or AppendVSpec.Sum, or
// one computed by MultiLog.AppendV) and fold it into the crc of type, lsn
// and header with ChecksumCombine, crc(A‖B) from crc(A), crc(B) and len(B).
// The stored crc is the number a single pass over the region gives.
//
// appendRecord appends the encoded record to dst without any intermediate
// buffer: the checksum is computed incrementally over the type/LSN header
// and the payload in place. It is the reference encoder the vectored paths
// are pinned against (TestAppendVMatchesAppendRecord); the Log itself
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

// Decoder walks one Buffer's records in medium order, reading the Buffer in
// place. It copies only what lies in front of each record body's last
// contiguous piece — framing and headers, tens of bytes — and yields that
// piece as the record's Data, a view of the medium. A yielded record
// belongs to the caller and stays valid as the decoder advances: a merge
// holds one head record per lane while the others advance, and crash
// recovery keeps chunk payloads as the chunks' bytes until it recycles the
// Buffer's backing. Decoder is the canonical LaneFeed (multilog.go): the
// blob store's parallel recovery wraps one per lane and batches its output,
// and the merge cannot tell the difference.
type Decoder struct {
	r *segReader
	// pieces is the reused list of views one record body spans; pre and tl
	// stage its framing and its type and LSN. They are decoder-owned, so the
	// read and checksum calls move no stack array to the heap per record.
	pieces [][]byte
	pre    [8]byte
	tl     [9]byte
}

// NewDecoder returns a decoder over the stream b holds at the call. Stored
// bytes are never rewritten, so later appends, Truncate, Corrupt and Reset
// do not disturb it; only Recycle may hand its backing to new writes.
func NewDecoder(b *Buffer) *Decoder {
	return &Decoder{r: b.reader()}
}

// Next decodes one record. done=true reports a clean stop — the end of the
// stream or a torn tail (truncated framing or body). err is ErrCorrupt on a
// checksum or framing failure; rec and frame are valid only when
// done==false and err==nil. frame is the record's full on-medium length
// (framing prefix plus body) — the datum merged recovery sums into each
// lane's repair truncation point, so a feed wrapping this decoder must pass
// it through unchanged.
//
// The type and LSN are decoded, the payload bytes in front of the body's
// last contiguous piece are copied into Payload, and the piece is Data. One
// pass over the bytes checks the record CRC: Data is summed once, and its
// sum is folded into the CRC of the rest (ChecksumCombine).
func (d *Decoder) Next() (rec Record, frame int64, done bool, err error) {
	if _, err := io.ReadFull(d.r, d.pre[:]); err != nil {
		return Record{}, 0, true, nil // torn framing: clean stop
	}
	length := binary.LittleEndian.Uint32(d.pre[0:4])
	sum := binary.LittleEndian.Uint32(d.pre[4:8])
	if length < 9 || length > 1<<30 {
		return Record{}, 0, false, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, length)
	}
	n := int(length)
	var ok bool
	d.pieces, ok = d.r.views(n, d.pieces[:0])
	if !ok {
		return Record{}, 0, true, nil // torn body: clean stop
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
		return Record{}, 0, false, ErrCorrupt
	}
	rec.Type = RecordType(tl[0])
	rec.LSN = binary.LittleEndian.Uint64(tl[1:9])
	return rec, int64(len(d.pre)) + int64(length), false, nil
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
