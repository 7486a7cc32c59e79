package blob

import (
	"encoding/binary"
	"fmt"
)

// WAL payload codecs. Every record carries enough to rebuild the server's
// state on replay:
//
//	meta  record: u16 keyLen | key | i64 size               (descriptor state)
//	chunk record: u16 keyLen | key | i64 idx | i64 within | u64 ver | data
//
// Meta and chunk payloads are distinguished by record type (RecCreate /
// RecDelete / RecTruncate / RecMeta carry meta payloads; RecWrite /
// RecPrepWrite / RecChunkDelete / RecChunkTruncate and the 2PC marker
// RecChunkCommit carry chunk payloads), so chunk addressing never
// round-trips through a combined string key. RecCommit remains the
// transaction-level marker with a meta payload; replay skips it, while
// RecChunkCommit drives the prepared-write buffer (recovery.go).
// All encoders are append-style into caller-provided buffers.
//
// A chunk record's payload is the addressing header (appendChunkHeader)
// followed by the raw chunk bytes. The hot path stages only the small
// header from a sync.Pool and hands header and data to the WAL as separate
// segments (wal.AppendV), so the data bytes are never staged — the log
// medium receives them straight from the caller's buffer.

func appendMetaPayload(dst []byte, key string, size int64) []byte {
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(key)))
	dst = append(dst, u16[:]...)
	dst = append(dst, key...)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(size))
	return append(dst, u64[:]...)
}

func decMeta(p []byte) (key string, size int64, err error) {
	if len(p) < 2 {
		return "", 0, fmt.Errorf("blob: meta record too short (%d bytes)", len(p))
	}
	kl := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) < 2+kl+8 {
		return "", 0, fmt.Errorf("blob: meta record truncated (%d bytes, key %d)", len(p), kl)
	}
	key = string(p[2 : 2+kl])
	size = int64(binary.LittleEndian.Uint64(p[2+kl:]))
	return key, size, nil
}

// appendChunkHeader encodes the addressing header of a chunk record: the
// whole payload minus the chunk data, which the vectored WAL append carries
// as its own segment. ver is the replica-comparable chunk version installed
// by the mutation (RecRepairNeeded reuses the slot for its debt mask).
func appendChunkHeader(dst []byte, id chunkID, within int64, ver uint64) []byte {
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(id.key)))
	dst = append(dst, u16[:]...)
	dst = append(dst, id.key...)
	var u64 [24]byte
	binary.LittleEndian.PutUint64(u64[0:8], uint64(id.idx))
	binary.LittleEndian.PutUint64(u64[8:16], uint64(within))
	binary.LittleEndian.PutUint64(u64[16:24], ver)
	return append(dst, u64[:]...)
}

func decChunkPayload(p []byte) (id chunkID, within int64, ver uint64, data []byte, err error) {
	if len(p) < 2 {
		return chunkID{}, 0, 0, nil, fmt.Errorf("blob: chunk record too short (%d bytes)", len(p))
	}
	kl := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) < 2+kl+24 {
		return chunkID{}, 0, 0, nil, fmt.Errorf("blob: chunk record truncated (%d bytes, key %d)", len(p), kl)
	}
	id.key = string(p[2 : 2+kl])
	id.idx = int64(binary.LittleEndian.Uint64(p[2+kl : 2+kl+8]))
	within = int64(binary.LittleEndian.Uint64(p[2+kl+8 : 2+kl+16]))
	ver = binary.LittleEndian.Uint64(p[2+kl+16 : 2+kl+24])
	data = p[2+kl+24:]
	return id, within, ver, data, nil
}

// Migration payload codec (rebalance.go, recovery.go): the intent, opened by
// RecMigrateBegin and closed by RecMigrateEnd. Chunks move under the ordinary
// chunk records above.
//
//	u64 seq | u8 op | i64 node

const (
	migOpAdd    = 0
	migOpRemove = 1
)

func appendMigrateIntent(dst []byte, seq uint64, op uint8, node int64) []byte {
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], seq)
	dst = append(dst, u64[:]...)
	dst = append(dst, op)
	binary.LittleEndian.PutUint64(u64[:], uint64(node))
	return append(dst, u64[:]...)
}

func decMigrateIntent(p []byte) (seq uint64, op uint8, node int64, err error) {
	if len(p) < 17 {
		return 0, 0, 0, fmt.Errorf("blob: migrate intent record too short (%d bytes)", len(p))
	}
	seq = binary.LittleEndian.Uint64(p[0:8])
	op = p[8]
	node = int64(binary.LittleEndian.Uint64(p[9:17]))
	return seq, op, node, nil
}
