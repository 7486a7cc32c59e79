package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzReplay is the log-format crash battery: a record sequence derived
// deterministically from the fuzz input is appended to a one-lane log
// through a random mix of the encode paths (AppendV with the payload whole
// or split, AppendNV), the medium is then torn (truncated at an arbitrary
// offset) and optionally hit by a single-byte flip, and replay must hold
// the recovery contract:
//
//   - it never panics;
//   - it returns nil (clean stop at the end or at a torn tail) or
//     ErrCorrupt — never any other failure;
//   - every record it yields is exactly a prefix of the appended sequence
//     (type, LSN, and payload bit-for-bit): corruption can cut replay
//     short, but can never invent, reorder, or mutate a record.
//
// The seed corpus covers empty payloads, max-length records, and
// multi-record batches.
func FuzzReplay(f *testing.F) {
	// Spec grammar (see buildLog): each record consumes 4 spec bytes —
	// type selector, encode-path selector, payload length, header split.
	f.Add([]byte{}, uint16(0), false, uint16(0))                                          // empty log
	f.Add([]byte{0, 0, 0, 0}, uint16(0), false, uint16(0))                                // one empty-payload record, truncated to nothing
	f.Add([]byte{2, 0, 255, 3}, uint16(0xffff), false, uint16(0))                         // max-length record, untouched
	f.Add([]byte{2, 1, 255, 255}, uint16(0xffff), true, uint16(20))                       // max-length vectored record, flipped in the payload
	f.Add([]byte{1, 2, 7, 2, 3, 2, 9, 0, 5, 2, 40, 40}, uint16(0xffff), false, uint16(0)) // multi-record batch
	f.Add([]byte{1, 2, 7, 2, 3, 2, 9, 0}, uint16(30), false, uint16(0))                   // batch with a torn tail
	f.Add([]byte{4, 1, 16, 8, 6, 0, 0, 0}, uint16(0xffff), true, uint16(3))               // flip inside the length prefix

	f.Fuzz(func(t *testing.T, spec []byte, cut uint16, flip bool, flipOff uint16) {
		m := NewMultiLog(1)
		b := m.LaneBuffer(0)
		appended := buildLog(t, m, spec)
		full := b.Len()

		// Tear the medium at an arbitrary offset (cut > len is a no-op:
		// the "crash happened after the last append hit the disk" case).
		b.Truncate(int(cut) % (full + 1))
		if flip && b.Len() > 0 {
			if err := b.Corrupt(int(flipOff) % b.Len()); err != nil {
				t.Fatalf("corrupt: %v", err)
			}
		}

		var got []Record
		err := m.ReplayMerged(func(rec Record) error {
			p := append([]byte(nil), rec.Bytes()...)
			got = append(got, Record{Type: rec.Type, LSN: rec.LSN, Payload: p})
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("replay returned a non-corruption error: %v", err)
		}
		// The valid prefix is exactly the framing of the yielded records:
		// after a clean stop, crash repair cuts the medium there, and a
		// medium cut there must replay to the identical sequence with a
		// clean stop.
		var valid int64
		for _, rec := range got {
			valid += recPrefixLen + int64(len(rec.Payload))
		}
		if err == nil {
			if err := m.RecoverMerged(func(Record) error { return nil }); err != nil {
				t.Fatalf("recover after a clean replay: %v", err)
			}
			if int64(b.Len()) != valid {
				t.Fatalf("repair cut the medium at %d bytes, yielded records span %d", b.Len(), valid)
			}
		} else {
			b.Truncate(int(valid))
		}
		again := 0
		if err := m.ReplayMerged(func(rec Record) error { again++; return nil }); err != nil {
			t.Fatalf("replay after truncating to the valid prefix failed: %v", err)
		}
		if again != len(got) {
			t.Fatalf("repaired medium replayed %d records, want %d", again, len(got))
		}
		if len(got) > len(appended) {
			t.Fatalf("replay yielded %d records, only %d were appended", len(got), len(appended))
		}
		for i, rec := range got {
			want := appended[i]
			if rec.Type != want.Type || rec.LSN != want.LSN || !bytes.Equal(rec.Payload, want.Payload) {
				t.Fatalf("record %d diverges: got {%v %d %x}, appended {%v %d %x}",
					i, rec.Type, rec.LSN, rec.Payload, want.Type, want.LSN, want.Payload)
			}
		}
		// A clean replay of an untouched medium must yield everything.
		if err == nil && int(cut)%(full+1) >= full && !flip && len(got) != len(appended) {
			t.Fatalf("untouched log replayed %d of %d records", len(got), len(appended))
		}
	})
}

// buildLog appends records derived from spec to m's lane 0 and returns what
// was appended. Each record consumes 4 spec bytes: (type, path, length,
// split). The path byte routes through AppendV with the payload whole,
// AppendV with the payload split at `split`, or a pending AppendNV batch
// flushed when the selector says so — so the fuzzer also explores every
// encode path's framing, not just replay.
func buildLog(t *testing.T, m *MultiLog, spec []byte) []Record {
	t.Helper()
	var appended []Record
	var batch []AppendVSpec
	flush := func() {
		if len(batch) == 0 {
			return
		}
		m.AppendNV(0, batch)
		batch = nil
	}
	lsn := uint64(1)
	for i := 0; i+4 <= len(spec); i += 4 {
		rt := RecordType(spec[i]%12 + 1)
		path := spec[i+1] % 4
		plen := int(spec[i+2])
		if plen > 200 {
			plen = 1 << 10 // "max-length" bucket: a full-sized record
		}
		payload := make([]byte, plen)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		split := 0
		if plen > 0 {
			split = int(spec[i+3]) % (plen + 1)
		}
		switch path {
		case 0:
			flush()
			if _, _, err := m.AppendV(0, rt, payload, nil); err != nil {
				t.Fatalf("append: %v", err)
			}
		case 1:
			flush()
			if _, _, err := m.AppendV(0, rt, payload[:split], payload[split:]); err != nil {
				t.Fatalf("appendv: %v", err)
			}
		default:
			batch = append(batch, AppendVSpec{Type: rt, Header: payload[:split], Payload: payload[split:]})
			if path == 3 {
				flush()
			}
		}
		appended = append(appended, Record{Type: rt, LSN: lsn, Payload: payload})
		lsn++
	}
	flush()
	return appended
}

// FuzzReplayRaw feeds the decoder arbitrary bytes — no encoder in the loop
// — so its framing checks (implausible lengths, torn prefixes, CRC windows)
// face inputs no writer would produce. The contract is totality — nil or
// ErrCorrupt, never a panic or another error class — and agreement with
// refReplay, the copying reference decoder over the contiguous bytes.
func FuzzReplayRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0})
	// A syntactically valid single record, to give mutation a foothold.
	m := NewMultiLog(1)
	m.AppendV(0, RecWrite, []byte("seed-payload"), nil)
	m.AppendV(0, RecCommit, nil, nil)
	f.Add(readerRaw(m.LaneBuffer(0)))
	// An implausible length prefix.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, raw []byte) {
		var plain []Record
		err := refReplay(raw, func(rec Record) error {
			if len(rec.Payload) > len(raw) {
				t.Fatalf("record payload %d bytes exceeds the %d-byte input", len(rec.Payload), len(raw))
			}
			plain = append(plain, rec)
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("replay returned a non-corruption error: %v", err)
		}
		// The same bytes in 64-byte slabs decode through the Buffer's
		// views, bodies spanning many segments, to the same records.
		b := &Buffer{SlabSize: 64}
		b.Write(raw)
		recs, verr := decodeAll(b)
		for n, rec := range recs {
			if n >= len(plain) || rec.Type != plain[n].Type || rec.LSN != plain[n].LSN || !bytes.Equal(rec.Bytes(), plain[n].Payload) {
				t.Fatalf("record %d decodes differently from a Buffer than from the reference", n)
			}
		}
		if len(recs) != len(plain) || (verr == nil) != (err == nil) || errors.Is(verr, ErrCorrupt) != errors.Is(err, ErrCorrupt) {
			t.Fatalf("a Buffer replays %d records (%v), the reference %d (%v)", len(recs), verr, len(plain), err)
		}
	})
}

// replayBodyStep bounds each incremental body-read allocation of refReplay,
// so an untrusted length prefix cannot trigger a giant eager allocation for
// bytes the input does not hold.
const replayBodyStep = 1 << 20

// refReplay is the reference decoder FuzzReplayRaw checks Decoder against:
// it reads raw as one contiguous stream, copies each record body into a
// fresh allocation, the whole payload in Payload, and invokes fn per record.
// It stops cleanly at the end or at a torn tail, and returns ErrCorrupt at
// the first checksum or framing failure.
func refReplay(raw []byte, fn func(Record) error) error {
	r := bytes.NewReader(raw)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // torn header: clean stop
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length < 9 || length > 1<<30 {
			return fmt.Errorf("%w: implausible record length %d", ErrCorrupt, length)
		}
		rec, done, err := refRead(r, int(length), sum)
		if done || err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// refRead decodes a body of n bytes from r into a fresh allocation.
func refRead(r io.Reader, n int, sum uint32) (rec Record, done bool, err error) {
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
		if _, err := io.ReadFull(r, body[off:]); err != nil {
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

func readerRaw(b *Buffer) []byte {
	var out bytes.Buffer
	out.ReadFrom(b.Reader())
	return out.Bytes()
}

// FuzzReplayMerged is the multi-lane crash battery: a record sequence is
// appended across a MultiLog's lanes (lane, type, encode path, and payload
// length all derived from the fuzz input, so the logical order and the
// per-lane interleaving are both fuzzer-controlled), two lanes are then
// torn at arbitrary offsets and one byte optionally flipped, and
// ReplayMerged must hold the merged recovery contract:
//
//   - it never panics, and fails only with ErrCorrupt;
//   - it yields EXACTLY an order-key prefix of the appended sequence —
//     keys consecutive from 1, each record bit-for-bit what was appended
//     with that key. A record can be cut off by a tear on its own lane OR
//     by a gap on another lane, but can never be reordered, mutated, or
//     resurrected past a gap;
//   - after a clean merge, RecoverMerged repairs the media so the same
//     prefix replays again cleanly, and a post-recovery append lands at
//     the next key and replays with the prefix;
//   - every payload view the log handed back for a live record still holds
//     that record's bytes, through checkpoints, tears, flips and appends;
//   - a checkpoint relinks exactly the payloads the relink rule names
//     (checkpointMultiLog);
//   - every Data view a replay yielded is capped at its length and keeps its
//     bytes through later tears, flips, appends and ResetAll, until Recycle.
func FuzzReplayMerged(f *testing.F) {
	// Spec grammar (see buildMultiLog): each record consumes 4 spec bytes —
	// lane selector, type, encode-path selector, payload length; a lane
	// byte of 255 is a checkpoint (checkpointMultiLog: ResetAll, each lane's
	// live records re-logged from their stored views in one AppendNV, every
	// lane recycled).
	f.Add([]byte{}, uint16(0), uint16(0), false, uint16(0))                                                         // empty log
	f.Add([]byte{0, 1, 0, 8, 1, 2, 1, 8, 2, 3, 2, 8, 3, 4, 3, 8}, uint16(0xffff), uint16(0xffff), false, uint16(0)) // all lanes, untouched
	f.Add([]byte{0, 1, 0, 200, 0, 2, 0, 200}, uint16(30), uint16(0xffff), false, uint16(0))                         // one lane torn mid-record
	f.Add([]byte{1, 1, 2, 9, 2, 2, 2, 9, 1, 3, 3, 9}, uint16(0xffff), uint16(12), true, uint16(40))                 // batch + tear + flip
	// Checkpoint-then-append: history, a reset, a fresh history, torn tail.
	f.Add([]byte{0, 1, 0, 8, 1, 2, 1, 8, 255, 0, 0, 0, 2, 3, 0, 8, 3, 4, 1, 8}, uint16(20), uint16(0xffff), false, uint16(0))
	// Checkpoint between appends on the SAME lane plus a flip after it.
	f.Add([]byte{1, 1, 0, 50, 255, 0, 0, 0, 1, 2, 0, 50}, uint16(0xffff), uint16(0xffff), true, uint16(9))
	// Mid-batch tears: multi-record AppendNV batches (one medium
	// write each) cut so the tear lands between and inside batch records.
	f.Add([]byte{1, 1, 2, 210, 1, 4, 2, 210}, uint16(40), uint16(0xffff), false, uint16(0))
	f.Add([]byte{2, 5, 2, 100, 2, 6, 2, 100, 2, 7, 2, 100}, uint16(90), uint16(300), false, uint16(0))
	f.Fuzz(func(t *testing.T, spec []byte, cutA, cutB uint16, flip bool, flipAt uint16) {
		const lanes = 4
		m := NewMultiLog(lanes)
		for lane := range lanes {
			m.LaneBuffer(lane).SlabSize = 1 << 10
		}
		appended := buildMultiLog(t, m, spec)
		checkKept := func(when string) {
			t.Helper()
			for i, r := range appended {
				if !bytes.Equal(r.stored, r.Payload[r.split:]) {
					t.Fatalf("%s: record %d's stored view no longer holds its payload", when, i)
				}
			}
		}

		// Tear two lanes at arbitrary offsets (a cut past the end is the
		// "crash after the last append persisted" no-op case).
		for i, cut := range []uint16{cutA, cutB} {
			lb := m.LaneBuffer((int(cut) + i) % lanes)
			lb.Truncate(int(cut/lanes) % (lb.Len() + 1))
		}
		if flip {
			lb := m.LaneBuffer(int(flipAt) % lanes)
			if lb.Len() > 0 {
				if err := lb.Corrupt(int(flipAt/lanes) % lb.Len()); err != nil {
					t.Fatalf("corrupt: %v", err)
				}
			}
		}
		checkKept("after tears and flips")

		var got []Record
		type view struct{ data, was []byte }
		var views []view
		collect := func(rec Record) error {
			p := append([]byte(nil), rec.Bytes()...)
			got = append(got, Record{Type: rec.Type, LSN: rec.LSN, Payload: p})
			if cap(rec.Data) != len(rec.Data) {
				t.Fatalf("record %d's Data view reaches %d bytes past its end", rec.LSN, cap(rec.Data)-len(rec.Data))
			}
			if len(rec.Data) > 0 {
				views = append(views, view{rec.Data, bytes.Clone(rec.Data)})
			}
			return nil
		}
		// Damage after the replays: a tear, a flip, a reset and appends
		// after it must leave every view the replays yielded as it was.
		defer func() {
			lb := m.LaneBuffer(int(flipAt) % lanes)
			lb.Truncate(lb.Len() / 2)
			if lb.Len() > 0 {
				if err := lb.Corrupt(int(flipAt) % lb.Len()); err != nil {
					t.Fatalf("corrupt: %v", err)
				}
			}
			m.ResetAll()
			for lane := range lanes {
				if _, _, err := m.AppendV(lane, RecWrite, []byte("late"), make([]byte, 600)); err != nil {
					t.Fatalf("late append: %v", err)
				}
			}
			for i, v := range views {
				if !bytes.Equal(v.data, v.was) {
					t.Fatalf("view %d yielded by a replay changed before Recycle", i)
				}
			}
		}()
		err := m.ReplayMerged(collect)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("merged replay returned a non-corruption error: %v", err)
		}
		if len(got) > len(appended) {
			t.Fatalf("merged replay yielded %d records, only %d were appended", len(got), len(appended))
		}
		for i, rec := range got {
			want := appended[i]
			if rec.LSN != uint64(i+1) {
				t.Fatalf("merged record %d has key %d: not an exact order-key prefix", i, rec.LSN)
			}
			if rec.Type != want.Type || !bytes.Equal(rec.Payload, want.Payload) {
				t.Fatalf("merged record %d diverges: got {%v %x}, appended {%v %x}",
					i, rec.Type, rec.Payload, want.Type, want.Payload)
			}
		}
		if err != nil {
			return // corrupt media: no repair, nothing more to check
		}

		// Crash repair: the repaired media must replay the identical prefix
		// cleanly, and a post-recovery append must extend it.
		prefix := len(got)
		got = got[:0]
		if err := m.RecoverMerged(collect); err != nil {
			t.Fatalf("recover after clean merge failed: %v", err)
		}
		if len(got) != prefix {
			t.Fatalf("recovery replayed %d records, merge yielded %d", len(got), prefix)
		}
		key, _, err := m.AppendV(int(cutA)%lanes, RecMeta, nil, []byte("post-recovery"))
		if err != nil {
			t.Fatalf("post-recovery append: %v", err)
		}
		if key != uint64(prefix+1) {
			t.Fatalf("post-recovery append got key %d, want %d", key, prefix+1)
		}
		got = got[:0]
		if err := m.ReplayMerged(collect); err != nil {
			t.Fatalf("replay after post-recovery append: %v", err)
		}
		if len(got) != prefix+1 || string(got[prefix].Payload) != "post-recovery" {
			t.Fatalf("post-recovery append did not survive replay: %d records", len(got))
		}
		checkKept("after recovery and an append")
	})
}

// mlRecord is a record buildMultiLog appended: what replay must yield, the
// lane it went to, the length of its header segment, and the payload
// segment as the lane stored it.
type mlRecord struct {
	Record
	lane   int
	split  int
	stored []byte
}

// buildMultiLog appends records derived from spec across the lanes and
// returns them in logical (order-key) order. Each record consumes 4 spec
// bytes: (lane, type, path, length); the path byte routes through
// AppendVSum, a single-spec AppendNV, or a two-record AppendNV batch that
// also consumes the next record's spec for the same lane. A length above 200
// makes a 1 KiB record whose payload segment gets a buffer of its own under
// 1 KiB slabs. A lane byte of 255 is a checkpoint instead of a record, as
// the blob store takes one (checkpointMultiLog). The expected sequence
// restarts with the re-logged records, so replay must see only the snapshot
// and what follows it.
func buildMultiLog(t *testing.T, m *MultiLog, spec []byte) []mlRecord {
	t.Helper()
	var appended []mlRecord
	mk := func(i, plen int) []byte {
		if plen > 200 {
			plen = 1 << 10
		}
		p := make([]byte, plen)
		for j := range p {
			p[j] = byte(i + 3*j)
		}
		return p
	}
	for i := 0; i+4 <= len(spec); i += 4 {
		if spec[i] == 0xff {
			appended = checkpointMultiLog(t, m, appended)
			continue
		}
		lane := int(spec[i]) % m.Lanes()
		rt := RecordType(spec[i+1]%12 + 1)
		path := spec[i+2] % 3
		payload := mk(i, int(spec[i+3]))
		split := len(payload) / 2
		switch path {
		case 0:
			_, _, stored := m.AppendVSum(lane, rt, payload[:split], payload[split:], Checksum(payload[split:]))
			appended = append(appended, mlRecord{Record{Type: rt, Payload: payload}, lane, split, stored})
		case 1:
			specs := []AppendVSpec{{Type: rt, Header: payload[:split], Payload: payload[split:]}}
			m.AppendNV(lane, specs)
			appended = append(appended, mlRecord{Record{Type: rt, Payload: payload}, lane, split, specs[0].Stored})
		default:
			// Two-record atomic batch; the second record reuses this spec
			// quad with a different fill so batches cross record shapes.
			second := mk(i+1, int(spec[i+3])/2)
			specs := []AppendVSpec{
				{Type: rt, Header: payload[:split], Payload: payload[split:]},
				{Type: RecordType(spec[i+3]%12 + 1), Payload: second},
			}
			m.AppendNV(lane, specs)
			appended = append(appended,
				mlRecord{Record{Type: rt, Payload: payload}, lane, split, specs[0].Stored},
				mlRecord{Record{Type: specs[1].Type, Payload: second}, lane, 0, specs[1].Stored})
		}
	}
	for i := range appended {
		appended[i].LSN = uint64(i + 1)
	}
	return appended
}

// checkpointMultiLog checkpoints m as the blob store does: ResetAll drops
// every lane and restarts the order keys at 1, each lane's live records are
// re-appended from their stored views in one AppendNV, lane by lane, so each
// lane takes one range of keys, and every lane is recycled. It returns the
// records in their new key order. Each payload must follow the relink rule:
// one of at least half a slab that is exactly a retired buffer comes back at
// its address; a smaller one does when the batch's payloads inside the
// retired slab holding it cover at least half of that slab, and is copied
// otherwise.
func checkpointMultiLog(t *testing.T, m *MultiLog, appended []mlRecord) []mlRecord {
	t.Helper()
	m.ResetAll()
	var out []mlRecord
	for lane := range m.Lanes() {
		b := m.LaneBuffer(lane)
		var recs []mlRecord
		for _, r := range appended {
			if r.lane == lane {
				recs = append(recs, r)
			}
		}
		// holder is the retired buffer a view lies in, -1 for none (a small
		// view lies in a slab); restored sums the batch's payload bytes
		// inside each.
		holder := func(v []byte) int {
			for i, buf := range b.retired {
				if len(v) > 0 && addr(v) >= addr(buf) && addr(v)+uintptr(len(v)) <= addr(buf)+uintptr(len(buf)) {
					return i
				}
			}
			return -1
		}
		restored := make([]int, len(b.retired))
		specs := make([]AppendVSpec, len(recs))
		for j, r := range recs {
			specs[j] = AppendVSpec{Type: r.Type, Header: r.Payload[:r.split], Payload: r.stored, Sum: Checksum(r.stored)}
			if h := holder(r.stored); h >= 0 && 2*len(r.stored) < b.SlabSize {
				restored[h] += len(r.stored)
			}
		}
		relinked := make([]bool, len(recs))
		for j, r := range recs {
			h := holder(r.stored)
			switch {
			case h < 0:
			case 2*len(r.stored) >= b.SlabSize:
				relinked[j] = true // a buffer of its own the reset retired
			default:
				relinked[j] = 2*restored[h] >= len(b.retired[h])
			}
		}
		m.AppendNV(lane, specs)
		for j := range recs {
			got := specs[j].Stored
			if len(got) > 0 && (addr(got) == addr(recs[j].stored)) != relinked[j] {
				t.Fatalf("checkpoint of lane %d: record %d's %d-byte payload relinked %v, the rule says %v",
					lane, j, len(got), !relinked[j], relinked[j])
			}
			recs[j].stored = got
		}
		out = append(out, recs...)
	}
	for lane := range m.Lanes() {
		m.Recycle(lane)
	}
	return out
}
