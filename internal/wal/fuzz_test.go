package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReplay is the log-format crash battery: a record sequence derived
// deterministically from the fuzz input is appended through a random mix of
// the encode paths (Append, AppendV, AppendNV), the medium is then torn
// (truncated at an arbitrary offset) and optionally hit by a single-byte
// flip, and Replay must hold the recovery contract:
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
		var b Buffer
		appended := buildLog(t, New(&b), spec)
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
		valid, err := ReplayValid(b.Reader(), func(rec Record) error {
			p := append([]byte(nil), rec.Payload...)
			got = append(got, Record{Type: rec.Type, LSN: rec.LSN, Payload: p})
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("replay returned a non-corruption error: %v", err)
		}
		// The valid prefix is exactly the framing of the yielded records,
		// and truncating the medium to it (crash repair) must replay to the
		// identical sequence with a clean stop.
		var wantValid int64
		for _, rec := range got {
			wantValid += recPrefixLen + int64(len(rec.Payload))
		}
		if valid != wantValid {
			t.Fatalf("valid prefix %d bytes, yielded records span %d", valid, wantValid)
		}
		b.Truncate(int(valid))
		again := 0
		if _, err := ReplayValid(b.Reader(), func(rec Record) error { again++; return nil }); err != nil {
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

// buildLog appends records derived from spec and returns what was appended.
// Each record consumes 4 spec bytes: (type, path, length, split). The path
// byte routes through Append, AppendV (payload split at `split`), or a
// pending AppendNV batch flushed when the selector says so — so the fuzzer
// also explores every encode path's framing, not just Replay.
func buildLog(t *testing.T, l *Log, spec []byte) []Record {
	t.Helper()
	var appended []Record
	var batch []AppendVSpec
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, _, err := l.AppendNV(batch); err != nil {
			t.Fatalf("append batch: %v", err)
		}
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
			if _, _, err := l.Append(rt, payload); err != nil {
				t.Fatalf("append: %v", err)
			}
		case 1:
			flush()
			if _, _, err := l.AppendV(rt, payload[:split], payload[split:]); err != nil {
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

// FuzzReplayRaw feeds Replay arbitrary bytes — no encoder in the loop — so
// the decoder's framing checks (implausible lengths, torn prefixes, CRC
// windows) face inputs no writer would produce. The only contract here is
// totality: nil or ErrCorrupt, never a panic or another error class.
func FuzzReplayRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0})
	// A syntactically valid single record, to give mutation a foothold.
	var b Buffer
	l := New(&b)
	l.Append(RecWrite, []byte("seed-payload"))
	l.Append(RecCommit, nil)
	f.Add(readerRaw(&b))
	// An implausible length prefix.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, raw []byte) {
		err := Replay(bytes.NewReader(raw), func(rec Record) error {
			if len(rec.Payload) > len(raw) {
				t.Fatalf("record payload %d bytes exceeds the %d-byte input", len(rec.Payload), len(raw))
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("replay returned a non-corruption error: %v", err)
		}
	})
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
//     the next key and replays with the prefix.
func FuzzReplayMerged(f *testing.F) {
	// Spec grammar (see buildMultiLog): each record consumes 4 spec bytes —
	// lane selector, type, encode-path selector, payload length; a lane
	// byte of 255 is a checkpoint (ResetAll: lanes dropped, keys restarted).
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
		appended := buildMultiLog(t, m, spec)

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

		var got []Record
		collect := func(rec Record) error {
			p := append([]byte(nil), rec.Payload...)
			got = append(got, Record{Type: rec.Type, LSN: rec.LSN, Payload: p})
			return nil
		}
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
	})
}

// buildMultiLog appends records derived from spec across the lanes and
// returns them in logical (order-key) order. Each record consumes 4 spec
// bytes: (lane, type, path, length); the path byte routes through AppendV,
// a single-spec AppendNV, or a two-record AppendNV batch that also
// consumes the next record's spec for the same lane. A lane byte of 255 is
// a checkpoint instead of a record: ResetAll drops every lane and restarts
// the order keys at 1, and the expected sequence restarts with them — the
// checkpoint-then-append shape whose replay must see ONLY the fresh
// history.
func buildMultiLog(t *testing.T, m *MultiLog, spec []byte) []Record {
	t.Helper()
	var appended []Record
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
			m.ResetAll()
			appended = appended[:0]
			continue
		}
		lane := int(spec[i]) % m.Lanes()
		rt := RecordType(spec[i+1]%12 + 1)
		path := spec[i+2] % 3
		payload := mk(i, int(spec[i+3]))
		split := len(payload) / 2
		switch path {
		case 0:
			if _, _, err := m.AppendV(lane, rt, payload[:split], payload[split:]); err != nil {
				t.Fatalf("appendv: %v", err)
			}
			appended = append(appended, Record{Type: rt, Payload: payload})
		case 1:
			if _, _, err := m.AppendNV(lane, []AppendVSpec{{Type: rt, Header: payload[:split], Payload: payload[split:]}}); err != nil {
				t.Fatalf("appendnv: %v", err)
			}
			appended = append(appended, Record{Type: rt, Payload: payload})
		default:
			// Two-record atomic batch; the second record reuses this spec
			// quad with a different fill so batches cross record shapes.
			second := mk(i+1, int(spec[i+3])/2)
			specs := []AppendVSpec{
				{Type: rt, Header: payload[:split], Payload: payload[split:]},
				{Type: RecordType(spec[i+3]%12 + 1), Payload: second},
			}
			if _, _, err := m.AppendNV(lane, specs); err != nil {
				t.Fatalf("appendnv batch: %v", err)
			}
			appended = append(appended,
				Record{Type: rt, Payload: payload},
				Record{Type: specs[1].Type, Payload: second})
		}
	}
	for i := range appended {
		appended[i].LSN = uint64(i + 1)
	}
	return appended
}
