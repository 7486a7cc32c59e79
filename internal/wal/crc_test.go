package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
)

// onePass is the reference: one CRC32C pass over a‖b, straight from hash/crc32.
func onePass(a, b []byte) uint32 {
	return crc32.Update(crc32.Checksum(a, castagnoli), castagnoli, b)
}

// TestChecksumCombineMatchesOnePass pins ChecksumCombine against one pass over
// the concatenation: every split point of every short input, then second
// halves whose lengths make every byte of the length non-zero in turn, so
// each row of the combine table is used.
func TestChecksumCombineMatchesOnePass(t *testing.T) {
	short := make([]byte, 48)
	for i := range short {
		short[i] = byte(i*37 + 11)
	}
	for n := 0; n <= len(short); n++ {
		p := short[:n]
		for k := 0; k <= n; k++ {
			if got, want := ChecksumCombine(Checksum(p[:k]), Checksum(p[k:]), n-k), onePass(p[:k], p[k:]); got != want {
				t.Fatalf("len %d split %d: combine %08x, one pass %08x", n, k, got, want)
			}
		}
	}
	const head = 5
	long := make([]byte, head+0x01020304)
	for i := range long {
		long[i] = byte(i ^ i>>11)
	}
	for _, lenB := range []int{1, 0xff, 0x100, 0x1ff, 0xffff, 0x10203, 0xff0000, 0x01020304} {
		a, b := long[:head], long[head:head+lenB]
		if got, want := ChecksumCombine(Checksum(a), Checksum(b), lenB), onePass(a, b); got != want {
			t.Fatalf("second half of %#x bytes: combine %08x, one pass %08x", lenB, got, want)
		}
	}
}

// FuzzChecksumCombine: for any two byte strings, combining their checksums
// gives the checksum of their concatenation.
func FuzzChecksumCombine(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte("type+lsn+header"), []byte("payload"))
	f.Add([]byte{0xff}, bytes.Repeat([]byte{0}, 1000))
	f.Add([]byte{}, bytes.Repeat([]byte{0xa5}, 65535))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if got, want := ChecksumCombine(Checksum(a), Checksum(b), len(b)), onePass(a, b); got != want {
			t.Fatalf("%d+%d bytes: combine %08x, one pass %08x", len(a), len(b), got, want)
		}
	})
}

// TestWrongSumIsCorrupt: a caller sum that is not the payload's frames a
// record replay rejects with ErrCorrupt, through either sum-carrying form,
// and the records before it still replay.
func TestWrongSumIsCorrupt(t *testing.T) {
	payload := []byte("chunk bytes")
	good := Checksum(payload)
	for _, form := range []struct {
		name      string
		appendBad func(m *MultiLog)
	}{
		{"AppendVSum", func(m *MultiLog) { m.AppendVSum(0, RecWrite, []byte("hdr"), payload, good^1) }},
		{"AppendNV", func(m *MultiLog) {
			m.AppendNV(0, []AppendVSpec{{Type: RecWrite, Header: []byte("hdr"), Payload: payload, Sum: good ^ 1}})
		}},
	} {
		m := NewMultiLog(1)
		m.AppendVSum(0, RecWrite, []byte("hdr"), payload, good)
		form.appendBad(m)
		seen := 0
		if err := m.ReplayMerged(func(Record) error { seen++; return nil }); !errors.Is(err, ErrCorrupt) || seen != 1 {
			t.Errorf("%s with a wrong sum: replayed %d records, err %v; want 1 and ErrCorrupt", form.name, seen, err)
		}
	}
}

// BenchmarkChecksumCombine is a -cpuprofile entry point for the fold every
// append pays: a 64 KiB chunk payload (one table row) and a 1000-byte one
// (two rows).
func BenchmarkChecksumCombine(b *testing.B) {
	for _, n := range []int{1000, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				combineSink = ChecksumCombine(combineSink, uint32(i), n)
			}
		})
	}
}

var combineSink uint32
