package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestFaultMediumCleanErrorLeavesNothing(t *testing.T) {
	b := &Buffer{}
	m := NewFaultMedium(b, FaultMediumConfig{Seed: 1, ErrProb: 1})
	l := New(m)
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append(RecWrite, []byte("payload")); !errors.Is(err, ErrMediumFault) {
			t.Fatalf("append %d: got %v, want ErrMediumFault", i, err)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("clean faults left %d bytes on the medium", b.Len())
	}
	if m.Dead() {
		t.Fatal("clean faults must not kill the medium")
	}
	if m.Faults() != 3 {
		t.Fatalf("Faults() = %d, want 3", m.Faults())
	}
	recs, err := ReplayAll(b.Reader())
	if err != nil || len(recs) != 0 {
		t.Fatalf("replay after clean faults: %d records, err %v", len(recs), err)
	}
}

func TestFaultMediumTornWriteStickyDead(t *testing.T) {
	b := &Buffer{}
	m := NewFaultMedium(b, FaultMediumConfig{Seed: 7, TearProb: 1})
	l := New(m)
	payload := bytes.Repeat([]byte("x"), 200)
	if _, _, err := l.Append(RecWrite, payload); err == nil {
		t.Fatal("torn append reported success")
	}
	if !m.Dead() {
		t.Fatal("torn write must kill the medium")
	}
	if b.Len() >= recPrefixLen+len(payload) {
		t.Fatalf("tear landed the full record: %d bytes", b.Len())
	}
	// The torn record is invisible: replay of the prefix is clean and empty.
	recs, err := ReplayAll(b.Reader())
	if err != nil || len(recs) != 0 {
		t.Fatalf("torn record visible: %d records, err %v", len(recs), err)
	}
	if _, _, err := l.Append(RecWrite, payload); !errors.Is(err, ErrMediumDead) {
		t.Fatalf("write to dead medium: got %v, want ErrMediumDead", err)
	}
	// Crash recovery: trim the torn tail and revive the disk. TearProb is 1
	// here, so the next write tears again rather than landing — the
	// repair-then-carry-on path under a sane mix is runFaultSchedule's job.
	valid, err := ReplayValid(b.Reader(), func(Record) error { return nil })
	if err != nil {
		t.Fatalf("ReplayValid: %v", err)
	}
	b.Truncate(int(valid))
	m.Revive()
	if m.Dead() {
		t.Fatal("Revive left the medium dead")
	}
	if _, _, err := l.Append(RecWrite, payload); errors.Is(err, ErrMediumDead) && !m.Dead() {
		t.Fatalf("append after revive failed as dead without killing the medium: %v", err)
	}
}

func TestFaultMediumSlowWriteAccounting(t *testing.T) {
	b := &Buffer{}
	m := NewFaultMedium(b, FaultMediumConfig{Seed: 3, SlowProb: 1, SlowBy: 3 * time.Millisecond})
	l := New(m)
	for i := 0; i < 5; i++ {
		if _, _, err := l.Append(RecWrite, []byte("p")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got, want := m.Delay(), 15*time.Millisecond; got != want {
		t.Fatalf("Delay() = %v, want %v", got, want)
	}
	recs, err := ReplayAll(b.Reader())
	if err != nil || len(recs) != 5 {
		t.Fatalf("slow writes must still land: %d records, err %v", len(recs), err)
	}
}

// runFaultSchedule drives a Log over a FaultMedium through n appends with the
// given fault mix, repairing (trim + revive) after every tear the way crash
// recovery does, and checks the core durability contract: replay yields
// EXACTLY the successfully-acknowledged records, in order, with consecutive
// LSNs, and every failed append left no visible record behind.
func runFaultSchedule(t *testing.T, seed uint64, errProb, tearProb float64, n int) {
	t.Helper()
	b := &Buffer{}
	m := NewFaultMedium(b, FaultMediumConfig{Seed: seed, ErrProb: errProb, TearProb: tearProb})
	l := New(m)
	var acked [][]byte
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("op-%d-%d", seed, i))
		if _, _, err := l.Append(RecWrite, payload); err == nil {
			acked = append(acked, payload)
		} else if m.Dead() {
			valid, verr := ReplayValid(b.Reader(), func(Record) error { return nil })
			if verr != nil {
				t.Fatalf("seed %d op %d: ReplayValid after tear: %v", seed, i, verr)
			}
			b.Truncate(int(valid))
			m.Revive()
		}
	}
	recs, err := ReplayAll(b.Reader())
	if err != nil {
		t.Fatalf("seed %d: replay: %v", seed, err)
	}
	if len(recs) != len(acked) {
		t.Fatalf("seed %d: replay yields %d records, %d were acknowledged", seed, len(recs), len(acked))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Bytes(), acked[i]) {
			t.Fatalf("seed %d: record %d payload %q, want %q", seed, i, rec.Bytes(), acked[i])
		}
		if rec.LSN != uint64(i+1) {
			t.Fatalf("seed %d: record %d has LSN %d, want %d (failed appends must not burn LSNs)",
				seed, i, rec.LSN, i+1)
		}
	}
}

func TestFaultScheduleMixed(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		runFaultSchedule(t, seed, 0.2, 0.1, 60)
	}
}

// FuzzFaultSchedule lets the fuzzer hunt for a fault interleaving under which
// an acknowledged record is lost or a failed one becomes visible.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), byte(0), byte(0), byte(20))
	f.Add(uint64(2), byte(60), byte(0), byte(40))
	f.Add(uint64(3), byte(0), byte(60), byte(40))
	f.Add(uint64(4), byte(120), byte(40), byte(80))
	f.Fuzz(func(t *testing.T, seed uint64, errP, tearP, ops byte) {
		// Cap probabilities at ~70% so schedules keep making progress.
		runFaultSchedule(t, seed, float64(errP)/365, float64(tearP)/365, int(ops)%120+1)
	})
}
