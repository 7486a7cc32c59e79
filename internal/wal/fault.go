package wal

import (
	"errors"
	"sync"
	"time"

	"repro/internal/sim"
)

// FaultMedium wraps a log medium with seeded, deterministic write-fault
// injection: clean errors (nothing lands), torn writes (a random strict
// prefix lands, then the medium goes sticky-dead like a yanked disk), and
// slow writes (virtual-time delay accumulated for the caller to charge).
// It implements RecordWriter, so a Log built on it exercises the vectored
// append path exactly as a Buffer does.
//
// Intended for WAL-layer tests: the blob store's append path treats medium
// errors as fatal (it panics — see Log.src's key-burning note), so storage
// chaos tests inject faults at the cluster layer instead and simulate media
// loss with Buffer.Truncate/Corrupt before recovery.

// ErrMediumDead is returned by every write after a torn write killed the
// medium, until Revive.
var ErrMediumDead = errors.New("wal: medium dead")

// ErrMediumFault is the injected clean write failure: the medium stays
// usable and the write left no bytes behind.
var ErrMediumFault = errors.New("wal: injected medium fault")

// FaultMediumConfig tunes a FaultMedium. Probabilities are evaluated per
// write in the order slow, error, tear; zero values disable that fault.
type FaultMediumConfig struct {
	Seed     uint64
	ErrProb  float64       // clean failure: error returned, nothing written
	TearProb float64       // torn write: strict prefix lands, then sticky-dead
	SlowProb float64       // slow write: SlowBy added to Delay(), write proceeds
	SlowBy   time.Duration // virtual latency per slow write
}

// FaultMedium is a fault-injecting RecordWriter. Safe for concurrent use;
// given one goroutine (a lane's writes are serialized by its log's mutex) the
// fault sequence is a pure function of the seed and the write sequence.
type FaultMedium struct {
	mu     sync.Mutex
	dst    RecordWriter
	rng    *sim.RNG
	cfg    FaultMediumConfig
	dead   bool
	delay  time.Duration
	faults int
}

// NewFaultMedium wraps dst with injection driven by cfg.
func NewFaultMedium(dst RecordWriter, cfg FaultMediumConfig) *FaultMedium {
	return &FaultMedium{dst: dst, rng: sim.NewRNG(cfg.Seed), cfg: cfg}
}

// Write implements io.Writer.
func (m *FaultMedium) Write(p []byte) (int, error) {
	return m.WriteV([][]byte{p})
}

// WriteV implements RecordWriter. A torn write lands a strict prefix of the
// concatenated segments (possibly none of them) and kills the medium: the
// next replay sees exactly what a power cut mid-write leaves behind.
func (m *FaultMedium) WriteV(segs [][]byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return 0, ErrMediumDead
	}
	if m.cfg.SlowProb > 0 && m.rng.Float64() < m.cfg.SlowProb {
		m.delay += m.cfg.SlowBy
	}
	if m.cfg.ErrProb > 0 && m.rng.Float64() < m.cfg.ErrProb {
		m.faults++
		return 0, ErrMediumFault
	}
	if m.cfg.TearProb > 0 && m.rng.Float64() < m.cfg.TearProb {
		m.faults++
		m.dead = true
		total := 0
		for _, s := range segs {
			total += len(s)
		}
		keep := 0
		if total > 0 {
			keep = m.rng.Intn(total) // strictly shorter than the full write
		}
		written := 0
		for _, s := range segs {
			take := len(s)
			if written+take > keep {
				take = keep - written
			}
			if take > 0 {
				n, err := m.dst.Write(s[:take])
				written += n
				if err != nil {
					return written, err
				}
			}
			if written >= keep {
				break
			}
		}
		return written, ErrMediumDead
	}
	return m.dst.WriteV(segs)
}

// Revive resurrects a torn-dead medium, modeling the disk coming back after
// the crash recovery that repaired it.
func (m *FaultMedium) Revive() {
	m.mu.Lock()
	m.dead = false
	m.mu.Unlock()
}

// Dead reports whether a torn write killed the medium.
func (m *FaultMedium) Dead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// Faults reports how many injected failures (clean or torn) have fired.
func (m *FaultMedium) Faults() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// Delay returns the accumulated virtual latency of slow writes; callers
// charge it to their simulated clock.
func (m *FaultMedium) Delay() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delay
}
