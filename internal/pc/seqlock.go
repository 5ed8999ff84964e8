package pc

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// The seqlock is the classic single-writer publication pattern for
// multi-word records: the writer brackets the payload stores with an
// odd/even sequence counter and barriers; readers retry when the
// sequence moved under them. It needs two publication barriers per
// update on a weakly-ordered machine. Pilot publishes the same record
// with per-slice encoded stores and no barriers at all — this file
// compares the two as an extension of the paper's §4.

// PubMode selects the publication protocol.
type PubMode int

const (
	// Seqlock is the sequence-counter protocol (two DMB st per update,
	// DMB ld pairing on the reader).
	Seqlock PubMode = iota
	// PilotBatch publishes each 8-byte slice Pilot-encoded.
	PilotBatch
)

func (m PubMode) String() string {
	if m == Seqlock {
		return "seqlock"
	}
	return "pilot"
}

// PubConfig describes one publication run: a writer updating a Words-
// long record Updates times while a reader takes consistent snapshots.
type PubConfig struct {
	Plat    *platform.Platform
	Writer  topo.CoreID
	Reader  topo.CoreID
	Mode    PubMode
	Words   int // record length in 64-bit words (default 4)
	Updates int // total published updates (default 500)
	Gap     int // writer nops between updates (default 200)
	Seed    int64
}

// PubResult is one run's outcome.
type PubResult struct {
	Config    PubConfig
	Cycles    float64
	Elapsed   float64
	Snapshots int  // consistent reader snapshots taken
	Retries   int  // reader retries (seqlock) / partial polls (pilot)
	Torn      bool // a snapshot mixed words from different updates
}

// SnapshotRate returns consistent snapshots per second.
func (r PubResult) SnapshotRate() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Snapshots) / r.Elapsed
}

// pubValue is the deterministic record content for update u: every
// word derives from u, so torn snapshots are detectable.
func pubValue(u, w int) uint64 {
	return uint64(u)*0x9E3779B97F4A7C15 + uint64(w)
}

// RunPub executes the publication experiment.
func RunPub(cfg PubConfig) PubResult {
	if cfg.Words == 0 {
		cfg.Words = 4
	}
	if cfg.Updates == 0 {
		cfg.Updates = 500
	}
	if cfg.Gap == 0 {
		cfg.Gap = 200
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	res := PubResult{Config: cfg}

	switch cfg.Mode {
	case Seqlock:
		runSeqlock(m, cfg, &res)
	default:
		runPilotPub(m, cfg, &res)
	}
	cycles := m.Run()
	res.Cycles = cycles
	res.Elapsed = m.Seconds(cycles)
	return res
}

// runSeqlock wires the classic protocol.
func runSeqlock(m *sim.Machine, cfg PubConfig, res *PubResult) {
	seq := m.Alloc(1)
	rec := m.Alloc((cfg.Words + 7) / 8)
	stop := m.Alloc(1)
	word := func(w int) uint64 { return rec + uint64(w)*8 }

	m.Spawn(cfg.Writer, func(t *sim.Thread) {
		for u := 1; u <= cfg.Updates; u++ {
			s := t.Load(seq)
			t.Store(seq, s+1) // odd: update in progress
			t.Barrier(isa.DMBSt)
			for w := 0; w < cfg.Words; w++ {
				t.Store(word(w), pubValue(u, w))
			}
			t.Barrier(isa.DMBSt)
			t.Store(seq, s+2) // even: stable
			t.Nops(cfg.Gap)
		}
		t.Barrier(isa.DMBSt)
		t.Store(stop, 1)
	})

	m.Spawn(cfg.Reader, func(t *sim.Thread) {
		buf := make([]uint64, cfg.Words)
		for t.Load(stop) == 0 {
			s1 := t.Load(seq)
			if s1&1 == 1 {
				res.Retries++
				t.Nops(4)
				continue
			}
			t.Barrier(isa.DMBLd)
			for w := 0; w < cfg.Words; w++ {
				buf[w] = t.Load(word(w))
			}
			t.Barrier(isa.DMBLd)
			s2 := t.Load(seq)
			if s1 != s2 {
				res.Retries++
				continue
			}
			res.Snapshots++
			if tornRecord(buf) {
				res.Torn = true
			}
			t.Nops(8)
		}
	})
}

// runPilotPub publishes each slice Pilot-encoded; the reader assembles
// a snapshot from the per-slice decoded values. Consistency comes from
// the per-slice generation: a snapshot is taken only when every slice
// decodes to the same update index.
func runPilotPub(m *sim.Machine, cfg PubConfig, res *PubResult) {
	data := m.Alloc((cfg.Words + 7) / 8)
	flags := m.Alloc((cfg.Words + 7) / 8)
	stop := m.Alloc(1)
	pool := core.HashPool(uint64(cfg.Seed) + 5)
	words := make([]core.SimWord, cfg.Words)
	for w := range words {
		words[w] = core.SimWord{Data: data + uint64(w)*8, Flag: flags + uint64(w)*8}
	}

	m.Spawn(cfg.Writer, func(t *sim.Thread) {
		tx := make([]core.SimSender, cfg.Words)
		for w, word := range words {
			tx[w] = word.Sender(pool)
		}
		for u := 1; u <= cfg.Updates; u++ {
			for w := range tx {
				t.Nops(1)
				tx[w].Send(t, pubValue(u, w))
			}
			t.Nops(cfg.Gap)
		}
		t.Store(stop, 1)
	})

	m.Spawn(cfg.Reader, func(t *sim.Thread) {
		rx := make([]core.SimReceiver, cfg.Words)
		for w, word := range words {
			rx[w] = word.Receiver(pool)
		}
		lastU := 0
		for t.Load(stop) == 0 {
			// Refresh every slice's latest observation.
			changed := false
			for w := range rx {
				changed = rx[w].Observe(t) || changed
			}
			// A consistent snapshot decodes every slice under one
			// update index ahead of the last snapshot. Each slice's
			// sender counts its own messages, so update u went out as
			// message u-1 of every slice. A poll that saw no slice
			// change holds the words the last scan tried, which
			// decode to no update past lastU, so it skips the scan.
			// A snapshot is taken only when every slice decodes to
			// exactly pubValue(u, w), so a Pilot snapshot is never
			// torn: Torn stays false by construction.
			matched := false
			for u := lastU + 1; changed && u <= cfg.Updates && !matched; u++ {
				all := true
				for w := range rx {
					if rx[w].DecodeAt(u-1) != pubValue(u, w) {
						all = false
						break
					}
				}
				if all {
					res.Snapshots++
					lastU = u
					matched = true
				}
			}
			if !matched {
				if lastU > 0 {
					// The previously decoded record is still the
					// current published value: a consistent snapshot
					// with zero revalidation cost — Pilot needs no
					// read-side sequence check.
					res.Snapshots++
					t.Nops(8)
				} else {
					res.Retries++
					t.Nops(4)
				}
			} else {
				t.Nops(8)
			}
		}
	})
}

// tornRecord checks that every word of the snapshot derives from one
// update index.
func tornRecord(buf []uint64) bool {
	base := buf[0]
	for w := 1; w < len(buf); w++ {
		if buf[w]-uint64(w) != base {
			return true
		}
	}
	return false
}
