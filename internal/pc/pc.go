// Package pc implements the paper's producer-consumer study (§4,
// Figure 6): a single-producer single-consumer circular buffer
// (Algorithm 2) with configurable barrier choices, the Pilot variant
// that removes the publication barrier (§4.4), the Theoretical and
// Ideal reference points, and batched (multi-word) messages (§4.5).
package pc

import (
	"fmt"

	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// Combo is a Figure-6a legend entry "X - Y": the barrier at line 3 of
// Algorithm 2 (after the availability check) and the one at line 5
// (between filling the buffer and bumping the producer counter).
type Combo struct {
	Avail   isa.Barrier // line 3; LDAR turns the availability load into a load-acquire
	Publish isa.Barrier // line 5; STLR turns the counter bump into a store-release
}

// Name renders the paper's legend label.
func (c Combo) Name() string { return fmt.Sprintf("%s - %s", c.Avail, c.Publish) }

// Figure6aCombos returns the seven legend entries of Figure 6a.
func Figure6aCombos() []Combo {
	return []Combo{
		{Avail: isa.DMBFull, Publish: isa.DMBFull},
		{Avail: isa.DMBFull, Publish: isa.DMBSt},
		{Avail: isa.DMBLd, Publish: isa.DMBSt},
		{Avail: isa.LDAR, Publish: isa.DMBSt},
		{Avail: isa.DMBFull, Publish: isa.STLR},
		{Avail: isa.DMBLd, Publish: isa.None},
		{Avail: isa.None, Publish: isa.None}, // Ideal
	}
}

// Every Run's ring has bufSize slots, and every producer, here and in
// RunMPMC, spends msgWork nops producing each message (produceMsg,
// line 4 of Algorithm 2).
const (
	bufSize = 8
	msgWork = 40
)

// Mode selects the buffer implementation.
type Mode int

const (
	// Classic is Algorithm 2 with the barriers of a Combo.
	Classic Mode = iota
	// Pilot replaces the slots with Pilot words: no publication
	// barrier, no producer counter, no consumer load barrier (§4.4).
	Pilot
	// Theoretical is Classic with the Pilot-avoidable barriers removed
	// but the original cache-line layout kept (§4.5's reference).
	Theoretical
)

func (m Mode) String() string {
	switch m {
	case Classic:
		return "classic"
	case Pilot:
		return "pilot"
	default:
		return "theoretical"
	}
}

// Config describes one producer-consumer run.
type Config struct {
	Plat     *platform.Platform
	Producer topo.CoreID
	Consumer topo.CoreID
	Mode     Mode
	Combo    Combo // Classic/Theoretical only (Theoretical forces Publish=None)
	Messages int
	Batch    int // words per message, default 1 (Figure 6c sweeps this)
	// TSO runs the program on the x86-style model (no stale reads,
	// FIFO store buffer); combine with Combo zero value for the
	// barrier-free port the paper's introduction contrasts against.
	TSO  bool
	Seed int64
}

// Result is one run's outcome.
type Result struct {
	Config   Config
	Cycles   float64
	Elapsed  float64
	Messages int
	Valid    bool // every message arrived with the right payload
	Stats    sim.Stats
}

// Throughput returns messages per second.
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Messages) / r.Elapsed
}

// Run executes one producer-consumer experiment.
func Run(cfg Config) Result {
	if cfg.Messages == 0 {
		cfg.Messages = 1000
	}
	if cfg.Batch == 0 {
		cfg.Batch = 1
	}
	if cfg.Mode == Theoretical {
		cfg.Combo.Publish = isa.None
	}
	mode := sim.WMM
	if cfg.TSO {
		mode = sim.TSO
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: mode, Seed: cfg.Seed})
	var ring *Ring
	if cfg.Mode == Pilot {
		ring = NewPilotRing(m, core.HashPool(uint64(cfg.Seed)+77), bufSize, cfg.Batch, 1, 1)
	} else {
		ring = NewClassicRing(m, cfg.Combo, bufSize, cfg.Batch, 1)
	}
	valid := true

	m.Spawn(cfg.Producer, func(t *sim.Thread) {
		for i := 0; i < cfg.Messages; i++ {
			ring.Reserve(t)
			t.Nops(msgWork)
			for w := 0; w < cfg.Batch; w++ {
				ring.Put(t, w, payload(i, w))
			}
			ring.Publish(t)
		}
	})

	// The consumer reads every message a wait reports before releasing
	// their slots: a realistic consumer amortizes the counter RMR.
	m.Spawn(cfg.Consumer, func(t *sim.Thread) {
		for i := 0; i < cfg.Messages; {
			for n := ring.Wait(t); n > 0; n-- {
				for w := 0; w < cfg.Batch; w++ {
					if ring.Get(t, w) != payload(i, w) {
						valid = false
					}
				}
				i++
			}
			ring.Release(t)
		}
	})
	elapsedCycles := m.Run()
	return Result{
		Config:   cfg,
		Cycles:   elapsedCycles,
		Elapsed:  m.Seconds(elapsedCycles),
		Messages: cfg.Messages,
		Valid:    valid,
		Stats:    m.Stats(),
	}
}

// payload generates the deterministic message stream both sides check.
func payload(i, j int) uint64 {
	return uint64(i)*2654435761 + uint64(j)*0x9E37 + 1
}
