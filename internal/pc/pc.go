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
	BufSize  int // slots; power of two, default 8
	MsgWork  int // nops spent in produceMsg, default 40
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
	if cfg.BufSize == 0 {
		cfg.BufSize = 8
	}
	if cfg.MsgWork == 0 {
		cfg.MsgWork = 40
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
	var valid *bool
	switch cfg.Mode {
	case Pilot:
		valid = runPilot(m, cfg)
	default:
		valid = runClassic(m, cfg)
	}
	elapsedCycles := m.Run()
	return Result{
		Config:   cfg,
		Cycles:   elapsedCycles,
		Elapsed:  m.Seconds(elapsedCycles),
		Messages: cfg.Messages,
		Valid:    *valid,
		Stats:    m.Stats(),
	}
}

// payload generates the deterministic message stream both sides check.
func payload(i, j int) uint64 {
	return uint64(i)*2654435761 + uint64(j)*0x9E37 + 1
}

// runClassic wires Algorithm 2 with the configured barriers. The
// returned flag is meaningful only after Machine.Run completes.
func runClassic(m *sim.Machine, cfg Config) *bool {
	linesPerSlot := (cfg.Batch + 7) / 8
	prodCnt := m.Alloc(1)
	consCnt := m.Alloc(1)
	buf := m.Alloc(cfg.BufSize * linesPerSlot)
	slot := func(i, w int) uint64 {
		s := i % cfg.BufSize
		return buf + uint64(s*linesPerSlot)<<6 + uint64(w)*8
	}
	valid := true

	m.Spawn(cfg.Producer, func(t *sim.Thread) {
		produced := 0
		for produced < cfg.Messages {
			// Lines 1-2: wait for buffer space.
			if cfg.Combo.Avail == isa.LDAR {
				for uint64(produced)-t.LoadAcquire(consCnt) >= uint64(cfg.BufSize) {
					t.Nops(1)
				}
			} else {
				for uint64(produced)-t.Load(consCnt) >= uint64(cfg.BufSize) {
					t.Nops(1)
				}
				// Line 3: the availability barrier.
				if cfg.Combo.Avail != isa.None {
					t.Barrier(cfg.Combo.Avail)
				}
			}
			// Line 4: produceMsg and fill the (shared, likely-RMR) slot.
			t.Nops(cfg.MsgWork)
			for w := 0; w < cfg.Batch; w++ {
				t.Store(slot(produced, w), payload(produced, w))
			}
			// Line 5: the publication barrier; STLR folds it into the
			// counter store.
			switch cfg.Combo.Publish {
			case isa.None:
				t.Store(prodCnt, uint64(produced+1))
			case isa.STLR:
				t.StoreRelease(prodCnt, uint64(produced+1))
			default:
				t.Barrier(cfg.Combo.Publish)
				t.Store(prodCnt, uint64(produced+1))
			}
			produced++
		}
	})

	m.Spawn(cfg.Consumer, func(t *sim.Thread) {
		consumed := 0
		for consumed < cfg.Messages {
			// Observe the producer counter and drain every message it
			// covers (a realistic consumer amortizes the counter RMR).
			avail := t.Load(prodCnt)
			if avail == uint64(consumed) {
				t.Nops(1)
				continue
			}
			// The consumer's cheap load barrier (omitted for
			// Theoretical/Ideal, matching what Pilot avoids).
			if cfg.Combo.Publish != isa.None {
				t.Barrier(isa.DMBLd)
			}
			for uint64(consumed) < avail && consumed < cfg.Messages {
				for w := 0; w < cfg.Batch; w++ {
					if got := t.Load(slot(consumed, w)); got != payload(consumed, w) {
						valid = false
					}
				}
				consumed++
			}
			t.Store(consCnt, uint64(consumed))
		}
	})
	return &valid
}

// runPilot wires §4.4: slots are Pilot-encoded (per 64-bit slice), the
// producer counter disappears, and only the availability check's
// counter and barrier remain. The returned flag is meaningful only
// after Machine.Run completes.
func runPilot(m *sim.Machine, cfg Config) *bool {
	linesPerSlot := (cfg.Batch + 7) / 8
	consCnt := m.Alloc(1)
	dataLines := m.Alloc(cfg.BufSize * linesPerSlot)
	flagLines := m.Alloc(cfg.BufSize * linesPerSlot) // rarely touched
	// One Pilot channel per 64-bit slice of every slot; slice w of
	// message i travels on channel (i%BufSize)*Batch + w.
	pool := core.HashPool(uint64(cfg.Seed) + 77)
	var tx []core.SimSender
	var rx []core.SimReceiver
	for s := 0; s < cfg.BufSize; s++ {
		for w := 0; w < cfg.Batch; w++ {
			off := uint64(s*linesPerSlot)<<6 + uint64(w)*8
			word := core.SimWord{Data: dataLines + off, Flag: flagLines + off}
			tx = append(tx, word.Sender(pool))
			rx = append(rx, word.Receiver(pool))
		}
	}
	valid := true

	m.Spawn(cfg.Producer, func(t *sim.Thread) {
		produced := 0
		for produced < cfg.Messages {
			// The availability check (line 3 barrier) survives; use the
			// cheap acquire form the paper recommends.
			for uint64(produced)-t.LoadAcquire(consCnt) >= uint64(cfg.BufSize) {
				t.Nops(1)
			}
			t.Nops(cfg.MsgWork)
			for w := 0; w < cfg.Batch; w++ {
				t.Nops(1) // shuffle (one xor; bookkeeping is register-resident)
				tx[(produced%cfg.BufSize)*cfg.Batch+w].Send(t, payload(produced, w))
			}
			// No publication barrier, no producer counter: done.
			produced++
		}
	})

	m.Spawn(cfg.Consumer, func(t *sim.Thread) {
		consumed := 0
		for consumed < cfg.Messages {
			for w := 0; w < cfg.Batch; w++ {
				v := rx[(consumed%cfg.BufSize)*cfg.Batch+w].Recv(t, 1)
				t.Nops(1)
				if v != payload(consumed, w) {
					valid = false
				}
			}
			consumed++
			t.Store(consCnt, uint64(consumed))
		}
	})
	return &valid
}
