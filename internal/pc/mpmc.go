package pc

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/locks"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// The paper's §4.1 notes that multiple producers or consumers sharing
// one circular buffer need locks (its §5 subject). This file provides
// that comparison as an extension: a lock-protected shared ring versus
// Pilot's lock-free alternative of one SPSC channel per producer with
// the consumer round-robining across them — the natural way to apply
// a single-producer mechanism to a fan-in topology.

// MPMCMode selects the fan-in implementation.
type MPMCMode int

const (
	// LockedRing is one shared ring guarded by a ticket lock.
	LockedRing MPMCMode = iota
	// PilotFanIn is one Pilot channel per producer, consumer polling
	// round-robin.
	PilotFanIn
)

func (m MPMCMode) String() string {
	if m == LockedRing {
		return "locked-ring"
	}
	return "pilot-fan-in"
}

// MPMCConfig describes a fan-in run: Producers threads each send
// Messages payloads to one consumer.
type MPMCConfig struct {
	Plat      *platform.Platform
	Producers int
	Messages  int // per producer
	MsgWork   int
	Mode      MPMCMode
	Seed      int64
}

// MPMCResult is one run's outcome.
type MPMCResult struct {
	Config  MPMCConfig
	Cycles  float64
	Elapsed float64
	Total   int
	Valid   bool
	Stats   sim.Stats
}

// Throughput returns messages per second.
func (r MPMCResult) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Total) / r.Elapsed
}

// RunMPMC executes the fan-in experiment.
func RunMPMC(cfg MPMCConfig) MPMCResult {
	if cfg.Producers == 0 {
		cfg.Producers = 4
	}
	if cfg.Messages == 0 {
		cfg.Messages = 300
	}
	if cfg.MsgWork == 0 {
		cfg.MsgWork = 40
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	total := cfg.Producers * cfg.Messages

	prodCores := make([]topo.CoreID, cfg.Producers)
	for i := range prodCores {
		prodCores[i] = topo.CoreID((i * 4) % (cfg.Plat.Sys.NumCores() - 1))
	}
	consCore := topo.CoreID(cfg.Plat.Sys.NumCores() - 1)

	var sum uint64
	var want uint64
	for p := 0; p < cfg.Producers; p++ {
		for i := 0; i < cfg.Messages; i++ {
			want += payload(p*cfg.Messages+i, 0)
		}
	}

	switch cfg.Mode {
	case LockedRing:
		runLockedRing(m, cfg, prodCores, consCore, &sum)
	default:
		runPilotFanIn(m, cfg, prodCores, consCore, &sum)
	}
	cycles := m.Run()
	return MPMCResult{
		Config:  cfg,
		Cycles:  cycles,
		Elapsed: m.Seconds(cycles),
		Total:   total,
		Valid:   sum == want,
		Stats:   m.Stats(),
	}
}

// runLockedRing: a shared 16-slot ring with head/tail indices, all
// accesses under a ticket lock; the paper's "locks are required" case.
func runLockedRing(m *sim.Machine, cfg MPMCConfig, prodCores []topo.CoreID, consCore topo.CoreID, sum *uint64) {
	const slots = 16
	lock := locks.NewTicket(m, isa.DMBSt)
	meta := m.Alloc(1) // +0 head, +8 tail
	buf := m.Alloc(slots)

	for p := range prodCores {
		p := p
		m.Spawn(prodCores[p], func(t *sim.Thread) {
			for i := 0; i < cfg.Messages; i++ {
				v := payload(p*cfg.Messages+i, 0)
				t.Nops(cfg.MsgWork)
				for {
					lock.Lock(t)
					head := t.Load(meta + 0)
					tail := t.Load(meta + 8)
					if tail-head < slots {
						t.Store(buf+(tail%slots)<<6, v)
						t.Barrier(isa.DMBSt)
						t.Store(meta+8, tail+1)
						lock.Unlock(t)
						break
					}
					lock.Unlock(t)
					t.Nops(16)
				}
			}
		})
	}
	total := len(prodCores) * cfg.Messages
	m.Spawn(consCore, func(t *sim.Thread) {
		got := 0
		for got < total {
			lock.Lock(t)
			head := t.Load(meta + 0)
			tail := t.Load(meta + 8)
			if tail > head {
				t.Barrier(isa.DMBLd)
				*sum += t.Load(buf + (head%slots)<<6)
				t.Store(meta+0, head+1)
				got++
			}
			lock.Unlock(t)
			if tail == head {
				t.Nops(16)
			}
		}
	})
}

// runPilotFanIn: one Pilot word per producer plus per-pair ack
// counters for backpressure; the consumer round-robins.
func runPilotFanIn(m *sim.Machine, cfg MPMCConfig, prodCores []topo.CoreID, consCore topo.CoreID, sum *uint64) {
	n := len(prodCores)
	words := make([]core.SimWord, n)
	pools := make([][]uint64, n)
	acks := make([]uint64, n)
	for i := 0; i < n; i++ {
		words[i] = core.NewSimWord(m)
		pools[i] = core.HashPool(uint64(cfg.Seed) + uint64(i))
		acks[i] = m.Alloc(1)
	}
	for p := range prodCores {
		p := p
		m.Spawn(prodCores[p], func(t *sim.Thread) {
			s := words[p].Sender(pools[p])
			for i := 0; i < cfg.Messages; i++ {
				t.Nops(cfg.MsgWork)
				t.Nops(2) // shuffle: xor + counter bump
				s.Send(t, payload(p*cfg.Messages+i, 0))
				t.SpinUntil(acks[p], false, sim.SpinEQ, uint64(i+1), 8)
			}
		})
	}
	total := n * cfg.Messages
	m.Spawn(consCore, func(t *sim.Thread) {
		recvs := make([]core.SimReceiver, n)
		done := make([]int, n)
		for i := range recvs {
			recvs[i] = words[i].Receiver(pools[i])
		}
		got := 0
		for got < total {
			idle := true
			for p := 0; p < n; p++ {
				if done[p] == cfg.Messages {
					continue
				}
				if v, ok := recvs[p].TryRecv(t); ok {
					t.Nops(2) // unshuffle: xor + counter bump
					*sum += v
					done[p]++
					got++
					t.Store(acks[p], uint64(done[p]))
					idle = false
				}
			}
			if idle {
				t.Nops(8)
			}
		}
	})
}
