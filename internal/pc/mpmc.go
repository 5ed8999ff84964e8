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
	// LockedRing is one shared TicketRing.
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

// TicketRing is a bounded ring that any number of simulated producers
// and consumers share, every access under one ticket lock: the
// "locks are required" baseline of the MPMC comparison, and the
// lock-based queue (Q) that dedup ships with (§4.5). Head and tail
// share one line; each slot has a line of its own.
type TicketRing struct {
	lock  *locks.TicketLock
	meta  uint64 // +0 head index, +8 tail index
	slots uint64
	n     uint64
}

// NewTicketRing allocates an n-slot ring on m: the lock's two lines,
// then the head/tail line, then the slots.
func NewTicketRing(m *sim.Machine, n int) *TicketRing {
	return &TicketRing{
		lock:  locks.NewTicket(m, isa.DMBSt),
		meta:  m.Alloc(1),
		slots: m.Alloc(n),
		n:     uint64(n),
	}
}

// Send enqueues v. While the ring is full it drops the lock and
// retries after Nops(16).
func (r *TicketRing) Send(t *sim.Thread, v uint64) {
	for {
		r.lock.Lock(t)
		head := t.Load(r.meta + 0)
		tail := t.Load(r.meta + 8)
		if tail-head < r.n {
			t.Store(r.slots+(tail%r.n)<<6, v)
			t.Barrier(isa.DMBSt)
			t.Store(r.meta+8, tail+1)
			r.lock.Unlock(t)
			return
		}
		r.lock.Unlock(t)
		t.Nops(16)
	}
}

// TryRecv dequeues one value under the lock; ok is false when the ring
// was empty.
func (r *TicketRing) TryRecv(t *sim.Thread) (v uint64, ok bool) {
	r.lock.Lock(t)
	head := t.Load(r.meta + 0)
	tail := t.Load(r.meta + 8)
	if ok = tail != head; ok {
		t.Barrier(isa.DMBLd)
		v = t.Load(r.slots + (head%r.n)<<6)
		t.Store(r.meta+0, head+1)
	}
	r.lock.Unlock(t)
	return v, ok
}

// Recv dequeues one value, retrying after Nops(16) while the ring is
// empty.
func (r *TicketRing) Recv(t *sim.Thread) uint64 {
	for {
		if v, ok := r.TryRecv(t); ok {
			return v
		}
		t.Nops(16)
	}
}

// runLockedRing: a shared 16-slot TicketRing; the paper's "locks are
// required" case.
func runLockedRing(m *sim.Machine, cfg MPMCConfig, prodCores []topo.CoreID, consCore topo.CoreID, sum *uint64) {
	ring := NewTicketRing(m, 16)
	for p := range prodCores {
		p := p
		m.Spawn(prodCores[p], func(t *sim.Thread) {
			for i := 0; i < cfg.Messages; i++ {
				t.Nops(msgWork)
				ring.Send(t, payload(p*cfg.Messages+i, 0))
			}
		})
	}
	total := len(prodCores) * cfg.Messages
	m.Spawn(consCore, func(t *sim.Thread) {
		for got := 0; got < total; got++ {
			*sum += ring.Recv(t)
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
				t.Nops(msgWork)
				t.Nops(2) // shuffle: xor + counter bump
				s.Send(t, payload(p*cfg.Messages+i, 0))
				t.SpinUntil(acks[p], false, sim.SpinEQ, uint64(i+1), 8)
			}
		})
	}
	total := n * cfg.Messages
	m.Spawn(consCore, func(t *sim.Thread) {
		// The consumer's round-robin poll is one probe table: the
		// receiver probes of every producer not yet done, two each, in
		// producer order.
		recvs := make([]core.SimReceiver, n)
		live := make([]int, n)
		probes := make([]sim.Probe, 0, 2*n)
		for i := range recvs {
			recvs[i] = words[i].Receiver(pools[i])
			live[i] = i
			probes = append(probes, recvs[i].Probes()...)
		}
		done := make([]int, n)
		got := 0
		for got < total {
			// Idle rounds pause and poll again inside SpinAny; a round
			// that receives goes on from the producer after each one
			// served, with no pause at its end.
			i, v := t.SpinAny(probes, 8)
			for i >= 0 {
				k := i / 2
				p := live[k]
				x := recvs[p].Accept(i%2, v)
				copy(probes[2*k:], recvs[p].Probes())
				t.Nops(2) // unshuffle: xor + counter bump
				*sum += x
				done[p]++
				got++
				t.Store(acks[p], uint64(done[p]))
				next := 2 * (k + 1)
				if done[p] == cfg.Messages {
					live = append(live[:k], live[k+1:]...)
					probes = append(probes[:2*k], probes[2*k+2:]...)
					next = 2 * k
				}
				j, w := t.SpinSweep(probes[next:], 0)
				if j < 0 {
					break
				}
				i, v = next+j, w
			}
		}
	})
}
