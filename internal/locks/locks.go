// Package locks implements the paper's synchronization-primitive study
// (§5, Figure 7): an in-place ticket lock (Linux-style), two delegation
// locks — FFWD (dedicated server) and DSMSynch (migratory combining
// server) — and the Pilot variants of both delegation locks
// (Algorithm 6), plus the micro-benchmark driver that reproduces
// Figures 7a, 7b and 7c.
package locks

import (
	"fmt"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// CS is a critical section: it runs on whichever simulated thread the
// lock chooses (the caller for in-place locks, the server for
// delegation locks) and returns a 64-bit result.
type CS func(t *sim.Thread, arg uint64) uint64

// Lock is a mutual-exclusion primitive over simulated memory. Exec
// runs cs(arg) under the lock on behalf of the calling thread and
// returns its result.
type Lock interface {
	Exec(t *sim.Thread, client int, cs CS, arg uint64) uint64
}

// spinPause inserts polite pause work between polls, keeping simulated
// spin loops from flooding the event stream while barely affecting
// virtual-time results.
const spinPause = 8

// Kind selects a lock implementation in benchmark configs.
type Kind int

const (
	// Ticket is the Linux-style in-place ticket lock.
	Ticket Kind = iota
	// FFWD is the dedicated-server delegation lock.
	FFWD
	// FFWDPilot is FFWD with Pilot-encoded responses (Algorithm 6).
	FFWDPilot
	// DSMSynch is the migratory combining delegation lock.
	DSMSynch
	// DSMSynchPilot is DSMSynch with Pilot-encoded responses.
	DSMSynchPilot
	// TAS is the test-and-set spinlock.
	TAS
	// MCS is the Mellor-Crummey & Scott queue lock.
	MCS
	// CLH is the Craig/Landin-Hagersten queue lock.
	CLH
	// FC is the flat-combining lock.
	FC
	// FCPilot is flat combining with Pilot-encoded responses.
	FCPilot
)

func (k Kind) String() string {
	switch k {
	case Ticket:
		return "Ticket"
	case FFWD:
		return "FFWD"
	case FFWDPilot:
		return "FFWD-P"
	case DSMSynch:
		return "DSynch"
	case DSMSynchPilot:
		return "DSynch-P"
	case TAS:
		return "TAS"
	case MCS:
		return "MCS"
	case CLH:
		return "CLH"
	case FC:
		return "FC"
	case FCPilot:
		return "FC-P"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// BenchConfig describes one lock micro-benchmark run (§5.2): Threads
// clients repeatedly acquire the lock, read-modify Globals shared
// cache lines and bump a counter inside the critical section, then
// wait Interval nops outside it.
type BenchConfig struct {
	Plat     *platform.Platform
	Kind     Kind
	Threads  int // client threads (a dedicated FFWD server is extra)
	Ops      int // acquisitions per thread
	Globals  int // shared cache lines visited inside the CS (Figure 7a x-axis)
	Interval int // nops between acquisitions (Figure 7c x-axis)
	// UnlockBarrier is the in-place locks' unlock publication barrier
	// (Figure 7a legend: DMBSt = Normal, AddrDep = "Remove barrier
	// after RMR", the dependency that replaces it). The zero value
	// (None) means DMB st. Ignored by delegation locks.
	UnlockBarrier isa.Barrier
	// ServeBarriers are the delegation-lock barriers (line 4 and line 7
	// of Algorithm 5, the Figure 7b legend "X-Y"). Zero values mean the
	// per-kind defaults (LDAR, DMB st).
	ServeBarriers [2]isa.Barrier
	Seed          int64
}

// BenchResult is one run's outcome.
type BenchResult struct {
	Config  BenchConfig
	Cycles  float64
	Elapsed float64
	Ops     int
	Valid   bool // mutual exclusion held (shared counters consistent)
	Stats   sim.Stats
}

// Throughput returns critical sections per second.
func (r BenchResult) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed
}

// New builds a lock of the given kind for clients threads on m. unlock
// is the in-place locks' unlock barrier; serve holds the delegation
// locks' line-4 and line-7 barriers, whose zero values pick each
// kind's defaults. Run its clients with Run, which also spawns an FFWD
// lock's dedicated server.
func New(m *sim.Machine, kind Kind, clients int, unlock isa.Barrier, serve [2]isa.Barrier) Lock {
	switch kind {
	case Ticket:
		return NewTicket(m, unlock)
	case FFWD, FFWDPilot:
		return NewFFWD(m, clients, kind == FFWDPilot, serve)
	case DSMSynch, DSMSynchPilot:
		return NewDSMSynch(m, clients, kind == DSMSynchPilot, serve)
	case TAS:
		return NewTAS(m, unlock)
	case MCS:
		return NewMCS(m, clients, unlock)
	case CLH:
		return NewCLH(m, clients, unlock)
	case FC, FCPilot:
		return NewFC(m, clients, kind == FCPilot, serve[1])
	}
	panic(fmt.Sprintf("locks: unknown kind %v", kind))
}

// Run spawns one client thread per core, in core order, each running
// body(t, i) with i its index in cores, then the dedicated server of
// every FFWD lock in lks, in order, on serverCore, and runs m. A server
// stops once every client's body has returned. Run returns m.Run's
// cycles.
func Run(m *sim.Machine, lks []Lock, cores []topo.CoreID, serverCore topo.CoreID, body func(t *sim.Thread, i int)) float64 {
	// Thread closures run strictly one at a time (the scheduler serves
	// one thread at a time, on Run's goroutine), so this plain counter
	// is safely shared.
	remaining := len(cores)
	for i, c := range cores {
		m.Spawn(c, func(t *sim.Thread) {
			body(t, i)
			remaining--
		})
	}
	for _, l := range lks {
		if fl, ok := l.(*FFWDLock); ok {
			m.Spawn(serverCore, func(t *sim.Thread) { fl.server.run(t, &remaining) })
		}
	}
	return m.Run()
}

// Bench runs the micro-benchmark and returns the result.
func Bench(cfg BenchConfig) BenchResult {
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if cfg.Ops == 0 {
		cfg.Ops = 200
	}
	inPlace := cfg.Kind == Ticket || cfg.Kind == TAS || cfg.Kind == MCS || cfg.Kind == CLH
	if cfg.UnlockBarrier == 0 && inPlace {
		cfg.UnlockBarrier = isa.DMBSt
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	cores, serverCore := cfg.Plat.Sys.InterleaveCores(cfg.Threads)
	cfg.Threads = len(cores)

	// The shared state the critical section mutates: Globals dedicated
	// lines plus a counter. For the in-place lock the paper keeps the
	// counters thread-local ("those counters are all local variables");
	// delegation locks use one global counter, which becomes
	// server-local in steady state.
	counter := m.Alloc(1)
	locals := m.Alloc(cfg.Threads)
	globals := m.Alloc(max(cfg.Globals, 1))

	lock := New(m, cfg.Kind, cfg.Threads, cfg.UnlockBarrier, cfg.ServeBarriers)

	makeCS := func(client int) CS {
		cnt := counter
		if inPlace {
			cnt = locals + uint64(client)<<6
		}
		return func(t *sim.Thread, arg uint64) uint64 {
			for g := 0; g < cfg.Globals; g++ {
				line := globals + uint64(g)<<6
				v := t.Load(line)
				t.Store(line, v+1)
			}
			c := t.Load(cnt)
			t.Store(cnt, c+1)
			return c + 1
		}
	}

	totalOps := cfg.Threads * cfg.Ops
	cycles := Run(m, []Lock{lock}, cores, serverCore, func(t *sim.Thread, i int) {
		cs := makeCS(i)
		for op := 0; op < cfg.Ops; op++ {
			lock.Exec(t, i, cs, uint64(op))
			t.Nops(cfg.Interval)
		}
	})
	var counted uint64
	if inPlace {
		for i := 0; i < cfg.Threads; i++ {
			counted += m.Directory().Committed(locals + uint64(i)<<6)
		}
	} else {
		counted = m.Directory().Committed(counter)
	}
	valid := counted == uint64(totalOps)
	for g := 0; g < cfg.Globals; g++ {
		if m.Directory().Committed(globals+uint64(g)<<6) != uint64(totalOps) {
			valid = false
		}
	}
	return BenchResult{
		Config:  cfg,
		Cycles:  cycles,
		Elapsed: m.Seconds(cycles),
		Ops:     totalOps,
		Valid:   valid,
		Stats:   m.Stats(),
	}
}
