// Package scenario runs user-described workloads on the simulator: a
// JSON document names a platform, declares shared variables, and gives
// each thread a looped op sequence (loads, stores, barriers, atomics,
// spins, padding). It exists so the characterization methodology can
// be applied to workloads beyond the paper's, without writing Go.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// Op is one step of a thread's loop.
type Op struct {
	// Op selects the action: load, loadacq, loadacqpc, store, storerel,
	// fetchadd, swap, cas, barrier, nops, work, spin_eq, spin_ne,
	// spin_ge.
	Op string `json:"op"`
	// Var names the shared variable for memory ops.
	Var string `json:"var,omitempty"`
	// Value is the stored/added/compared value (and spin target).
	Value uint64 `json:"value,omitempty"`
	// New is CAS's replacement value.
	New uint64 `json:"new,omitempty"`
	// Barrier names the order-preserving approach for op=barrier
	// ("DMB st", "DSB full", "ADDR DEP", ...). The operand barriers
	// are ops of their own: loadacq (LDAR), loadacqpc (LDAPR) and
	// storerel (STLR).
	Barrier string `json:"barrier,omitempty"`
	// N is the count for nops, or cycles for work.
	N int `json:"n,omitempty"`
}

// ThreadSpec is one simulated thread.
type ThreadSpec struct {
	Core int  `json:"core"`
	Loop int  `json:"loop"` // iterations of Ops (default 1)
	Ops  []Op `json:"ops"`
}

// Spec is the whole scenario.
type Spec struct {
	Platform string            `json:"platform"` // platform.ByName key
	Mode     string            `json:"mode"`     // "WMM" (default) or "TSO"
	Seed     int64             `json:"seed"`
	Vars     []string          `json:"vars"`
	Init     map[string]uint64 `json:"init,omitempty"`
	Threads  []ThreadSpec      `json:"threads"`
}

// Result summarizes one scenario run.
type Result struct {
	Cycles  float64
	Seconds float64
	Threads []sim.ThreadStats
	Final   map[string]uint64
	Stats   sim.Stats
}

// Parse reads a Spec from JSON.
func Parse(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &s, nil
}

// barrierByName resolves the paper's legend names.
func barrierByName(name string) (isa.Barrier, error) {
	for _, b := range isa.All() {
		if b.String() == name {
			return b, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown barrier %q", name)
}

// operandBarrierOps maps the operand barriers, which order through the
// access they are part of, to the op that performs that access.
var operandBarrierOps = map[isa.Barrier]string{
	isa.LDAR:  "loadacq",
	isa.LDAPR: "loadacqpc",
	isa.STLR:  "storerel",
}

// Validate checks the spec statically.
func (s *Spec) Validate() error {
	p := platform.ByName(s.Platform)
	if p == nil {
		return fmt.Errorf("scenario: unknown platform %q", s.Platform)
	}
	if s.Mode != "" && s.Mode != "WMM" && s.Mode != "TSO" {
		return fmt.Errorf("scenario: mode must be WMM or TSO, got %q", s.Mode)
	}
	vars := map[string]bool{}
	for _, v := range s.Vars {
		if vars[v] {
			return fmt.Errorf("scenario: duplicate var %q", v)
		}
		vars[v] = true
	}
	if len(s.Threads) == 0 {
		return fmt.Errorf("scenario: no threads")
	}
	for ti, th := range s.Threads {
		if th.Core < 0 || th.Core >= p.Sys.NumCores() {
			return fmt.Errorf("scenario: thread %d core %d out of range [0,%d)",
				ti, th.Core, p.Sys.NumCores())
		}
		for oi, op := range th.Ops {
			switch op.Op {
			case "load", "loadacq", "loadacqpc", "store", "storerel",
				"fetchadd", "swap", "cas", "spin_eq", "spin_ne", "spin_ge":
				if !vars[op.Var] {
					return fmt.Errorf("scenario: thread %d op %d: unknown var %q", ti, oi, op.Var)
				}
			case "barrier":
				bar, err := barrierByName(op.Barrier)
				if err != nil {
					return fmt.Errorf("thread %d op %d: %w", ti, oi, err)
				}
				if alt, ok := operandBarrierOps[bar]; ok {
					return fmt.Errorf("scenario: thread %d op %d: %s attaches to an access, not a standalone barrier; use op %q",
						ti, oi, op.Barrier, alt)
				}
			case "nops", "work":
				if op.N <= 0 {
					return fmt.Errorf("scenario: thread %d op %d: %s needs n > 0", ti, oi, op.Op)
				}
			default:
				return fmt.Errorf("scenario: thread %d op %d: unknown op %q", ti, oi, op.Op)
			}
		}
	}
	return nil
}

// Run executes the scenario. An optional tracer receives every event.
func (s *Spec) Run(tr sim.Tracer) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := platform.ByName(s.Platform)
	mode := sim.WMM
	if s.Mode == "TSO" {
		mode = sim.TSO
	}
	m := sim.New(sim.Config{Plat: p, Mode: mode, Seed: s.Seed})
	if tr != nil {
		m.SetTracer(tr)
	}
	addr := make(map[string]uint64, len(s.Vars))
	for _, v := range s.Vars {
		addr[v] = m.Alloc(1)
	}
	// Iterate Init in sorted-name order: with several unknown vars the
	// reported one must not depend on map iteration order (determvet).
	initVars := make([]string, 0, len(s.Init))
	for v := range s.Init {
		initVars = append(initVars, v)
	}
	sort.Strings(initVars)
	for _, v := range initVars {
		a, ok := addr[v]
		if !ok {
			return nil, fmt.Errorf("scenario: init of unknown var %q", v)
		}
		m.SetInitial(a, s.Init[v])
	}

	threads := make([]*sim.Thread, len(s.Threads))
	for ti, th := range s.Threads {
		tp, err := compileThread(th, addr, p.Cost.IssueWidth)
		if err != nil {
			return nil, fmt.Errorf("scenario: thread %d: %w", ti, err)
		}
		threads[ti] = m.SpawnProgram(topo.CoreID(th.Core), tp)
	}
	cycles, err := run(m)
	if err != nil {
		return nil, err
	}
	stats := make([]sim.ThreadStats, len(threads))
	for ti, t := range threads {
		stats[ti] = t.Stats()
	}
	final := make(map[string]uint64, len(addr))
	for v, a := range addr {
		final[v] = m.Directory().Committed(a)
	}
	return &Result{
		Cycles:  cycles,
		Seconds: m.Seconds(cycles),
		Threads: stats,
		Final:   final,
		Stats:   m.Stats(),
	}, nil
}

// run serves the machine to completion. A simulation abort — the
// MaxTime watchdog stopping a spin no thread ever satisfies, say —
// comes back as an error: the spec is outside input, so whatever it
// makes the simulator give up on is the caller's to report.
func run(m *sim.Machine) (cycles float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario: simulation aborted: %v", r)
		}
	}()
	return m.Run(), nil
}

// spinPadNops is the padding, in nops, between the polls of a spin op.
const spinPadNops = 4

// compileThread lowers one thread spec to a micro-op program: var
// names resolve to absolute addresses, barrier names to isa values,
// the loop to a counted loop, and spins to poll/pad/backedge
// triplets.
func compileThread(th ThreadSpec, addr map[string]uint64, issueWidth float64) (*prog.Program, error) {
	b := prog.NewBuilder(issueWidth)
	b.Loop(max(th.Loop, 1))
	for _, op := range th.Ops {
		a := prog.Abs(addr[op.Var])
		switch op.Op {
		case "load":
			b.Load(a)
		case "loadacq":
			b.LoadAcquire(a)
		case "loadacqpc":
			b.LoadAcquirePC(a)
		case "store":
			b.Store(a, prog.Imm(op.Value))
		case "storerel":
			b.StoreRelease(a, prog.Imm(op.Value))
		case "fetchadd":
			b.FetchAdd(a, prog.Imm(op.Value))
		case "swap":
			b.Swap(a, prog.Imm(op.Value))
		case "cas":
			b.CompareAndSwap(a, op.Value, op.New)
		case "barrier":
			bar, _ := barrierByName(op.Barrier) // Validate vetted the name
			b.Barrier(bar)
		case "nops":
			b.Nops(op.N)
		case "work":
			b.Work(float64(op.N))
		case "spin_eq":
			b.SpinEQ(a, op.Value, spinPadNops)
		case "spin_ne":
			b.SpinNE(a, op.Value, spinPadNops)
		case "spin_ge":
			b.SpinGE(a, op.Value, spinPadNops)
		}
	}
	b.EndLoop()
	return b.Build()
}
