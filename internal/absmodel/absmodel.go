// Package absmodel implements the paper's abstracted models
// (Algorithm 1): a loop that performs up to two memory operations on
// ping-ponging cache lines, separated by a configurable number of nops,
// with an order-preserving approach inserted either strictly after the
// first memory operation (BARRIER_LOC_1) or after the nops
// (BARRIER_LOC_2). Two threads bound to configurable cores execute the
// loop over the same lines so the accesses are remote memory
// references, exactly as in the paper's §3.2 setup.
//
// The models drive Figures 2, 3, 4 and 5.
package absmodel

import (
	"fmt"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// MemPattern selects which memory operations surround the barrier.
type MemPattern int

const (
	// NoMem removes all memory operations (Figure 2: intrinsic
	// overhead).
	NoMem MemPattern = iota
	// TwoStores puts a store before and after the barrier (Figure 3:
	// order-preserving with the bus involved).
	TwoStores
	// LoadStore puts a load before and a store after the barrier
	// (Figure 5: order-preserving without the bus involved).
	LoadStore
	// LoadLoad puts loads on both sides of the barrier, the Table-3
	// load->loads row (an extension past the paper's three patterns).
	LoadLoad
)

func (p MemPattern) String() string {
	switch p {
	case NoMem:
		return "no-mem"
	case TwoStores:
		return "two-stores"
	case LoadStore:
		return "load-store"
	case LoadLoad:
		return "load-load"
	default:
		return fmt.Sprintf("MemPattern(%d)", int(p))
	}
}

// Location says where the barrier sits relative to the nop padding.
type Location int

const (
	// Loc1 is BARRIER_LOC_1: strictly after the first memory operation.
	Loc1 Location = iota + 1
	// Loc2 is BARRIER_LOC_2: after the nops, just before the second
	// memory operation.
	Loc2
)

// Variant is one legend entry of the paper's figures: an
// order-preserving approach plus its insertion point. For operand
// barriers (LDAR, STLR) and dependencies the location is implicit
// (they attach to the access itself) and Loc is ignored.
type Variant struct {
	Barrier isa.Barrier
	Loc     Location
}

// Name renders the paper's legend label ("DMB full-1", "STLR", ...).
func (v Variant) Name() string {
	if v.Barrier == isa.None || v.Barrier.IsDependency() ||
		v.Barrier == isa.LDAR || v.Barrier == isa.STLR {
		return v.Barrier.String()
	}
	return fmt.Sprintf("%s-%d", v.Barrier, int(v.Loc))
}

// Config describes one run of the abstracted model.
type Config struct {
	Plat    *platform.Platform
	Cores   [2]topo.CoreID // where the two threads are bound
	Pattern MemPattern
	Variant Variant
	Nops    int
	Iters   int // loop iterations per thread
	Lines   int // working-set lines per operand array (default 16)
	Seed    int64
}

// Result is the outcome of one model run.
type Result struct {
	Config  Config
	Cycles  float64
	Loops   int // total loops executed by both threads
	Stats   sim.Stats
	Elapsed float64 // seconds at the platform frequency
}

// Throughput returns loops per second across both threads.
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Loops) / r.Elapsed
}

// Run executes the abstracted model and returns its result.
func Run(cfg Config) Result {
	if cfg.Iters == 0 {
		cfg.Iters = 1500
	}
	if cfg.Lines == 0 {
		cfg.Lines = 16
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	arrA := m.Alloc(cfg.Lines)
	arrB := m.Alloc(cfg.Lines)
	// Both threads execute the same op sequence over the same operand
	// arrays: one program, two threads.
	p := compile(cfg, arrA, arrB)
	for i := 0; i < 2; i++ {
		m.SpawnProgram(cfg.Cores[i], p)
	}
	cycles := m.Run()
	return Result{
		Config:  cfg,
		Cycles:  cycles,
		Loops:   2 * cfg.Iters,
		Stats:   m.Stats(),
		Elapsed: m.Seconds(cycles),
	}
}

// compile lowers Algorithm 1 to a micro-op program: both threads walk
// the same line arrays so the target lines keep transferring between
// the cores. The iteration's line offsets become address rings indexed
// by the loop counter, the stored iteration index becomes a counter
// value, and nop padding becomes pre-scaled work cycles.
func compile(cfg Config, arrA, arrB uint64) *prog.Program {
	v := cfg.Variant
	b := prog.NewBuilder(cfg.Plat.Cost.IssueWidth)
	ringA := make([]uint64, cfg.Lines)
	ringB := make([]uint64, cfg.Lines)
	for k := 0; k < cfg.Lines; k++ {
		ringA[k] = arrA + uint64(k)*64
		ringB[k] = arrB + uint64(k)*64
	}
	tabA := b.Table(ringA)
	tabB := b.Table(ringB)

	i := b.Loop(cfg.Iters)
	a, bb := prog.Ring(tabA, i), prog.Ring(tabB, i)

	// add x0/x1 (address bumps): two trivial ALU ops.
	b.Nops(2)

	// First memory operation (line 4 of Algorithm 1).
	switch cfg.Pattern {
	case TwoStores:
		b.Store(a, prog.Counter(i))
	case LoadStore, LoadLoad:
		switch v.Barrier {
		case isa.LDAR:
			b.LoadAcquire(a)
		case isa.LDAPR:
			b.LoadAcquirePC(a)
		default:
			b.Load(a)
		}
	}

	// BARRIER_LOC_1 (line 5) — dependencies attach to the access, so
	// they execute here too.
	if at1 := v.Loc == Loc1 || v.Barrier.IsDependency(); at1 && standalone(v.Barrier) {
		b.Barrier(v.Barrier)
	}

	// NOPs (line 6).
	b.Nops(cfg.Nops)

	// BARRIER_LOC_2 (line 7).
	if v.Loc == Loc2 && standalone(v.Barrier) {
		b.Barrier(v.Barrier)
	}

	// Second memory operation (line 8).
	switch cfg.Pattern {
	case TwoStores, LoadStore:
		if v.Barrier == isa.STLR {
			b.StoreRelease(bb, prog.Counter(i))
		} else {
			b.Store(bb, prog.Counter(i))
		}
	case LoadLoad:
		b.Load(bb)
	}

	// Loop bookkeeping (lines 9-10): add + cmp.
	b.Nops(2)
	b.EndLoop()
	return b.MustBuild()
}

// standalone reports whether the barrier is inserted as its own
// instruction (everything except the operand barriers and None).
func standalone(b isa.Barrier) bool {
	switch b {
	case isa.None, isa.LDAR, isa.STLR:
		return false
	}
	return true
}

// Figure2Variants are the legend entries of Figure 2 (intrinsic
// overhead; operand barriers excluded since there are no operands).
func Figure2Variants() []Variant {
	return []Variant{
		{Barrier: isa.None},
		{Barrier: isa.DMBFull, Loc: Loc2},
		{Barrier: isa.DMBLd, Loc: Loc2},
		{Barrier: isa.DMBSt, Loc: Loc2},
		{Barrier: isa.DSBFull, Loc: Loc2},
		{Barrier: isa.DSBLd, Loc: Loc2},
		{Barrier: isa.DSBSt, Loc: Loc2},
		{Barrier: isa.ISB, Loc: Loc2},
	}
}

// Figure3Variants are the legend entries of Figure 3 (two stores).
func Figure3Variants() []Variant {
	return []Variant{
		{Barrier: isa.None},
		{Barrier: isa.DMBFull, Loc: Loc1},
		{Barrier: isa.DMBFull, Loc: Loc2},
		{Barrier: isa.DMBSt, Loc: Loc1},
		{Barrier: isa.DMBSt, Loc: Loc2},
		{Barrier: isa.DSBFull, Loc: Loc1},
		{Barrier: isa.DSBFull, Loc: Loc2},
		{Barrier: isa.DSBSt, Loc: Loc1},
		{Barrier: isa.DSBSt, Loc: Loc2},
		{Barrier: isa.STLR},
	}
}

// Figure5Variants are the legend entries of Figure 5 (load + store).
func Figure5Variants() []Variant {
	return []Variant{
		{Barrier: isa.None},
		{Barrier: isa.DMBFull, Loc: Loc1},
		{Barrier: isa.DMBFull, Loc: Loc2},
		{Barrier: isa.DMBLd, Loc: Loc1},
		{Barrier: isa.DMBLd, Loc: Loc2},
		{Barrier: isa.DSBFull, Loc: Loc1},
		{Barrier: isa.DSBFull, Loc: Loc2},
		{Barrier: isa.DSBLd, Loc: Loc1},
		{Barrier: isa.DSBLd, Loc: Loc2},
		{Barrier: isa.LDAR},
		{Barrier: isa.STLR},
		{Barrier: isa.CtrlISB},
		{Barrier: isa.CtrlDep},
		{Barrier: isa.DataDep},
		{Barrier: isa.AddrDep},
	}
}

// Binding names a standard thread placement from the paper.
type Binding struct {
	Label string
	Cores [2]topo.CoreID
}

// Bindings returns the paper's placements for a platform: same NUMA
// node and cross node for the server; big-cluster cores for the mobile
// SoCs; plain different cores for the Pi.
func Bindings(p *platform.Platform) []Binding {
	if p.Sys.NumNodes() > 1 {
		n0 := p.Sys.NodeCores(0)
		n1 := p.Sys.NodeCores(1)
		return []Binding{
			{Label: "Same Node", Cores: [2]topo.CoreID{n0[0], n0[4]}},
			{Label: "Cross Nodes", Cores: [2]topo.CoreID{n0[0], n1[0]}},
		}
	}
	big := p.Sys.CoresOfClass(topo.Big)
	return []Binding{{Label: "Different Cores", Cores: [2]topo.CoreID{big[0], big[1]}}}
}

// TippingPoint searches nop counts for the paper's Figure-4 situation:
// the smallest padding at which DMB full-2 reaches at least frac of the
// no-barrier throughput. It returns that nop count and the throughput
// ratio DMB full-1 : DMB full-2 there (≈ 0.5 per Obs 2).
func TippingPoint(p *platform.Platform, cores [2]topo.CoreID, frac float64, seed int64) (nops int, ratio float64) {
	base := func(n int, v Variant) float64 {
		r := Run(Config{Plat: p, Cores: cores, Pattern: TwoStores, Variant: v, Nops: n, Seed: seed})
		return r.Throughput()
	}
	for n := 25; n <= 4000; n = n * 5 / 4 {
		none := base(n, Variant{Barrier: isa.None})
		full2 := base(n, Variant{Barrier: isa.DMBFull, Loc: Loc2})
		if full2 >= frac*none {
			full1 := base(n, Variant{Barrier: isa.DMBFull, Loc: Loc1})
			return n, full1 / full2
		}
	}
	return -1, 0
}
