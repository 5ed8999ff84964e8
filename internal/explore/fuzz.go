package explore

import (
	"fmt"

	"armbar/internal/absmodel"
	"armbar/internal/platform"
	"armbar/internal/runner"
	"armbar/internal/sim"
)

// This file is the three-oracle fuzz driver. Every generated shape
// (gen.go) is checked three independent ways, under both memory
// modes:
//
//   1. the explorer enumerates the exact reachable set of every
//      placement of the shape's slot lattice (operational oracle);
//   2. absmodel predicts each placement's verdict from the shape's
//      ordering clauses and the placed barrier kinds (axiomatic
//      oracle) — the two must agree on every single placement;
//   3. the simulator samples the empty and naive placements and every
//      sampled outcome must lie inside the explorer's reachable set
//      (containment oracle).
//
// The oracles share no machinery: the explorer walks packed abstract
// states, absmodel is a pure ordering algebra, and sim is the
// discrete-event microarchitecture. A shape on which they disagree is
// a genuine counterexample against one of the three models, rendered
// with its full program listing.

// FuzzCase is one generated shape's verdict.
type FuzzCase struct {
	Name     string
	Family   string
	Threads  int
	Slots    int
	Explored int    // placements explored (both modes)
	States   int    // abstract states across the lattice
	Err      string // first oracle disagreement, "" when all agree
}

// FuzzReport aggregates a fuzz batch.
type FuzzReport struct {
	Seed     int64
	N        int
	Runs     int // sim samples per checked placement (0 = skip oracle 3)
	Cases    []FuzzCase
	Explored int
	States   int
	Bad      int // cases with a disagreement
}

// OK reports whether every case agreed across all three oracles.
func (f *FuzzReport) OK() bool { return f.Bad == 0 }

// FuzzShapes generates n shapes from the seed and runs the
// three-oracle check on each, fanning the cases out over the pool
// (each case is checked sequentially; a nil pool runs inline). The
// report is deterministic in (seed, n, runs, platform).
func FuzzShapes(seed int64, n, runs int, p *platform.Platform, pool *runner.Pool) *FuzzReport {
	rep := &FuzzReport{Seed: seed, N: n, Runs: runs}
	rep.Cases = runner.Map(pool, n, func(i int) FuzzCase {
		return CheckCase(GenOne(seed, i), runs, p, seed)
	})
	for i := range rep.Cases {
		rep.Explored += rep.Cases[i].Explored
		rep.States += rep.Cases[i].States
		if rep.Cases[i].Err != "" {
			rep.Bad++
		}
	}
	return rep
}

// CheckCase runs the three oracles over one generated shape: the
// full placement lattice explored and matched against the clause
// model under both modes, plus — when runs > 0 — sim sampling
// containment on the empty and naive placements.
func CheckCase(gs *GenShape, runs int, p *platform.Platform, seed int64) FuzzCase {
	c := FuzzCase{
		Name:    gs.S.Name,
		Family:  gs.Family,
		Threads: len(gs.S.Threads),
		Slots:   len(gs.S.Slots),
	}
	fail := func(format string, args ...any) {
		if c.Err == "" {
			c.Err = fmt.Sprintf(format, args...) + "\n" + gs.Describe()
		}
	}
	var scr *fastExplorer
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		naive := Naive(gs.S)
		for pl := Placement(0); pl <= naive; pl++ {
			r, re := exploreReuse(gs.S, pl, mode, DefaultBound, false, scr)
			scr = re
			c.Explored++
			c.States += r.States
			want := absmodel.GenSafe(gs.Clauses, SlotBarriers(gs.S, pl), mode)
			if r.Safe() != want {
				fail("%s%s under %v: explorer safe=%v, formula predicts %v",
					gs.S.Name, pl.Describe(gs.S), mode, r.Safe(), want)
			}
		}
		if runs > 0 {
			for _, pl := range []Placement{0, naive} {
				if err := Agreement(p, gs.S, pl, mode, runs, seed+int64(gs.Index)); err != nil {
					fail("sim containment: %v", err)
				}
			}
		}
	}
	return c
}
