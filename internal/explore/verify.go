package explore

import (
	"fmt"

	"armbar/internal/absmodel"
	"armbar/internal/sim"
)

// MinReport is the result of searching a shape's placement lattice.
type MinReport struct {
	Shape     string
	Mode      sim.Mode
	Bound     int
	NaiveSafe bool        // the full placement admits no forbidden outcome
	Minimal   []Placement // all minimal safe placements, sorted
	Explored  int         // placements actually explored
	Pruned    int         // placements skipped by monotone pruning
	States    int         // abstract states across all explorations
}

// MinimalDescribe renders the minimal set deterministically, e.g.
// "{push pull}" or "{t0} | {t1}".
func (m *MinReport) MinimalDescribe(s *Shape) string {
	if len(m.Minimal) == 0 {
		return "none"
	}
	out := ""
	for i, pl := range m.Minimal {
		if i > 0 {
			out += " | "
		}
		out += pl.Describe(s)
	}
	return out
}

// Minimize searches the full placement lattice for all minimal safe
// placements. Barriers only restrict behavior, so safety is monotone:
// an unsafe placement makes every subset unsafe. The lattice is walked
// by descending slot count, so any candidate contained in a known
// unsafe placement is pruned without exploration; a safe placement is
// minimal iff no safe strict subset exists, which the walk has fully
// classified by the time it finishes. Lattice points are explored
// untraced on one recycled engine: Minimize only needs verdicts.
func Minimize(s *Shape, mode sim.Mode, bound int) *MinReport {
	rep := &MinReport{Shape: s.Name, Mode: mode, Bound: bound}
	naive := Naive(s)

	var order []Placement
	for pl := Placement(0); pl <= naive; pl++ {
		order = append(order, pl)
	}
	sortPlacements(order)
	// Descending slot count; sortPlacements gives ascending.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	var unsafe []Placement
	var scr *fastExplorer
	safe := make(map[Placement]bool)
	for _, pl := range order {
		pruned := false
		for _, u := range unsafe {
			if pl.SubsetOf(u) {
				pruned = true
				break
			}
		}
		if pruned {
			rep.Pruned++
			continue
		}
		r, re := exploreReuse(s, pl, mode, bound, false, scr)
		scr = re
		rep.Explored++
		rep.States += r.States
		if r.Safe() {
			safe[pl] = true
			if pl == naive {
				rep.NaiveSafe = true
			}
		} else {
			unsafe = append(unsafe, pl)
		}
	}

	for pl := range safe {
		minimal := true
		for sub := range safe {
			if sub != pl && sub.SubsetOf(pl) {
				minimal = false
				break
			}
		}
		if minimal {
			rep.Minimal = append(rep.Minimal, pl)
		}
	}
	sortPlacements(rep.Minimal)
	return rep
}

// ModelAgrees checks every placement of the shape's lattice against
// absmodel's closed-form fence requirements: the explorer's verdict
// must match the formula oracle everywhere. Lattice points are
// explored untraced on one recycled engine.
func ModelAgrees(s *Shape, mode sim.Mode, bound int) bool {
	if !absmodel.KnownShape(s.Name) {
		return false
	}
	var scr *fastExplorer
	for pl := Placement(0); pl <= Naive(s); pl++ {
		r, re := exploreReuse(s, pl, mode, bound, false, scr)
		scr = re
		if r.Safe() != absmodel.FenceSafe(s.Name, SlotBarriers(s, pl), mode) {
			return false
		}
	}
	return true
}

// PilotStep is one machine-checked claim of the Pilot transformation.
type PilotStep struct {
	Name       string // e.g. "chan - publish"
	Shape      string
	Placement  Placement
	Safe       bool
	ExpectSafe bool
	Outcomes   int
	Witness    []string // first forbidden trace when unsafe
}

// OK reports whether the verdict matches the expectation.
func (p *PilotStep) OK() bool { return p.Safe == p.ExpectSafe }

// PilotReport is the full machine-check of the paper's Pilot
// derivation.
type PilotReport struct {
	Mode  sim.Mode
	Bound int
	Steps []PilotStep
}

// OK reports whether every step matched its expectation.
func (p *PilotReport) OK() bool {
	for i := range p.Steps {
		if !p.Steps[i].OK() {
			return false
		}
	}
	return true
}

// PilotCheck machine-checks the paper's Pilot transformation on the
// one-way channel:
//
//  1. the naive fully-fenced channel is safe;
//  2. dropping the load-side DMB after the availability check stays
//     safe — that ordering (load before later stores) is free under
//     in-order issue, which is the removal the paper derives by hand;
//  3. dropping either remaining barrier (publish or consume) is
//     unsafe — a stale payload read becomes reachable;
//  4. the Pilot word program — signal and payload piggybacked into one
//     single-copy-atomic word — is safe with no barriers at all.
func PilotCheck(mode sim.Mode, bound int) *PilotReport {
	rep := &PilotReport{Mode: mode, Bound: bound}
	ch := Chan()
	naive := Naive(ch)

	add := func(name string, s *Shape, pl Placement, expectSafe bool) {
		r := Explore(s, pl, mode, bound)
		rep.Steps = append(rep.Steps, PilotStep{
			Name:       name,
			Shape:      s.Name,
			Placement:  pl,
			Safe:       r.Safe(),
			ExpectSafe: expectSafe,
			Outcomes:   len(r.Outcomes),
			Witness:    r.Witness,
		})
	}

	add("chan naive", ch, naive, true)
	for i, sl := range ch.Slots {
		// Only the availability barrier (the load-side DMB the paper
		// removes first) is redundant; every other removal must be
		// flagged. Under TSO every removal is safe: the FIFO buffer
		// supplies both remaining orderings.
		expect := sl.Label == "avail" || mode == sim.TSO
		add(fmt.Sprintf("chan - %s", sl.Label), ch, naive.Without(i), expect)
	}
	add("pilot word", Pilot(), 0, true)
	return rep
}
