package explore

import (
	"slices"

	"armbar/internal/sim"
)

// DefaultBound is the reorder budget the gates run at. Each
// out-of-order store commit and each stale load view consumes one
// unit; the classic suite's reachable sets are saturated well below
// this (TestBoundSaturation pins that raising it changes nothing).
const DefaultBound = 4

// MaxBound is the largest reorder budget the packed state holds (one
// byte per state).
const MaxBound = 255

// Result is the exact reachable-outcome set of one shape under one
// placement.
type Result struct {
	Shape     string
	Mode      sim.Mode
	Placement Placement
	Bound     int
	Outcomes  []Outcome // sorted, deduplicated
	Forbidden []Outcome // sorted subset matching shape.Forbidden
	States    int       // distinct abstract states visited
	Witness   []string  // first forbidden trace, nil when safe
}

// Safe reports whether no forbidden outcome is reachable.
func (r *Result) Safe() bool { return len(r.Forbidden) == 0 }

// Reaches reports whether the outcome is in the reachable set.
func (r *Result) Reaches(o Outcome) bool {
	for _, x := range r.Outcomes {
		if x == o {
			return true
		}
	}
	return false
}

// Explore enumerates every interleaving of the shape under the
// placement, up to the reorder bound, and records the first forbidden
// trace in DFS order as the witness.
func Explore(s *Shape, pl Placement, mode sim.Mode, bound int) *Result {
	r, _ := exploreReuse(s, pl, mode, bound, true, nil)
	return r
}

// exploreReuse is Explore with engine recycling: re (possibly nil) is
// a retired engine whose slabs are salvaged, and the engine used here
// is returned for the caller's next placement. The path tracing that
// builds the witness runs only when wantWitness is set; lattice walks
// that need only verdicts (Minimize, CheckCase) leave it off.
func exploreReuse(s *Shape, pl Placement, mode sim.Mode, bound int, wantWitness bool, re *fastExplorer) (*Result, *fastExplorer) {
	x := newFastExplorer(s, pl, mode == sim.TSO, bound, wantWitness, re)
	x.pushInit()
	x.run()

	res := &Result{
		Shape:     s.Name,
		Mode:      mode,
		Placement: pl,
		Bound:     bound,
		States:    x.table.n,
		Witness:   x.witness,
	}
	for o := range x.outcomes {
		res.Outcomes = append(res.Outcomes, o)
	}
	for o := range x.forbidden {
		res.Forbidden = append(res.Forbidden, o)
	}
	slices.Sort(res.Outcomes)
	slices.Sort(res.Forbidden)
	return res, x
}
