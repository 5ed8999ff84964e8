package figures

import (
	"armbar/internal/explore"
	"armbar/internal/platform"
	"armbar/internal/report"
	"armbar/internal/sim"
)

// FenceMin is the mechanical counterpart of the paper's hand
// derivation: for every litmus shape under both memory models, the
// reorder-bounded explorer searches the barrier-placement lattice for
// all minimal safe placements, the verdicts are cross-checked against
// absmodel's closed-form fence requirements over the whole lattice,
// and the simulator samples the empty, naive, and minimal placements
// to confirm it observes nothing the explorer cannot reach. The chan
// rows reproduce the Pilot removal: the availability DMB drops out of
// the minimal set while publish and consume stay.
func FenceMin(o Options) *report.Table {
	runs := o.scale(200, 50)
	shapes := explore.All()
	modes := []sim.Mode{sim.WMM, sim.TSO}

	type cell struct {
		Naive   bool
		Minimal string
		States  int
		Model   bool
		Sim     string
	}
	vals := cellGrid(o, len(shapes), len(modes), func(r, c int) cell {
		s, mode := shapes[r], modes[c]
		rep := explore.Minimize(s, mode, explore.DefaultBound)
		out := cell{
			Naive:   rep.NaiveSafe,
			Minimal: rep.MinimalDescribe(s),
			States:  rep.States,
			Model:   explore.ModelAgrees(s, mode, explore.DefaultBound),
			Sim:     "agree",
		}
		p := platform.Kunpeng916()
		pls := map[explore.Placement]bool{0: true, explore.Naive(s): true}
		for _, pl := range rep.Minimal {
			pls[pl] = true
		}
		// Map-range feeding only an error check, not output order.
		for pl := range pls {
			if err := explore.Agreement(p, s, pl, mode, runs, o.seed()); err != nil {
				out.Sim = "DISAGREE"
			}
		}
		return out
	})

	t := report.New("Extension: mechanical fence minimization (explorer vs model vs simulator)",
		"Shape", "Mode", "Slots", "NaiveSafe", "Minimal", "States", "Model", "Sim")
	for r, s := range shapes {
		for c, mode := range modes {
			v := vals[r][c]
			t.Row(s.Name, mode.String(), len(s.Slots), v.Naive, v.Minimal, v.States, v.Model, v.Sim)
		}
	}
	t.Note = "Minimal lists every minimal safe barrier placement; Model checks the closed-form absmodel verdict across the whole lattice; Sim samples empty/naive/minimal placements against explorer reachability; chan's minimal set {publish consume} is the Pilot removal, machine-derived"
	return t
}
