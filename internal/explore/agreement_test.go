package explore

import (
	"reflect"
	"testing"

	"armbar/internal/absmodel"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// TestFormulaAgreement checks every placement of every shape under
// both modes against absmodel's closed-form fence requirements: the
// operational explorer and the axiomatic formula must give the same
// verdict everywhere on the lattice. Along the way the traced engine
// (Explore) must match the untraced one on a recycled engine (the
// Minimize path) state for state: tracing is bookkeeping outside the
// state identity.
func TestFormulaAgreement(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			if !absmodel.KnownShape(s.Name) {
				t.Errorf("%s: no closed-form fence requirements", s.Name)
				continue
			}
			var scr *fastExplorer
			for pl := Placement(0); pl <= Naive(s); pl++ {
				traced := Explore(s, pl, mode, DefaultBound)
				plain, re := exploreReuse(s, pl, mode, DefaultBound, false, scr)
				scr = re
				if traced.States != plain.States ||
					!reflect.DeepEqual(traced.Outcomes, plain.Outcomes) ||
					!reflect.DeepEqual(traced.Forbidden, plain.Forbidden) {
					t.Errorf("%s%s under %v: traced run (%d states, %v, forbidden %v) differs from untraced (%d states, %v, forbidden %v)",
						s.Name, pl.Describe(s), mode, traced.States, traced.Outcomes, traced.Forbidden,
						plain.States, plain.Outcomes, plain.Forbidden)
				}
				got := traced.Safe()
				want := absmodel.FenceSafe(s.Name, SlotBarriers(s, pl), mode)
				if got != want {
					t.Errorf("%s%s under %v: explorer safe=%v, formula safe=%v",
						s.Name, pl.Describe(s), mode, got, want)
				}
			}
		}
	}
}

// TestSimAgreement is the simulator gate: at the empty, naive, and
// every minimal placement of every shape, sampled outcomes must be a
// subset of the explorer's reachable set (which also proves safe
// placements never sample a forbidden outcome).
func TestSimAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	p := platform.Kunpeng916()
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			pls := map[Placement]bool{0: true, Naive(s): true}
			for _, pl := range expectedMinimal[mode][s.Name] {
				pls[pl] = true
			}
			for pl := range pls {
				if err := Agreement(p, s, pl, mode, 200, 42); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestPinnedAnomalies pins that the gate has teeth: at these
// placements the simulator demonstrably samples a forbidden outcome
// under WMM, so the subset check is comparing against non-trivial
// reachable sets, not vacuously passing on clean histograms.
func TestPinnedAnomalies(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	p := platform.Kunpeng916()
	cases := []struct {
		shape *Shape
		pl    Placement
	}{
		{MP(), 0},
		{SB(), 0},
		{R(), 0},
		{TwoPlusTwoW(), 0},
		{Chan(), 0},
		{Chan(), 0b001}, // avail only: publish and consume both missing
	}
	for _, c := range cases {
		r := Explore(c.shape, c.pl, sim.WMM, DefaultBound)
		if r.Safe() {
			t.Errorf("%s%s: expected unsafe under WMM", c.shape.Name, c.pl.Describe(c.shape))
			continue
		}
		res := Sample(p, c.shape, c.pl, sim.WMM, 400, 42)
		seen := false
		for _, f := range r.Forbidden {
			if res.Count[f] > 0 {
				seen = true
				break
			}
		}
		if !seen {
			t.Errorf("%s%s: 400 runs sampled no forbidden outcome (explorer reaches %v)",
				c.shape.Name, c.pl.Describe(c.shape), r.Forbidden)
		}
	}
}

// TestCompiledParityShapes runs every shape at its naive placement
// under both engines and requires identical final memory and
// operation counts seed by seed.
func TestCompiledParityShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	p := platform.Kunpeng916()
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, s := range All() {
			if err := CompiledParity(p, s, Naive(s), mode, 50, 42); err != nil {
				t.Error(err)
			}
		}
	}
}
