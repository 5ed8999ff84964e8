package explore

import (
	"testing"

	"armbar/internal/absmodel"
	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// TestLitmusVariants runs the classic shapes with the other barrier
// pairs they are known by: each row is a fresh copy of a shape with
// its slot barriers swapped. In both modes, at the empty and naive
// placements, the explorer's verdict must match absmodel's clauses
// where they cover the shape; IRIW has none, so it must be safe
// wherever each reader's loads are ordered (naive) or the machine is
// TSO, and unsafe otherwise. 300 seeded simulator runs must stay
// inside the explorer's reachable set.
func TestLitmusVariants(t *testing.T) {
	rows := []struct {
		s    *Shape
		bars []isa.Barrier
	}{
		{MP(), []isa.Barrier{isa.DMBFull, isa.DMBFull}},
		{MP(), []isa.Barrier{isa.DMBSt, isa.AddrDep}},
		{MP(), []isa.Barrier{isa.DSBFull, isa.DSBFull}},
		{MP(), []isa.Barrier{isa.DMBSt, isa.CtrlISB}},
		{SB(), []isa.Barrier{isa.DSBFull, isa.DSBFull}},
		{S(), []isa.Barrier{isa.DMBSt, isa.DataDep}},
		{R(), []isa.Barrier{isa.DMBFull, isa.DMBFull}},
		{WRC(), []isa.Barrier{isa.AddrDep, isa.AddrDep}},
		{WRC(), []isa.Barrier{isa.DMBFull, isa.DMBFull}},
		{WRC(), []isa.Barrier{isa.DMBLd, isa.DMBLd}},
		{IRIW(), []isa.Barrier{isa.AddrDep, isa.AddrDep}},
		{IRIW(), []isa.Barrier{isa.DMBLd, isa.DMBLd}},
		{IRIW(), []isa.Barrier{isa.DMBFull, isa.DMBFull}},
	}
	p := platform.Kunpeng916()
	for _, row := range rows {
		s := row.s
		for i, b := range row.bars {
			s.Slots[i].Bar = b
		}
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			for _, pl := range []Placement{0, Naive(s)} {
				got := Explore(s, pl, mode, DefaultBound).Safe()
				want := pl != 0 || mode == sim.TSO
				if absmodel.KnownShape(s.Name) {
					want = absmodel.FenceSafe(s.Name, SlotBarriers(s, pl), mode)
				}
				if got != want {
					t.Errorf("%s(%s)%s under %v: explorer safe=%v, want %v",
						s.Name, s.SlotSummary(), pl.Describe(s), mode, got, want)
				}
				if err := Agreement(p, s, pl, mode, 300, 42); err != nil {
					t.Errorf("%s(%s): %v", s.Name, s.SlotSummary(), err)
				}
			}
		}
	}
}
