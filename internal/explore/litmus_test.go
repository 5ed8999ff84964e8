package explore_test

import (
	"testing"

	"armbar/internal/explore"
	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// The classic litmus tests. Each one samples a shape on the
// simulator, with the barrier pairs the literature names it by, and
// checks the outcome that decides it: the forbidden one must never
// appear, and where the paper's Table 1 says an anomaly is allowed it
// must surface. The explorer proves the same verdicts exhaustively
// (TestMinimalPlacements, TestLitmusVariants).

const testRuns = 300

// fenced returns s with its slot barriers replaced by bars, in slot
// order, and the placement that inserts every slot.
func fenced(s *explore.Shape, bars ...isa.Barrier) (*explore.Shape, explore.Placement) {
	for i, b := range bars {
		s.Slots[i].Bar = b
	}
	return s, explore.Naive(s)
}

func sample(s *explore.Shape, pl explore.Placement, mode sim.Mode, runs int, seed int64) *explore.Histogram {
	return explore.Sample(platform.Kunpeng916(), s, pl, mode, runs, seed)
}

func forbid(t *testing.T, h *explore.Histogram, o explore.Outcome) {
	t.Helper()
	if h.Count[o] > 0 {
		t.Errorf("forbidden outcome %q observed:\n%s", o, h)
	}
}

func require(t *testing.T, h *explore.Histogram, o explore.Outcome) {
	t.Helper()
	if h.Count[o] == 0 {
		t.Errorf("outcome %q never observed:\n%s", o, h)
	}
}

// TestTable1MPAllowedUnderWMMForbiddenUnderTSO is the paper's Table 1:
// unfenced message passing shows stale data under WMM, never under
// TSO. The consumer spins on the flag, so every outcome has flag=1.
func TestTable1MPAllowedUnderWMMForbiddenUnderTSO(t *testing.T) {
	wmm := sample(explore.MP(), 0, sim.WMM, testRuns, 1000)
	require(t, wmm, "flag=1 local=0")
	require(t, wmm, "flag=1 local=23")
	forbid(t, sample(explore.MP(), 0, sim.TSO, testRuns, 1000), "flag=1 local=0")
}

func TestMPFixedByBarrierPairs(t *testing.T) {
	for _, pair := range [][2]isa.Barrier{
		{isa.DMBSt, isa.DMBLd},
		{isa.DMBFull, isa.DMBFull},
		{isa.DMBSt, isa.AddrDep},
		{isa.DSBFull, isa.DSBFull},
		{isa.DMBSt, isa.CtrlISB},
	} {
		s, pl := fenced(explore.MP(), pair[0], pair[1])
		forbid(t, sample(s, pl, sim.WMM, testRuns, 2000), "flag=1 local=0")
	}
}

// TestMPAcquireRelease runs message passing with STLR on the flag and
// an LDAR spin, within one cluster. The shape IR has no store-release
// op, so this one is written against the simulator directly.
func TestMPAcquireRelease(t *testing.T) {
	p := platform.Kunpeng916()
	for r := int64(0); r < testRuns; r++ {
		m := sim.New(sim.Config{Plat: p, Mode: sim.WMM, Seed: 4000 + r})
		data, flag := m.Alloc(1), m.Alloc(1)
		var local uint64
		m.Spawn(0, func(th *sim.Thread) {
			th.Store(data, 23)
			th.StoreRelease(flag, 1)
		})
		m.Spawn(4, func(th *sim.Thread) {
			for th.LoadAcquire(flag) != 1 {
			}
			local = th.Load(data)
		})
		m.Run()
		if local != 23 {
			t.Fatalf("seed %d: STLR/LDAR consumer read local=%d, want 23", 4000+r, local)
		}
	}
}

func TestCoherenceWW(t *testing.T) {
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		h := sample(explore.CoWW(), 0, mode, 100, 5000)
		forbid(t, h, "x=1")
		require(t, h, "x=2")
	}
}

func TestStoreBufferingFencedForbidden(t *testing.T) {
	s, pl := fenced(explore.SB(), isa.DSBFull, isa.DSBFull)
	forbid(t, sample(s, pl, sim.WMM, testRuns, 6000), "r0=0 r1=0")
}

// TestLoadBufferingNoThinAir: r0=r1=1 would need a value out of thin
// air, with or without the data dependencies.
func TestLoadBufferingNoThinAir(t *testing.T) {
	for _, pl := range []explore.Placement{0, explore.Naive(explore.LB())} {
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			forbid(t, sample(explore.LB(), pl, mode, 500, 7000), "r0=1 r1=1")
		}
	}
}

// TestCoRRReadCoherence: with the address dependency, two reads of one
// line never go backwards (x=1, then the older x=0).
func TestCoRRReadCoherence(t *testing.T) {
	s, pl := fenced(explore.CoRR())
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		forbid(t, sample(s, pl, mode, 1000, 8000), "r1=1 r2=0")
	}
}

// TestSBResolvedByAtomics: the swaps drain the store buffer, so the
// store-buffering outcome disappears without any barrier.
func TestSBResolvedByAtomics(t *testing.T) {
	forbid(t, sample(explore.SBRMW(), 0, sim.WMM, 500, 9000), "r0=0 r1=0")
}

// TestWRCCausalityWithOrdering: with both readers ordered, T2 cannot
// see T1's y=1 and then miss the x=1 that T1 read first. In the shape
// T1 stores y unconditionally, where the forbidden outcome still
// requires it to have read x=1.
func TestWRCCausalityWithOrdering(t *testing.T) {
	for _, pair := range [][2]isa.Barrier{
		{isa.AddrDep, isa.AddrDep},
		{isa.DMBFull, isa.DMBFull},
		{isa.DMBLd, isa.DMBLd},
	} {
		s, pl := fenced(explore.WRC(), pair[0], pair[1])
		forbid(t, sample(s, pl, sim.WMM, 600, 11000), "t1x=1 t2y=1 t2x=0")
	}
}

// TestIRIWMultiCopyAtomicity: the machine is multi-copy atomic, so
// once each reader's loads are ordered the two readers never see the
// independent writes in opposite orders.
func TestIRIWMultiCopyAtomicity(t *testing.T) {
	for _, order := range []isa.Barrier{isa.AddrDep, isa.DMBLd, isa.DMBFull} {
		s, pl := fenced(explore.IRIW(), order, order)
		forbid(t, sample(s, pl, sim.WMM, 800, 12000), "r1=1 r2=0 r3=1 r4=0")
	}
}

// TestSShapeForbiddenWhenOrdered: with T0's stores fenced and T1's
// store data-dependent on its read of y, T1 seeing y=1 forces its x=1
// to be coherence-last. In the shape T1 stores x unconditionally.
func TestSShapeForbiddenWhenOrdered(t *testing.T) {
	s, pl := fenced(explore.S(), isa.DMBSt, isa.DataDep)
	forbid(t, sample(s, pl, sim.WMM, 800, 20000), "r=1 x=2")
}

// TestTwoPlusTwoWForbiddenWhenFenced: with DMB st in both threads,
// both lines cannot finish with their first writer's value.
func TestTwoPlusTwoWForbiddenWhenFenced(t *testing.T) {
	s, pl := fenced(explore.TwoPlusTwoW(), isa.DMBSt, isa.DMBSt)
	forbid(t, sample(s, pl, sim.WMM, 800, 21000), "x=1 y=1")
}

// TestRShapeForbiddenWhenFenced: with full fences, y finishing 2 (T1's
// store after T0's) while T1 read x=0 is forbidden.
func TestRShapeForbiddenWhenFenced(t *testing.T) {
	s, pl := fenced(explore.R(), isa.DMBFull, isa.DMBFull)
	forbid(t, sample(s, pl, sim.WMM, 800, 23000), "r=0 y=2")
}
