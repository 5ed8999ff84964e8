package explore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// This file checks the explorer and the simulator against an
// exhaustive sequential-consistency oracle on small random programs.
// Where barriers or TSO make the model SC, the explorer's reachable
// set must equal the SC set, not merely contain it; the simulator's
// samples of the same programs must stay inside the SC set.

// randomShape returns a random program of loads and of stores of 1-3,
// with a slot holding bar after every op. Each load gets the next
// register. The rng draw order is fixed, so a seed names the same
// programs the SC-conformance tests have always run.
func randomShape(rng *rand.Rand, name string, threads, ops, vars int, bar isa.Barrier) *Shape {
	s := &Shape{
		Name:      name,
		Lines:     vars,
		Threads:   make([][]SOp, threads),
		Forbidden: func(_, _ []uint64) bool { return false },
	}
	for v := 0; v < vars; v++ {
		s.LineNames = append(s.LineNames, fmt.Sprintf("x%d", v))
	}
	for t := range s.Threads {
		for i := 0; i < ops; i++ {
			if rng.Intn(2) == 0 {
				s.Threads[t] = append(s.Threads[t], load(rng.Intn(vars), len(s.Regs)))
				s.Regs = append(s.Regs, fmt.Sprintf("r%d", len(s.Regs)))
			} else {
				s.Threads[t] = append(s.Threads[t], store(rng.Intn(vars), uint64(rng.Intn(3)+1)))
			}
			s.Slots = append(s.Slots, Slot{Thread: t, At: i + 1, Bar: bar, Label: fmt.Sprintf("t%d.%d", t, i)})
		}
	}
	return s
}

// randomShapes returns the first n programs of one seed.
func randomShapes(seed int64, n, threads, ops, vars int, bar isa.Barrier) []*Shape {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Shape, n)
	for i := range out {
		out[i] = randomShape(rng, fmt.Sprintf("rand%d/%dx%dx%d#%d", seed, threads, ops, vars, i), threads, ops, vars, bar)
	}
	return out
}

// scOutcomes enumerates every interleaving of the shape's threads over
// one shared memory and returns the sequentially consistent outcomes,
// rendered through Shape.Outcome. Barriers are no-ops: an interleaving
// already orders everything, so the set holds for every placement.
func scOutcomes(s *Shape) map[Outcome]bool {
	out := make(map[Outcome]bool)
	pcs := make([]int, len(s.Threads))
	mem := make([]uint64, s.Lines)
	copy(mem, s.Init)
	regs := make([]uint64, len(s.Regs))

	var walk func()
	walk = func() {
		done := true
		for t, th := range s.Threads {
			if pcs[t] == len(th) {
				continue
			}
			done = false
			op := th[pcs[t]]
			pcs[t]++
			switch op.Code {
			case SLoad:
				if op.Obs >= 0 {
					regs[op.Obs] = mem[op.Addr]
				}
				walk()
			case SStore, SSwap:
				old := mem[op.Addr]
				if op.Obs >= 0 {
					regs[op.Obs] = old
				}
				mem[op.Addr] = op.Val
				walk()
				mem[op.Addr] = old
			case SBarrier:
				walk()
			}
			pcs[t]--
		}
		if done {
			out[s.Outcome(regs, mem)] = true
		}
	}
	walk()
	return out
}

func sortedOutcomes(set map[Outcome]bool) []Outcome {
	out := make([]Outcome, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// exploredVsSC explores the placed shape and returns the reachable
// outcomes outside the SC set and the SC outcomes it misses.
func exploredVsSC(s *Shape, pl Placement, mode sim.Mode, sc map[Outcome]bool) (extra, missing []Outcome) {
	r := Explore(s, pl, mode, DefaultBound)
	for _, o := range r.Outcomes {
		if !sc[o] {
			extra = append(extra, o)
		}
	}
	for _, o := range sortedOutcomes(sc) {
		if !r.Reaches(o) {
			missing = append(missing, o)
		}
	}
	return extra, missing
}

// requireSC fails unless the explorer's set for the placed shape
// equals the SC set.
func requireSC(t *testing.T, s *Shape, pl Placement, mode sim.Mode, sc map[Outcome]bool) {
	t.Helper()
	if extra, missing := exploredVsSC(s, pl, mode, sc); extra != nil || missing != nil {
		t.Errorf("%s%s under %v: explorer reaches %q beyond SC and misses SC outcomes %q",
			s.Name, pl.Describe(s), mode, extra, missing)
	}
}

// TestSCOracleKnownProgram: store buffering under SC forbids both
// loads reading 0 and allows the other three combinations.
func TestSCOracleKnownProgram(t *testing.T) {
	sc := scOutcomes(SB())
	if sc["r0=0 r1=0"] {
		t.Fatalf("SC oracle allowed the forbidden SB outcome: %q", sortedOutcomes(sc))
	}
	for _, want := range []Outcome{"r0=1 r1=1", "r0=0 r1=1", "r0=1 r1=0"} {
		if !sc[want] {
			t.Errorf("SC oracle missing allowed outcome %q: %q", want, sortedOutcomes(sc))
		}
	}
}

// TestFencedExplorerEqualsSC: with DMB full after every op, the
// explorer reaches exactly the SC outcomes in WMM and in TSO.
func TestFencedExplorerEqualsSC(t *testing.T) {
	progs := append(randomShapes(99, 20, 3, 3, 2, isa.DMBFull), randomShapes(7, 10, 2, 6, 3, isa.DMBFull)...)
	for _, s := range progs {
		sc := scOutcomes(s)
		for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
			requireSC(t, s, Naive(s), mode, sc)
		}
	}
}

// singleAddress are the one-variable program families of the
// per-location coherence checks; the first is the one the simulator
// test samples.
func singleAddress() [][]*Shape {
	return [][]*Shape{
		randomShapes(31, 20, 3, 4, 1, isa.AddrDep),
		randomShapes(31, 20, 2, 5, 1, isa.AddrDep),
		randomShapes(31, 20, 3, 3, 1, isa.AddrDep),
	}
}

// TestSingleAddressExplorerEqualsSC: over one variable, unfenced TSO
// and WMM with ADDR DEP after every op reach exactly the SC outcomes.
// Unfenced WMM reaches every SC outcome and more: a later load of the
// line may reuse the stale view an earlier load raced past, as in
// CoRR. That difference is a knownGaps row, stale once no program
// shows it. Exploring the 3x4x1 family in WMM takes seconds, so it is
// checked in TSO only.
func TestSingleAddressExplorerEqualsSC(t *testing.T) {
	if knownGapIndex(singleAddressGap, sim.WMM, "") < 0 {
		t.Fatalf("knownGaps has no %q row", singleAddressGap)
	}
	differ := 0
	for fi, family := range singleAddress() {
		for _, s := range family {
			sc := scOutcomes(s)
			requireSC(t, s, 0, sim.TSO, sc)
			if fi == 0 {
				continue
			}
			requireSC(t, s, Naive(s), sim.WMM, sc)
			extra, missing := exploredVsSC(s, 0, sim.WMM, sc)
			if missing != nil {
				t.Errorf("%s{} under WMM: explorer misses SC outcomes %q", s.Name, missing)
			}
			if extra != nil {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Errorf("stale knownGaps row %q: unfenced WMM now equals SC on every single-address program", singleAddressGap)
	}
	t.Logf("unfenced WMM differs from SC on %d single-address programs", differ)
}

// sampleWithinSC samples the placed shape on the simulator and fails
// on the first outcome outside the SC set.
func sampleWithinSC(t *testing.T, p *platform.Platform, s *Shape, pl Placement, mode sim.Mode, runs int, base int64, sc map[Outcome]bool) {
	t.Helper()
	s.Cores, _ = p.Sys.InterleaveCores(len(s.Threads))
	for o := range Sample(p, s, pl, mode, runs, base).Count {
		if !sc[o] {
			t.Fatalf("%s%s on %s under %v: sampled %q, not an SC outcome",
				s.Name, pl.Describe(s), p.Name, mode, o)
		}
	}
}

// TestFencedSimConformsToSC: random fully fenced programs, on both
// platforms and in both modes, sample only SC outcomes.
func TestFencedSimConformsToSC(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	for trial, s := range randomShapes(99, 25, 3, 4, 2, isa.DMBFull) {
		sc := scOutcomes(s)
		for _, p := range []*platform.Platform{platform.Kunpeng916(), platform.Kirin960()} {
			for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
				sampleWithinSC(t, p, s, Naive(s), mode, 8, int64(trial)*100, sc)
			}
		}
	}
}

// TestFencedSimConformsToSCBiggerPrograms: longer fully fenced
// programs over three variables sample only SC outcomes.
func TestFencedSimConformsToSCBiggerPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	for trial, s := range randomShapes(7, 10, 2, 6, 3, isa.DMBFull) {
		sampleWithinSC(t, platform.Kunpeng916(), s, Naive(s), sim.WMM, 12, int64(trial)*977, scOutcomes(s))
	}
}

// TestSingleAddressCoherenceUnfenced: the simulator samples only SC
// outcomes of unfenced one-variable programs. The explorer admits more
// (TestSingleAddressExplorerEqualsSC), so this rests on sampling alone.
func TestSingleAddressCoherenceUnfenced(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling gate skipped in -short")
	}
	for trial, s := range singleAddress()[0] {
		sampleWithinSC(t, platform.Kunpeng916(), s, 0, sim.WMM, 10, int64(trial*37), scOutcomes(s))
	}
}
