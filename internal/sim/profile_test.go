package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkConserved asserts the profile's structural invariant (no gaps:
// every clock advance went through the attribution helpers and every
// thread's shadow clock ended bit-identical to the engine clock) and
// that the per-cause sums reconstruct the engine total up to
// floating-point re-association.
func checkConserved(t *testing.T, p *Profile) {
	t.Helper()
	if !p.Conserved() {
		t.Errorf("profile not conserved: %d gaps, %g unattributed cycles",
			p.Gaps, p.Cycles[CauseUnattributed])
	}
	sum, total := p.Attributed(), p.EngineCycles
	if total == 0 {
		t.Fatal("engine reported zero total cycles")
	}
	if rel := math.Abs(sum-total) / total; rel > 1e-9 {
		t.Errorf("attributed %g vs engine %g: relative error %g beyond fp re-association",
			sum, total, rel)
	}
}

// allEngines lists every way to run the differential workloads.
var allEngines = []engine{engLoop, engSpinUntil, engCompiled}

// TestProfileConservation runs the all-opcode differential workload —
// every load flavor, both store flavors, barriers, atomics, work, and
// a cross-thread spin — under every engine, both memory modes, and the
// acceptance seeds, and requires exact attribution each time.
func TestProfileConservation(t *testing.T) {
	pc := NewProfileCollector()
	SetGlobalProfile(pc)
	defer SetGlobalProfile(nil)
	for _, eng := range allEngines {
		for _, mode := range []Mode{WMM, TSO} {
			for _, seed := range []int64{42, 7} {
				pc.Reset()
				runDifferential(t, mode, seed, eng)
				p := pc.Snapshot()
				if p.Machines != 1 || p.Threads != 2 {
					t.Fatalf("%v %v seed %d: folded %d machines / %d threads, want 1/2",
						eng, mode, seed, p.Machines, p.Threads)
				}
				checkConserved(t, &p)
			}
		}
	}
}

// TestProfileIsHarmless proves enabling attribution changes nothing
// observable: traced event sequence, stats, final memory, and clock are
// byte-identical dark and profiled, on every engine.
func TestProfileIsHarmless(t *testing.T) {
	for _, eng := range allEngines {
		dark := runDifferential(t, WMM, 42, eng)
		pc := NewProfileCollector()
		SetGlobalProfile(pc)
		lit := runDifferential(t, WMM, 42, eng)
		SetGlobalProfile(nil)
		if !reflect.DeepEqual(dark, lit) {
			t.Errorf("%v: profiling changed the simulation (clock %g vs %g)",
				eng, dark.elapsed, lit.elapsed)
		}
	}
}

// TestProfileSpinAttribution: the differential workloads spin on flags
// and counters. Compiled SpinEQ/NE/GE polls land under spin_wait (their
// pads are Work ops), and SpinUntil must attribute exactly as the
// compiled ops do: equal cycles and ops for every cause. The
// hand-written loops are opaque Go control flow, so they attribute no
// spin at all. On TestSpinAnyDifferential's random probe sets, the
// ops and cycles the sweep loop attributes to the load causes beyond
// the SpinAny/SpinSweep run's are exactly that run's spin_wait ops and
// cycles, and every other cause matches.
func TestProfileSpinAttribution(t *testing.T) {
	pc := NewProfileCollector()
	SetGlobalProfile(pc)
	defer SetGlobalProfile(nil)
	profile := func(run func(*testing.T, Mode, int64, engine) diffRun, eng engine) Profile {
		pc.Reset()
		run(t, WMM, 42, eng)
		p := pc.Snapshot()
		checkConserved(t, &p)
		return p
	}
	for _, in := range []struct {
		name string
		run  func(*testing.T, Mode, int64, engine) diffRun
	}{
		{"opcodes", runDifferential},
		{"epoch-barrier", runEpochBarrier},
	} {
		comp := profile(in.run, engCompiled)
		if comp.Ops[CauseSpin] == 0 {
			t.Errorf("%s: compiled engine attributed no spin-wait ops", in.name)
		}
		spin := profile(in.run, engSpinUntil)
		if spin.Cycles != comp.Cycles || spin.Ops != comp.Ops {
			t.Errorf("%s: SpinUntil attribution differs from the compiled spin ops\nspin-until: %v %v\ncompiled:   %v %v",
				in.name, spin.Cycles, spin.Ops, comp.Cycles, comp.Ops)
		}
		if loop := profile(in.run, engLoop); loop.Ops[CauseSpin] != 0 || loop.Cycles[CauseSpin] != 0 {
			t.Errorf("%s: hand-written loops attributed %d spin ops; their spins are invisible by design",
				in.name, loop.Ops[CauseSpin])
		}
	}
	for c := 0; c < 4; c++ {
		plan := newProbePlan(rand.New(rand.NewSource(int64(c))))
		for _, mode := range []Mode{WMM, TSO} {
			pc.Reset()
			runProbeWaits(t, mode, 42, plan, engLoop)
			loop := pc.Snapshot()
			checkConserved(t, &loop)
			pc.Reset()
			runProbeWaits(t, mode, 42, plan, engSpinAny)
			op := pc.Snapshot()
			checkConserved(t, &op)
			checkSpinMoved(t, fmt.Sprintf("probe case %d mode %v", c, mode), loop, op)
		}
	}
}

// checkSpinMoved asserts that op differs from loop only by load-cause
// polls moved to spin_wait.
func checkSpinMoved(t *testing.T, where string, loop, op Profile) {
	t.Helper()
	if loop.Ops[CauseSpin] != 0 {
		t.Errorf("%s: the hand-written loop attributed %d spin ops", where, loop.Ops[CauseSpin])
	}
	if op.Ops[CauseSpin] == 0 {
		t.Errorf("%s: the op attributed no spin ops", where)
	}
	var movedOps uint64
	var movedCycles float64
	for c := Cause(0); c < NumCauses; c++ {
		switch c {
		case CauseIssue, CauseCacheHit, CauseMiss:
			movedOps += loop.Ops[c] - op.Ops[c]
			movedCycles += loop.Cycles[c] - op.Cycles[c]
		case CauseSpin:
		default:
			if loop.Ops[c] != op.Ops[c] || loop.Cycles[c] != op.Cycles[c] {
				t.Errorf("%s: cause %v moved: loop %d ops / %g cycles, op %d / %g",
					where, c, loop.Ops[c], loop.Cycles[c], op.Ops[c], op.Cycles[c])
			}
		}
	}
	if movedOps != op.Ops[CauseSpin] {
		t.Errorf("%s: the loop's load-cause ops exceed the op's by %d, but the op has %d spin_wait ops",
			where, movedOps, op.Ops[CauseSpin])
	}
	if rel := math.Abs(movedCycles-op.Cycles[CauseSpin]) / op.Cycles[CauseSpin]; rel > 1e-9 {
		t.Errorf("%s: %g load-cause cycles moved, but the op has %g spin_wait cycles",
			where, movedCycles, op.Cycles[CauseSpin])
	}
	if !reflect.DeepEqual(loop.Stats, op.Stats) {
		t.Errorf("%s: stats differ", where)
	}
}

// TestProfileCauseBreakdown sanity-checks where the differential
// workload's cycles land: barrier kinds used by the programs, atomics,
// work, and store-buffer retirement must all be nonzero.
func TestProfileCauseBreakdown(t *testing.T) {
	pc := NewProfileCollector()
	SetGlobalProfile(pc)
	defer SetGlobalProfile(nil)
	runDifferential(t, WMM, 42, engCompiled)
	p := pc.Snapshot()
	for _, c := range []Cause{CauseIssue, CauseDMBFull, CauseDMBSt, CauseAtomic, CauseWork, CauseSpin} {
		if p.Ops[c] == 0 {
			t.Errorf("cause %s: no ops attributed", c)
		}
	}
	if p.Ops[CauseUnattributed] != 0 {
		t.Errorf("unattributed ops: %d", p.Ops[CauseUnattributed])
	}
}

// TestProfileDarkMachineReportsGaps: folding a machine that ran with
// profiling disabled must not silently claim conservation — the whole
// run surfaces as gap/unattributed cycles.
func TestProfileDarkMachineReportsGaps(t *testing.T) {
	if globalProfile.Load() != nil {
		t.Fatal("global profile unexpectedly installed")
	}
	m := newTestMachine(WMM, 42)
	a := m.Alloc(1)
	m.Spawn(0, func(th *Thread) { th.Store(a, 1); th.Work(10) })
	m.Run()
	p := m.Profile()
	if p.Conserved() {
		t.Error("dark machine claims conservation")
	}
	if p.Cycles[CauseUnattributed] == 0 {
		t.Error("dark machine's cycles not surfaced as unattributed")
	}
}

// TestProfileReportShape checks the export path: taxonomy order,
// omission of unobserved causes, the name mapping, and the delta
// arithmetic figures uses for per-experiment rollups.
func TestProfileReportShape(t *testing.T) {
	pc := NewProfileCollector()
	SetGlobalProfile(pc)
	defer SetGlobalProfile(nil)
	runDifferential(t, WMM, 42, engCompiled)
	mid := pc.Snapshot()
	runDifferential(t, WMM, 7, engCompiled)
	end := pc.Snapshot()

	r := end.Report()
	if r.Machines != 2 || r.Threads != 4 || r.Gaps != 0 {
		t.Fatalf("report header: %+v", r)
	}
	if len(r.Causes) == 0 {
		t.Fatal("report lists no causes")
	}
	seen := map[string]bool{}
	lastIdx := -1
	for _, cc := range r.Causes {
		if cc.Ops == 0 && cc.Cycles == 0 {
			t.Errorf("cause %s reported with no observations", cc.Cause)
		}
		if seen[cc.Cause] {
			t.Errorf("cause %s reported twice", cc.Cause)
		}
		seen[cc.Cause] = true
		idx := -1
		for c := Cause(0); c < NumCauses; c++ {
			if causeNames[c] == cc.Cause {
				idx = int(c)
			}
		}
		if idx <= lastIdx {
			t.Errorf("causes out of taxonomy order at %s", cc.Cause)
		}
		lastIdx = idx
	}

	delta := end.Sub(mid)
	if delta.Machines != 1 || delta.Threads != 2 {
		t.Fatalf("delta header: %+v", delta)
	}
	checkConserved(t, &delta)
	byCause := delta.CyclesByCause()
	if byCause[CauseWork.String()] <= 0 {
		t.Errorf("delta CyclesByCause work = %g", byCause[CauseWork.String()])
	}
	for name, v := range byCause {
		if v == 0 {
			t.Errorf("CyclesByCause includes zero entry %q", name)
		}
	}
}

// TestProfileFoldsStats checks that the collector sums the machines'
// counters, keeps the maxima of their high-water marks, and that a
// delta recovers one machine's counters with the marks left zero.
func TestProfileFoldsStats(t *testing.T) {
	pc := NewProfileCollector()
	SetGlobalProfile(pc)
	defer SetGlobalProfile(nil)
	first := runDifferential(t, WMM, 42, engCompiled)
	mid := pc.Snapshot()
	second := runDifferential(t, WMM, 7, engCompiled)
	end := pc.Snapshot()

	want := first.stats
	want.add(&second.stats)
	if end.Stats != want {
		t.Errorf("collector stats %+v, want %+v", end.Stats, want)
	}
	if end.Stats.MaxStoreBuf != max(first.stats.MaxStoreBuf, second.stats.MaxStoreBuf) || end.Stats.MaxStoreBuf == 0 {
		t.Errorf("store-buffer high-water mark %d from %d and %d",
			end.Stats.MaxStoreBuf, first.stats.MaxStoreBuf, second.stats.MaxStoreBuf)
	}
	if r := end.Report(); r.Sim != end.Stats {
		t.Errorf("report sim %+v, want %+v", r.Sim, end.Stats)
	}
	want = second.stats
	want.MaxEventHeap, want.MaxStoreBuf = 0, 0
	if d := end.Sub(mid); d.Stats != want {
		t.Errorf("delta stats %+v, want %+v", d.Stats, want)
	}
}

// TestCauseStringTotality keeps the name table total.
func TestCauseStringTotality(t *testing.T) {
	for c := Cause(0); c < NumCauses; c++ {
		if c.String() == "" || c.String() == "invalid" {
			t.Errorf("cause %d has no name", c)
		}
	}
	if Cause(255).String() != "invalid" {
		t.Error("out-of-range cause must stringify as invalid")
	}
}
