package figures_test

import (
	"reflect"
	"testing"

	"armbar/internal/figures"
	"armbar/internal/runner"
	"armbar/internal/sim"
)

func TestRunInstrumented(t *testing.T) {
	exp, ok := figures.ByName("table3")
	if !ok {
		t.Fatal("table3 missing from registry")
	}
	p := runner.New(2)
	defer p.Close()
	o := figures.Options{Quick: true, Pool: p}
	tables, run := figures.RunInstrumented(exp, o, nil)
	if len(tables) != exp.Tables {
		t.Fatalf("instrumentation changed table count: %d vs %d", len(tables), exp.Tables)
	}
	if run.Name != "table3" || run.Tables != exp.Tables {
		t.Fatalf("bad record: %+v", run)
	}
	if run.OutputBytes == 0 || run.WallSeconds < 0 {
		t.Fatalf("empty measurements: %+v", run)
	}
	if run.Sim != nil || run.ProfileCycles != nil {
		t.Fatalf("run without a collector reported a profile: %+v", run)
	}

	// The same experiment inline must measure the same output.
	_, run2 := figures.RunInstrumented(exp, figures.Options{Quick: true}, nil)
	if run2.OutputBytes != run.OutputBytes {
		t.Fatalf("output bytes differ between runs: %d vs %d", run2.OutputBytes, run.OutputBytes)
	}
	if run2.Cells != 0 {
		t.Fatalf("inline run reported %d pool cells, want 0", run2.Cells)
	}
}

func TestRunInstrumentedCountsCells(t *testing.T) {
	exp, _ := figures.ByName("table1")
	p := runner.New(2)
	defer p.Close()
	_, run := figures.RunInstrumented(exp, figures.Options{Quick: true, Pool: p}, nil)
	if run.Cells == 0 {
		t.Fatal("pooled run must attribute its cells")
	}
}

// TestRunInstrumentedReportsProfileShare: given the installed
// collector, the record carries the experiment's cycle attribution and
// machine counters, the collector's delta across the experiment.
func TestRunInstrumentedReportsProfileShare(t *testing.T) {
	exp, _ := figures.ByName("table1")
	pc := sim.NewProfileCollector()
	sim.SetGlobalProfile(pc)
	defer sim.SetGlobalProfile(nil)
	_, run := figures.RunInstrumented(exp, figures.Options{Quick: true}, pc)

	// The collector started empty, so the experiment's share is all of
	// it, less the high-water marks a delta cannot carry.
	whole := pc.Snapshot()
	if whole.Machines == 0 || whole.Stats.Loads == 0 {
		t.Fatalf("table1 folded no profiled machines: %+v", whole)
	}
	want := whole.Stats
	want.MaxEventHeap, want.MaxStoreBuf = 0, 0
	if run.Sim == nil || *run.Sim != want {
		t.Fatalf("record sim = %+v, want %+v", run.Sim, want)
	}
	if !reflect.DeepEqual(run.ProfileCycles, whole.CyclesByCause()) {
		t.Fatalf("record profile_cycles = %v, collector %v", run.ProfileCycles, whole.CyclesByCause())
	}
}
