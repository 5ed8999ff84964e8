package perfgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func snap() *Snapshot {
	return &Snapshot{
		Benchmarks: []Bench{
			{Name: "BenchmarkA", NsPerOp: 500, AllocsPerOp: 0},
			{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 2},
		},
	}
}

func TestComparePasses(t *testing.T) {
	cur := []Bench{
		{Name: "BenchmarkA", NsPerOp: 520, AllocsPerOp: 0},
		{Name: "BenchmarkB", NsPerOp: 700, AllocsPerOp: 2}, // improvement
	}
	deltas, ok := Compare(snap(), cur, 1.8, 1.5)
	if !ok {
		t.Fatalf("healthy run must pass: %+v", deltas)
	}
	for _, d := range deltas {
		if !d.OK {
			t.Fatalf("unexpected failure: %+v", d)
		}
	}
}

func TestCompareFailsOnTwoXSlowdown(t *testing.T) {
	// The acceptance scenario: an injected 2x slowdown must trip the
	// default-tolerance gate.
	cur := []Bench{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 0}, // 2.0x
		{Name: "BenchmarkB", NsPerOp: 1050, AllocsPerOp: 2},
	}
	deltas, ok := Compare(snap(), cur, 1.8, 1.5)
	if ok {
		t.Fatal("a 2x slowdown must fail the gate")
	}
	if deltas[0].OK || !strings.Contains(deltas[0].Reason, "ns/op") {
		t.Fatalf("slowdown not attributed: %+v", deltas[0])
	}
	if !deltas[1].OK {
		t.Fatalf("the healthy benchmark must still pass: %+v", deltas[1])
	}
}

func TestCompareFailsOnAllocGrowth(t *testing.T) {
	cur := []Bench{
		{Name: "BenchmarkA", NsPerOp: 500, AllocsPerOp: 1}, // 0 -> 1
		{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 2},
	}
	deltas, ok := Compare(snap(), cur, 1.8, 1.5)
	if ok || deltas[0].OK {
		t.Fatal("any allocs/op growth must fail the gate")
	}
	if !strings.Contains(deltas[0].Reason, "allocs") {
		t.Fatalf("alloc growth not attributed: %+v", deltas[0])
	}
}

func TestCompareFailsOnLargeImprovement(t *testing.T) {
	// A 2x speedup means the committed snapshot no longer describes the
	// code: the gate must demand a refresh rather than silently letting
	// the new baseline float.
	cur := []Bench{
		{Name: "BenchmarkA", NsPerOp: 250, AllocsPerOp: 0}, // 2x faster
		{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 2},
	}
	deltas, ok := Compare(snap(), cur, 1.8, 1.5)
	if ok || deltas[0].OK {
		t.Fatal("an improvement beyond the gate must fail until the snapshot is refreshed")
	}
	if !strings.Contains(deltas[0].Reason, "bench-snapshot") {
		t.Fatalf("improvement failure must point at the snapshot refresh: %+v", deltas[0])
	}
	if !deltas[1].OK {
		t.Fatalf("the unchanged benchmark must still pass: %+v", deltas[1])
	}
}

func TestCompareImprovementGateDisabled(t *testing.T) {
	cur := []Bench{
		{Name: "BenchmarkA", NsPerOp: 250, AllocsPerOp: 0},
		{Name: "BenchmarkB", NsPerOp: 400, AllocsPerOp: 2},
	}
	if _, ok := Compare(snap(), cur, 1.8, 0); !ok {
		t.Fatal("improveThreshold 0 must disable the improvement gate")
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	cur := []Bench{{Name: "BenchmarkA", NsPerOp: 500}}
	_, ok := Compare(snap(), cur, 1.8, 1.5)
	if ok {
		t.Fatal("a snapshot benchmark that was not measured must fail")
	}
}

func TestTableRendersStatus(t *testing.T) {
	cur := []Bench{
		{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 0},
		{Name: "BenchmarkB", NsPerOp: 900, AllocsPerOp: 2},
	}
	deltas, _ := Compare(snap(), cur, 1.8, 1.5)
	out := Table(deltas, 1.8, 1.5)
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "ok") {
		t.Fatalf("delta table must mark pass/fail:\n%s", out)
	}
	if !strings.Contains(out, "2.40x") {
		t.Fatalf("delta table must show the ratio:\n%s", out)
	}
}

func TestLoadCommittedSnapshot(t *testing.T) {
	// The real BENCH_sim.json two directories up must always parse.
	s, err := Load(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, b := range s.Benchmarks {
		names[b.Name] = true
		if b.NsPerOp <= 0 {
			t.Fatalf("snapshot entry %q has no ns/op", b.Name)
		}
	}
	for _, want := range []string{"BenchmarkCompiledDispatch", "BenchmarkRendezvousTwoThreads",
		"BenchmarkStoreCommit", "BenchmarkStoreDMBFull"} {
		if !names[want] {
			t.Fatalf("snapshot missing %s", want)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "bad.json")
	os.WriteFile(p, []byte("{}"), 0o644)
	if _, err := Load(p); err == nil {
		t.Fatal("empty snapshot must be rejected")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must be rejected")
	}
}
