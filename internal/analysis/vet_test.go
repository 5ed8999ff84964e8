package analysis_test

import (
	"testing"

	"armbar/internal/analysis"
	"armbar/internal/analysis/analysistest"
)

func TestDetermVet(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DetermVet, "determ")
}

func TestLockVet(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockVet, "lock")
}

func TestAtomicVet(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AtomicVet, "atomicpkg")
}

func TestAllocVet(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AllocVet, "alloc")
}

// TestSuppression drives determvet over a fixture whose findings are
// silenced with every supported //armvet:ignore placement (trailing,
// doc-comment group, nolint-adjacent, "all") plus one directive naming
// the wrong pass, which must NOT suppress.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DetermVet, "suppress")
}

// TestBadPkgTripsLockVet pins the seeded-defect fixture the cmd/armvet
// smoke test relies on: badpkg must produce exactly one lockvet
// finding under the full suite.
func TestBadPkgTripsLockVet(t *testing.T) {
	loader, err := analysis.NewLoader("testdata/src/badpkg")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"testdata/src/badpkg"})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.RunAnalyzers(loader.Fset, pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding in badpkg, got %d: %v", len(findings), findings)
	}
	if f := findings[0]; f.Pass != "lockvet" {
		t.Fatalf("want a lockvet finding, got %v", f)
	}
}

func TestProgVet(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ProgVet, "progpkg")
}
