package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFixtureExitsNonzero is the end-to-end smoke test: the
// multichecker must exit 1 on the seeded-defect fixture and name the
// defect.
func TestBadFixtureExitsNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"../../internal/analysis/testdata/src/badpkg"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stdout %q, stderr %q)", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), `v is guarded by "mu"`) {
		t.Errorf("stdout does not name the defect:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "(lockvet)") {
		t.Errorf("stdout does not attribute the finding to lockvet:\n%s", out.String())
	}
}

// TestCleanPackageExitsZero runs the suite over a package with no
// annotations or hot paths: silence, exit 0.
func TestCleanPackageExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"../../internal/topo"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stdout %q, stderr %q)", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected output on clean package:\n%s", out.String())
	}
}

func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-list"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"determvet", "lockvet", "atomicvet", "allocvet", "progvet"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestFenceVetSubcommand runs the program-level verifier end to end:
// every shape must minimize cleanly, agree with the formula oracle,
// and the Pilot derivation must machine-check, so the subcommand
// exits 0, reports the load-side removal as the safe one and prints
// the stale-payload counterexample under the unsafe removals.
func TestFenceVetSubcommand(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"fencevet"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stdout %q, stderr %q)", code, out.String(), errb.String())
	}
	for _, want := range []string{
		"minimal={push pull}", // MP under WMM
		"pilot: chan - avail", // the removal the paper derives
		"pilot: chan - publish",
		"\n         outcome ready=1 flag=1 local=0\n", // WMM witness
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fencevet output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "MISMATCH") || strings.Contains(out.String(), "UNSAFE") {
		t.Errorf("fencevet reports violations:\n%s", out.String())
	}
}

func TestFenceVetUsageExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"extra-arg"},
		{"-bound", "300"}, // past the one-byte reorder budget
		{"-bound", "-1"},  // would wrap to a 255 budget with no bits
	} {
		var out, errb bytes.Buffer
		if code := run(append([]string{"fencevet"}, args...), &out, &errb); code != 2 {
			t.Errorf("fencevet %v: exit code = %d, want 2", args, code)
		}
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./no/such/dir"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
}
