package armbar_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runABStats runs scripts/abstats.awk, the statistics and verdicts of
// scripts/ab.sh, on one workload's result lines against the metric
// spec file, and returns what it printed and its exit code.
func runABStats(t *testing.T, spec, workload string, base, head []string) (string, int) {
	t.Helper()
	awk, err := exec.LookPath("awk")
	if err != nil {
		t.Skip("no awk on PATH; scripts/ab.sh needs one")
	}
	dir := t.TempDir()
	for name, lines := range map[string][]string{"base": base, "head": head} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(awk, "-v", "w="+workload, "-f", filepath.Join("scripts", "abstats.awk"),
		spec, filepath.Join(dir, "base"), filepath.Join(dir, "head"))
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		}
		t.Fatal(err)
	}
	return string(out), 0
}

// microRuns is ten micro result lines: ns/op spread a little around ns,
// and allocs/op fixed.
func microRuns(ns float64, allocs int) []string {
	lines := make([]string, 10)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"attempted":1,"failed":0,"metrics":{"ns/op":{"value":%g},"allocs/op":{"value":%d}}}`,
			ns*(1+0.01*float64(i%5)), allocs)
	}
	return lines
}

// perfbenchRuns is ten perfbench result lines with wall_s and
// cells_per_s spread a little around the given values.
func perfbenchRuns(wall, cells float64) []string {
	lines := make([]string, 10)
	for i := range lines {
		f := 1 + 0.01*float64(i%5)
		lines[i] = fmt.Sprintf(`{"attempted":100,"correct":true,"failed":0,"metrics":{"cells_per_s":{"value":%g,"unit":"1/s"},"max_rss_mb":{"value":10,"unit":"MB"},"setup_s":{"value":0.004,"unit":"s"},"wall_s":{"value":%g,"unit":"s"}}}`,
			cells*f, wall*f)
	}
	return lines
}

// row returns the output line of one workload and metric.
func row(out, workload, metric string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "| "+workload+" | "+metric+" |") {
			return l
		}
	}
	return ""
}

// TestABVerdict pins the verdict rule of scripts/ab.sh on synthetic
// result lines: a row is worse when head's median is worse than base's
// by more than the metric's bound in its better direction (25% for
// ns/op and for BENCHMARK.json's metrics, any growth for allocs/op),
// or when a run printed no result; a worse row makes the exit status 1.
func TestABVerdict(t *testing.T) {
	micro := filepath.Join("scripts", "abmicro.json")
	const w = "micro/sim/StoreDMBFull"
	noResult := `{"attempted":1,"failed":1,"metrics":{}}`

	cases := []struct {
		name        string
		spec        string
		base, head  []string
		fail        bool
		worseMetric string // the row that must read WORSE when fail
	}{
		{"equal sides pass", micro, microRuns(100, 402), microRuns(100, 402), false, ""},
		{"ns per op 2x slower fails", micro, microRuns(100, 402), microRuns(200, 402), true, "ns/op"},
		{"ns per op 20% slower passes", micro, microRuns(100, 402), microRuns(120, 402), false, ""},
		{"allocs per op 402 to 403 fails", micro, microRuns(100, 402), microRuns(100, 403), true, "allocs/op"},
		{"allocs per op 0 to 1 fails", micro, microRuns(100, 0), microRuns(100, 1), true, "allocs/op"},
		{"run with no result fails", micro, microRuns(100, 402), append(microRuns(100, 402)[:9], noResult), true, "ns/op"},
		{"wall_s 20% worse passes", "BENCHMARK.json", perfbenchRuns(1, 100), perfbenchRuns(1.2, 100), false, ""},
		{"wall_s 30% worse fails", "BENCHMARK.json", perfbenchRuns(1, 100), perfbenchRuns(1.3, 100), true, "wall_s"},
		{"wall_s 30% better passes", "BENCHMARK.json", perfbenchRuns(1.3, 100), perfbenchRuns(1, 100), false, ""},
		{"cells_per_s 20% worse passes", "BENCHMARK.json", perfbenchRuns(1, 100), perfbenchRuns(1, 80), false, ""},
		{"cells_per_s 30% worse fails", "BENCHMARK.json", perfbenchRuns(1, 100), perfbenchRuns(1, 70), true, "cells_per_s"},
		{"cells_per_s 30% better passes", "BENCHMARK.json", perfbenchRuns(1, 100), perfbenchRuns(1, 130), false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl := w
			if tc.spec == "BENCHMARK.json" {
				wl = "lockds"
			}
			out, code := runABStats(t, tc.spec, wl, tc.base, tc.head)
			if tc.fail != (code == 1) || code > 1 {
				t.Fatalf("exit %d, want failure %v:\n%s", code, tc.fail, out)
			}
			worse := strings.Count(out, "WORSE")
			if !tc.fail {
				if worse != 0 || strings.Count(out, "| ok (") == 0 {
					t.Fatalf("want every row ok:\n%s", out)
				}
				return
			}
			if r := row(out, wl, tc.worseMetric); !strings.Contains(r, "WORSE") {
				t.Fatalf("row %s %s does not read WORSE:\n%s", wl, tc.worseMetric, out)
			}
		})
	}
}
