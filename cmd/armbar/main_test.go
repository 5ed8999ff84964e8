package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"armbar/internal/cellcache"
)

// simCounters are the additive sim.Stats keys every manifest
// experiment entry carries under -profile-out; simPeaks are the two
// high-water marks only the run-wide profile section carries.
var (
	simCounters = []string{
		"loads", "stores", "hits", "misses", "stale_reads", "rmr_stores",
		"barrier_stall_cycles", "mem_txns", "sync_txns",
		"event_allocs", "event_reuses", "inline_dispatches", "park_wakes",
	}
	simPeaks = []string{"max_event_heap", "max_store_buf"}
)

func runArmbar(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("armbar %v: exit %d\n%s", args, code, errb.String())
	}
	return out.String()
}

// TestSinksKeepOutputAndRecordSim runs armbar with every sink it has
// (profile, trace, manifest) against the same run with none: the
// tables must not change, and the manifest must carry each
// experiment's cycle attribution and simulator counters, consistent
// with the run-wide profile and the folded-stacks file.
func TestSinksKeepOutputAndRecordSim(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "profile.folded")
	traceFile := filepath.Join(dir, "trace.json")
	manifestFile := filepath.Join(dir, "manifest.json")
	base := []string{"-quick", "-par", "2", "-cache=off"}
	exps := []string{"table1", "fig4"}

	dark := runArmbar(t, append(base, exps...)...)
	sinks := append(append([]string(nil), base...),
		"-profile-out", profile, "-trace-out", traceFile, "-manifest", manifestFile)
	lit := runArmbar(t, append(sinks, exps...)...)
	if lit != dark {
		t.Fatalf("sinks changed stdout:\n--- no sink\n%s\n--- sinks\n%s", dark, lit)
	}

	var man struct {
		Experiments []struct {
			Name          string             `json:"name"`
			ProfileCycles map[string]float64 `json:"profile_cycles"`
			Sim           map[string]float64 `json:"sim"`
		} `json:"experiments"`
		Profile *struct {
			Machines uint64             `json:"machines"`
			Sim      map[string]float64 `json:"sim"`
		} `json:"profile"`
	}
	data, err := os.ReadFile(manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(man.Experiments) != len(exps) || man.Profile == nil || man.Profile.Machines == 0 {
		t.Fatalf("manifest lacks experiments or profile:\n%s", data)
	}

	whole := man.Profile.Sim
	for _, k := range append(append([]string(nil), simCounters...), simPeaks...) {
		if _, ok := whole[k]; !ok {
			t.Errorf("profile.sim lacks %q", k)
		}
	}
	for _, k := range []string{"loads", "stores", "inline_dispatches", "park_wakes", "max_event_heap", "max_store_buf"} {
		if whole[k] <= 0 {
			t.Errorf("profile.sim.%s = %v, want > 0", k, whole[k])
		}
	}
	if len(whole) != len(simCounters)+len(simPeaks) {
		t.Errorf("profile.sim has %d keys, want %d: %v", len(whole), len(simCounters)+len(simPeaks), whole)
	}

	sum := map[string]float64{}
	var folded []string
	for _, e := range man.Experiments {
		if len(e.ProfileCycles) == 0 {
			t.Errorf("%s: no profile_cycles", e.Name)
		}
		if e.Sim["stores"] <= 0 {
			t.Errorf("%s: sim.stores = %v, want > 0", e.Name, e.Sim["stores"])
		}
		if len(e.Sim) != len(simCounters) {
			t.Errorf("%s: sim has keys %v, want exactly %v", e.Name, e.Sim, simCounters)
		}
		for k, v := range e.Sim {
			sum[k] += v
		}
		for cause, cyc := range e.ProfileCycles {
			if cyc > 0 {
				folded = append(folded, fmt.Sprintf("armbar;%s;%s %d", e.Name, cause, int64(cyc+0.5)))
			}
		}
	}
	for _, k := range simCounters {
		if d := math.Abs(sum[k] - whole[k]); d > 1e-9*math.Max(whole[k], 1) {
			t.Errorf("sim.%s: experiments sum to %v, run-wide %v", k, sum[k], whole[k])
		}
	}

	data, err = os.ReadFile(profile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	sort.Strings(lines)
	sort.Strings(folded)
	if strings.Join(lines, "\n") != strings.Join(folded, "\n") {
		t.Errorf("folded stacks disagree with profile_cycles:\n--- file\n%s\n--- manifest\n%s",
			strings.Join(lines, "\n"), strings.Join(folded, "\n"))
	}

	var tr struct {
		TraceEvents []struct {
			Pid int `json:"pid"`
		} `json:"traceEvents"`
	}
	data, err = os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace holds no machine")
	}
}

// TestUnknownExperimentRejectedUpFront: a bad name anywhere in the list
// fails the run before its first experiment, with nothing on stdout
// and no output directory made.
func TestUnknownExperimentRejectedUpFront(t *testing.T) {
	outDir := filepath.Join(t.TempDir(), "out")
	var out, errb bytes.Buffer
	code := run([]string{"-quick", "-cache=off", "-par", "1", "-o", outDir, "table1", "bogus"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout holds %d bytes before the rejection:\n%s", out.Len(), out.String())
	}
	if !strings.Contains(errb.String(), `unknown experiment "bogus"`) {
		t.Errorf("stderr does not name the bad experiment:\n%s", errb.String())
	}
	if _, err := os.Stat(outDir); !os.IsNotExist(err) {
		t.Errorf("output directory made before the rejection (stat: %v)", err)
	}
}

// TestCacheVerbs drives `armbar cache` through run: a verb after the
// flags and a bad flag are usage errors (exit 2) that leave the
// directory as it was, and `cache clear -dir D` empties it.
func TestCacheVerbs(t *testing.T) {
	dir := t.TempDir()
	c := cellcache.Open(dir)
	for i := 0; i < 30; i++ {
		c.Put("cachecli#0", i, []byte{byte(i)})
	}
	c.Close()
	entries := func() int {
		c := cellcache.Open(dir)
		defer c.Close()
		return c.Stats().Entries
	}

	for _, args := range [][]string{
		{"cache", "-dir", dir, "clear"},
		{"cache", "-dir", dir, "gc", "1h"},
		{"cache", "clear", "-dir", dir, "extra"},
		{"cache", "-bogus"},
		{"cache", "purge", "-dir", dir},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("armbar %v: exit %d, want 2\n%s%s", args, code, out.String(), errb.String())
		}
		if out.Len() != 0 || errb.Len() == 0 {
			t.Errorf("armbar %v: stdout %q, stderr %q; want only a usage error", args, out.String(), errb.String())
		}
		if n := entries(); n != 30 {
			t.Fatalf("armbar %v left %d entries, want all 30", args, n)
		}
	}

	out := runArmbar(t, "cache", "clear", "-dir", dir)
	if !strings.Contains(out, "clear: cache emptied") || !strings.Contains(out, "entries:   0") {
		t.Errorf("cache clear printed:\n%s", out)
	}
	if n := entries(); n != 0 {
		t.Fatalf("cache clear left %d entries", n)
	}
}

// TestCPUProfileKeepsOutput: -cpuprofile writes a non-empty profile,
// and the tables are byte-identical to the same run without it, with
// cells on pool workers.
func TestCPUProfileKeepsOutput(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	args := []string{"-quick", "-par", "2", "-cache=off"}
	exps := []string{"table1", "fig4"}
	dark := runArmbar(t, append(args, exps...)...)
	lit := runArmbar(t, append(append(args, "-cpuprofile", prof), exps...)...)
	if lit != dark {
		t.Fatalf("-cpuprofile changed stdout:\n--- without\n%s\n--- with\n%s", dark, lit)
	}
	st, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("CPU profile is empty")
	}
}

// TestTraceSameAtAnyPar: -trace-out runs cells inline, so fig4's trace
// file at -par 2 is byte-identical to the one at -par 1, and the run
// reports the par it used.
func TestTraceSameAtAnyPar(t *testing.T) {
	dir := t.TempDir()
	traces := map[string][]byte{}
	for _, par := range []string{"2", "1"} {
		traceFile := filepath.Join(dir, "trace"+par+".json")
		manifestFile := filepath.Join(dir, "manifest"+par+".json")
		var out, errb bytes.Buffer
		args := []string{"-quick", "-cache=off", "-par", par, "-trace-out", traceFile, "-manifest", manifestFile, "fig4"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("armbar %v: exit %d\n%s", args, code, errb.String())
		}
		if !strings.Contains(errb.String(), "(par=1)") {
			t.Errorf("-par %s: total line does not report par=1:\n%s", par, errb.String())
		}
		var man struct {
			Par int `json:"par"`
		}
		data, err := os.ReadFile(manifestFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &man); err != nil || man.Par != 1 {
			t.Errorf("-par %s: manifest par = %d (%v), want 1", par, man.Par, err)
		}
		if traces[par], err = os.ReadFile(traceFile); err != nil {
			t.Fatal(err)
		}
	}
	if len(traces["1"]) == 0 || !bytes.Equal(traces["1"], traces["2"]) {
		t.Fatalf("trace at -par 2 (%d bytes) differs from -par 1 (%d bytes)", len(traces["2"]), len(traces["1"]))
	}
}
