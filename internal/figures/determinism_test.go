package figures_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"armbar/internal/figures"
	"armbar/internal/runner"
)

// fastSubset spans every experiment package (explore sampling,
// absmodel, pc, dedup, locks, ds, floorplan, a64) while staying cheap
// enough for every `go test` run; ARMBAR_DETERMINISM_FULL=1 widens the
// guardrail to the whole registry (minutes, run before perf PRs).
var fastSubset = []string{
	"table1", "table3", "fig4", "fig5", "fig6d", "fig7b",
	"fig8a", "fig8d", "seqlock", "a64",
}

// render regenerates the named experiments and returns their combined
// CSV, the exact bytes `armbar -csv` would print. Each experiment runs
// under its own scope, as cmd/armbar does — a no-op without a cache in
// o, and the configuration the warm-cache golden test exercises.
func render(o figures.Options, names []string) string {
	var b strings.Builder
	for _, name := range names {
		exp, ok := figures.ByName(name)
		if !ok {
			panic(fmt.Sprintf("unknown experiment %q", name))
		}
		for _, t := range exp.Gen(o.Scoped(name)) {
			b.WriteString(t.CSV())
		}
	}
	return b.String()
}

// TestParallelOutputMatchesSequential is the determinism guardrail for
// the runner and all future simulator perf work: rendered output must
// be byte-identical between the inline sequential path and an 8-worker
// pool, at more than one seed.
func TestParallelOutputMatchesSequential(t *testing.T) {
	names := fastSubset
	if os.Getenv("ARMBAR_DETERMINISM_FULL") != "" {
		names = nil
		for _, e := range figures.Registry() {
			names = append(names, e.Name)
		}
	}
	for _, seed := range []int64{7, 99} {
		seq := render(figures.Options{Quick: true, Seed: seed}, names)
		pool := runner.New(8)
		par := render(figures.Options{Quick: true, Seed: seed, Pool: pool}, names)
		pool.Close()
		if seq == par {
			continue
		}
		sl, pl := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := range sl {
			if i >= len(pl) || sl[i] != pl[i] {
				t.Fatalf("seed %d: parallel output diverges at line %d:\n  seq: %s\n  par: %s",
					seed, i+1, sl[i], at(pl, i))
			}
		}
		t.Fatalf("seed %d: parallel output has %d extra lines", seed, len(pl)-len(sl))
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

// TestRegistryConsistent pins the registry invariants the CLI and
// benchmarks rely on: unique names, ByName round-trips, Names sorted,
// and the fast subset above only naming real experiments.
func TestRegistryConsistent(t *testing.T) {
	reg := figures.Registry()
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.Gen == nil || e.Tables <= 0 {
			t.Errorf("registry entry %+v incomplete", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		got, ok := figures.ByName(e.Name)
		if !ok || got.Name != e.Name {
			t.Errorf("ByName(%q) failed", e.Name)
		}
	}
	if _, ok := figures.ByName("nope"); ok {
		t.Error("ByName accepted an unknown name")
	}
	names := figures.Names()
	if len(names) != len(reg) {
		t.Errorf("Names() has %d entries, registry %d", len(names), len(reg))
	}
	if !sort.StringsAreSorted(names) {
		t.Error("Names() must be sorted for stable usage strings and `all` order")
	}
	for _, n := range fastSubset {
		if !seen[n] {
			t.Errorf("determinism subset names unknown experiment %q", n)
		}
	}
	// Table counts for the sim-free generators are cheap to verify
	// here; the CLI checks every experiment's count at run time.
	o := figures.Options{Quick: true, Seed: 7}
	for _, name := range []string{"table2", "table3"} {
		e, _ := figures.ByName(name)
		if got := len(e.Gen(o)); got != e.Tables {
			t.Errorf("%s: generator emits %d tables, registry says %d", name, got, e.Tables)
		}
	}
}
