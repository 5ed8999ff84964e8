package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"

	"armbar/internal/explore"
	"armbar/internal/platform"
	"armbar/internal/runner"
	"armbar/internal/sim"
)

// runFenceVet is the fencevet subcommand: unlike the source-level
// passes it verifies programs, not code — every litmus shape's
// placement lattice is explored under the reorder-bounded semantics,
// cross-checked against absmodel's closed-form fence requirements,
// and the paper's Pilot transformation is machine-checked step by
// step, each unsafe step printed with its counterexample trace. Exit
// 0 when every shape has a safe naive placement, every lattice
// verdict agrees with the formula oracle, and every Pilot step
// matches its expectation; 1 on any violation; 2 on usage errors,
// including a -bound outside the packed state's 0..255 budget.
func runFenceVet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("armvet fencevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bound := fs.Int("bound", explore.DefaultBound, "reorder bound (store-buffer reorderings plus stale reads per execution)")
	fuzz := fs.Int("fuzz", 0, "also fuzz n generated litmus shapes through the three oracles (0 = off)")
	fuzzSeed := fs.Int64("fuzzseed", 42, "seed for the generated fuzz corpus")
	runs := fs.Int("runs", 4, "sim samples per fuzzed placement (0 skips the containment oracle)")
	par := fs.Int("par", runtime.GOMAXPROCS(0), "worker pool width for the fuzz batch (1 = inline)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: armvet fencevet [-bound n] [-fuzz n] [-fuzzseed s] [-runs n] [-par n]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	if *bound < 0 || *bound > explore.MaxBound {
		fmt.Fprintf(stderr, "armvet fencevet: -bound %d outside 0..%d\n", *bound, explore.MaxBound)
		return 2
	}

	bad := 0
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		fmt.Fprintf(stdout, "== %v (bound %d) ==\n", mode, *bound)
		for _, s := range explore.All() {
			rep := explore.Minimize(s, mode, *bound)
			agree := explore.ModelAgrees(s, mode, *bound)
			status := "ok"
			if !rep.NaiveSafe {
				status = "NAIVE UNSAFE"
				bad++
			}
			if !agree {
				status = "MODEL DISAGREES"
				bad++
			}
			fmt.Fprintf(stdout, "%-8s slots=%d minimal=%-24s explored=%-3d pruned=%-3d states=%-6d model=%v %s\n",
				s.Name, len(s.Slots), rep.MinimalDescribe(s), rep.Explored, rep.Pruned, rep.States, agree, status)
		}
		pilot := explore.PilotCheck(mode, *bound)
		for _, st := range pilot.Steps {
			verdict := "ok"
			if !st.OK() {
				verdict = "MISMATCH"
				bad++
			}
			fmt.Fprintf(stdout, "pilot: %-16s safe=%-5v expect=%-5v %s\n", st.Name, st.Safe, st.ExpectSafe, verdict)
			for _, line := range st.Witness {
				fmt.Fprintf(stdout, "         %s\n", line)
			}
		}
	}
	if *fuzz > 0 {
		bad += runFuzz(stdout, *fuzz, *fuzzSeed, *runs, *par)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "armvet fencevet: %d violation(s)\n", bad)
		return 1
	}
	return 0
}

// runFuzz runs the generated-corpus leg: n seeded shapes, each checked
// across its full placement lattice under both modes against the
// explorer, the clause formula, and sim sampling containment. Prints
// one aggregate line per skeleton family plus the first disagreement's
// full program listing, and returns the number of disagreeing shapes.
func runFuzz(stdout io.Writer, n int, seed int64, runs, par int) int {
	var pool *runner.Pool
	if par != 1 {
		pool = runner.New(par)
		defer pool.Close()
	}
	rep := explore.FuzzShapes(seed, n, runs, platform.Kunpeng916(), pool)

	fmt.Fprintf(stdout, "== fuzz (seed %d, %d shapes, %d sim runs) ==\n", seed, n, runs)
	type agg struct {
		cases, explored, states, bad int
	}
	byFam := map[string]*agg{}
	var fams []string
	firstErr := ""
	for _, c := range rep.Cases {
		a := byFam[c.Family]
		if a == nil {
			a = &agg{}
			byFam[c.Family] = a
			fams = append(fams, c.Family)
		}
		a.cases++
		a.explored += c.Explored
		a.states += c.States
		if c.Err != "" {
			a.bad++
			if firstErr == "" {
				firstErr = c.Name + ": " + c.Err
			}
		}
	}
	for _, fam := range fams {
		a := byFam[fam]
		status := "ok"
		if a.bad > 0 {
			status = fmt.Sprintf("%d DISAGREE", a.bad)
		}
		fmt.Fprintf(stdout, "fuzz: %-8s cases=%-4d placements=%-5d states=%-8d %s\n",
			fam, a.cases, a.explored, a.states, status)
	}
	if firstErr != "" {
		fmt.Fprintf(stdout, "first disagreement:\n%s\n", firstErr)
	}
	return rep.Bad
}
