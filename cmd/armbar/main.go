// Command armbar regenerates the tables and figures of the ARM-barrier
// study from the simulator-based reproduction.
//
// Usage:
//
//	armbar [-quick] [-seed N] [-par N] [-csv] [-profile-out f] [-trace-out f] [-manifest f] [-cpuprofile f] <experiment> [...]
//	armbar cache [stats|gc|clear] [-dir .armbar-cache]
//
// Experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6a fig6b
// fig6c fig6d fig7a fig7b fig7c fig8a fig8b fig8c fig8d platforms all.
//
// -par N fans each experiment's independent simulation cells out over
// N workers (default GOMAXPROCS; 1 forces the inline sequential path).
// Output is byte-identical at every -par value and seed: parallelism
// only changes when a cell computes, never what it computes.
//
// Observability (see README "Observability"): -manifest writes the run
// manifest, the one record of a run (also written as manifest.json
// into the -o directory): per experiment its wall time, cells and cache
// hits, and with -profile-out its cycle attribution and simulator
// counters. -profile-out also writes the cycle-attribution profile as
// folded stacks for flamegraph tooling; -trace-out writes a merged
// Chrome/Perfetto trace of the simulated machines, and runs cells
// inline as -par 1 does, so the file is the same at any -par.
// -cpuprofile writes a Go CPU profile of the host work (`go tool
// pprof`), with each experiment's samples, pool workers' included,
// under the pprof label experiment=<name>. `armbar cache` inspects,
// garbage-collects or clears the result cache.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"armbar/internal/cellcache"
	"armbar/internal/figures"
	"armbar/internal/report"
	"armbar/internal/runner"
	"armbar/internal/sim"
	"armbar/internal/trace"
)

// -trace-out keeps the most recent traceCap events of each of the
// first traceMachines machines; later machines run untraced.
const (
	traceCap      = 4096
	traceMachines = 256
)

// onOff is a boolean flag that additionally accepts the on/off
// spelling the docs use (`-cache=off`), while keeping bare `-cache`
// working like a normal bool flag.
type onOff bool

func (o *onOff) String() string {
	if o != nil && bool(*o) {
		return "on"
	}
	return "off"
}

func (o *onOff) Set(s string) error {
	switch strings.ToLower(s) {
	case "", "on", "true", "1", "yes":
		*o = true
	case "off", "false", "0", "no":
		*o = false
	default:
		return fmt.Errorf("want on or off, got %q", s)
	}
	return nil
}

func (o *onOff) IsBoolFlag() bool { return true }

// manifest is the self-describing record written next to a run's
// results: everything needed to reproduce or audit the run.
type manifest struct {
	Tool        string                  `json:"tool"`
	Date        string                  `json:"date"`
	GoVersion   string                  `json:"go_version"`
	GitRevision string                  `json:"git_revision"`
	GOMAXPROCS  int                     `json:"gomaxprocs"`
	Seed        int64                   `json:"seed"`
	Quick       bool                    `json:"quick"`
	Par         int                     `json:"par"`
	Args        []string                `json:"args"`
	WallSeconds float64                 `json:"wall_seconds"`
	Experiments []figures.ExperimentRun `json:"experiments"`
	TraceFile   string                  `json:"trace_file,omitempty"`
	ProfileFile string                  `json:"profile_file,omitempty"`
	Cache       *cellcache.Stats        `json:"cache,omitempty"`
	Profile     *sim.ProfileReport      `json:"profile,omitempty"`
}

// gitRevision reads the VCS revision stamped into the binary, falling
// back to "unknown" (e.g. for plain `go run` of a non-VCS tree).
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive it. It
// returns 0 on success, 1 when the run fails and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "cache" {
		return cacheMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("armbar", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink iteration counts for a fast smoke run")
	seed := fs.Int64("seed", 42, "simulation seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	md := fs.Bool("md", false, "emit markdown instead of aligned text")
	outDir := fs.String("o", "", "also write each table as a CSV file into this directory")
	par := fs.Int("par", runtime.GOMAXPROCS(0),
		"worker count for experiment cells (1 = sequential, 0 = GOMAXPROCS)")
	times := fs.Bool("times", true, "report per-experiment wall time on stderr")
	profileOut := fs.String("profile-out", "",
		"write the cycle-attribution profile as folded stacks (flamegraph.pl / speedscope input) to this file; also puts each experiment's cycles and simulator counters in the manifest")
	traceOut := fs.String("trace-out", "", "write a merged Chrome/Perfetto trace of the simulated machines to this file (runs cells inline, as -par 1)")
	manifestOut := fs.String("manifest", "", "write a run manifest (seed, flags, git rev, per-experiment metrics) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a Go CPU profile of the run to this file, each experiment's samples under the pprof label experiment=<name>")
	cacheOn := onOff(true)
	fs.Var(&cacheOn, "cache", "consult the persistent result cache: on|off (default on; -cache=off recomputes everything)")
	cacheDir := fs.String("cache-dir", ".armbar-cache", "result-cache directory (see README \"Result cache\")")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	failf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "armbar: "+format+"\n", args...)
		return 1
	}

	args = fs.Args()
	if len(args) == 0 {
		fmt.Fprintf(stderr, "usage: armbar [-quick] [-seed N] [-par N] [-csv] [-cache=off] <experiment> [...]\n")
		fmt.Fprintf(stderr, "       armbar cache [stats|gc|clear] [-dir .armbar-cache]\n")
		fmt.Fprintf(stderr, "experiments: %s all\n", strings.Join(figures.Names(), " "))
		return 2
	}
	for _, a := range args {
		// flag stops at the first experiment name; a stray "-quick" after
		// it would otherwise be silently dropped (and regenerate at full
		// scale), so reject flag-looking positionals outright.
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(stderr, "armbar: flag %q after experiment names; flags must come first\n", a)
			return 2
		}
	}
	requested := append([]string(nil), args...)
	if args[0] == "all" {
		args = figures.Names()
	} else if args[0] == "platforms" {
		args = []string{"table2"}
	}
	// Resolve every name before the first experiment runs, so a typo at
	// the end of a long list costs nothing and prints nothing.
	exps := make([]figures.Experiment, len(args))
	for i, name := range args {
		exp, ok := figures.ByName(name)
		if !ok {
			fmt.Fprintf(stderr, "armbar: unknown experiment %q (have: %s)\n",
				name, strings.Join(figures.Names(), " "))
			return 2
		}
		exps[i] = exp
	}

	// Observability sinks. Both hooks are installed before any machine
	// is built, cost nothing when their flags are unset, and are
	// removed on return so the process is dark again.
	var profc *sim.ProfileCollector
	if *profileOut != "" {
		profc = sim.NewProfileCollector()
		sim.SetGlobalProfile(profc)
		defer sim.SetGlobalProfile(nil)
	}
	// The collector hands its recorders to machines in the order they
	// are built, so -trace-out runs cells inline: a pool would build
	// them, and order the trace, as its workers happen to run.
	var collector *trace.Collector
	if *traceOut != "" {
		collector = trace.NewCollector(traceCap, traceMachines)
		sim.SetMachineTracerFactory(collector.NewTracer)
		defer sim.SetMachineTracerFactory(nil)
		*par = 1
	}

	// One pool for the whole invocation; -par 1 keeps cells inline on
	// this goroutine so the sequential baseline spawns no workers.
	var pool *runner.Pool
	if *par != 1 {
		pool = runner.New(*par)
		defer pool.Close()
	}
	o := figures.Options{Quick: *quick, Seed: *seed, Pool: pool}

	// Persistent result cache: cells hit before they simulate. -cache=off
	// disables both lookup and store, reproducing the uncached pipeline.
	var cache *cellcache.Cache
	if bool(cacheOn) {
		cache = cellcache.Open(*cacheDir)
		defer cache.Close()
		o.Cache = cache
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return failf("%v", err)
		}
	}
	man := manifest{
		Tool:        "armbar",
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        *seed,
		Quick:       *quick,
		Par:         *par,
		Args:        requested,
		TraceFile:   *traceOut,
	}
	stopCPUProfile := func() error { return nil }
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return failf("%v", err)
		}
		defer stop()
		stopCPUProfile = stop
	}
	start := time.Now()
	for _, exp := range exps {
		name := exp.Name
		var tables []*report.Table
		var run figures.ExperimentRun
		pprof.Do(context.Background(), pprof.Labels("experiment", name), func(ctx context.Context) {
			pool.Label(ctx)
			tables, run = figures.RunInstrumented(exp, o, profc)
		})
		man.Experiments = append(man.Experiments, run)
		if *times {
			fmt.Fprintf(stderr, "# %-8s %2d table(s) in %v\n", name, len(tables),
				time.Duration(run.WallSeconds*float64(time.Second)).Round(time.Millisecond))
		}
		if len(tables) != exp.Tables {
			return failf("%s emitted %d tables, registry says %d", name, len(tables), exp.Tables)
		}
		for i, t := range tables {
			switch {
			case *csv:
				fmt.Fprint(stdout, t.CSV())
			case *md:
				fmt.Fprintln(stdout, t.Markdown())
			default:
				fmt.Fprintln(stdout, t.String())
			}
			if *outDir != "" {
				file := filepath.Join(*outDir, name+".csv")
				if len(tables) > 1 {
					file = filepath.Join(*outDir, fmt.Sprintf("%s_%d.csv", name, i))
				}
				if err := os.WriteFile(file, []byte(t.CSV()), 0o644); err != nil {
					return failf("%v", err)
				}
			}
		}
	}
	man.WallSeconds = time.Since(start).Seconds()
	if err := stopCPUProfile(); err != nil {
		return failf("%v", err)
	}
	if *times {
		fmt.Fprintf(stderr, "# total    %v (par=%d)\n",
			time.Duration(man.WallSeconds*float64(time.Second)).Round(time.Millisecond), *par)
	}

	// Close the pool, then the cache so its shard files and index are
	// durable before the manifest records its final stats; the
	// deferred Closes are then no-ops.
	pool.Close()
	if cache != nil {
		cache.Close()
		st := cache.Stats()
		man.Cache = &st
	}

	if profc != nil {
		p := profc.Snapshot()
		rep := p.Report()
		man.Profile = &rep
		if err := writeFoldedStacks(man, *profileOut); err != nil {
			return failf("%v", err)
		}
		man.ProfileFile = *profileOut
		fmt.Fprintf(stderr, "# profile  %s: %d cause(s) across %d machine(s), %d gap(s) — fold with flamegraph.pl or load into speedscope\n",
			*profileOut, len(rep.Causes), rep.Machines, rep.Gaps)
	}

	if collector != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return failf("%v", err)
		}
		if err := collector.WriteChromeJSON(f); err != nil {
			f.Close()
			return failf("%v", err)
		}
		if err := f.Close(); err != nil {
			return failf("%v", err)
		}
		fmt.Fprintf(stderr, "# trace    %s: %d machine(s), %d dropped event(s), %d machine(s) untraced — open at https://ui.perfetto.dev\n",
			*traceOut, collector.Machines(), collector.Dropped(), collector.Skipped())
	}
	manifestPath := *manifestOut
	if manifestPath == "" && *outDir != "" {
		manifestPath = filepath.Join(*outDir, "manifest.json")
	}
	if manifestPath != "" {
		if err := writeManifest(man, manifestPath); err != nil {
			return failf("%v", err)
		}
	}
	return 0
}

// startCPUProfile starts a Go CPU profile into a new file at path and
// returns the function that stops it and closes the file; only its
// first call does anything.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeFoldedStacks renders the per-experiment attribution rollup in
// the folded-stacks format flamegraph tooling consumes: one line per
// stack ("armbar;<experiment>;<cause>") weighted by simulated cycles.
// Cause rows are emitted in sorted order so the file is deterministic
// for a given run.
func writeFoldedStacks(man manifest, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, run := range man.Experiments {
		names := make([]string, 0, len(run.ProfileCycles))
		for name := range run.ProfileCycles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			cyc := run.ProfileCycles[name]
			if cyc <= 0 {
				continue
			}
			if _, err := fmt.Fprintf(f, "armbar;%s;%s %d\n", run.Name, name, int64(cyc+0.5)); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func writeManifest(man manifest, path string) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
