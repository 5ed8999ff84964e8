// Command perfbench is armbar's host-performance benchmark. It runs one
// of four workloads — lockds, programs, fence, replay — as a closed
// loop of fixed cell lists through one runner pool, checks every cell's
// output, and prints the end-to-end metrics; with --trace 1 it prints
// the per-layer metrics of a traced run with a CPU profile instead. The
// last line of standard output is the machine-readable result; the
// human-readable summary goes to standard error. METRICS.md documents
// every metric and how to run the benchmark.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"armbar/internal/runner"
)

// goldenJSON holds the cell digests `perfbench record-golden` recorded
// at the golden seeds: seed -> workload -> cell key -> digest.
//
//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the dev seed and the held-out seed.
var goldenSeeds = []int64{42, 7}

// setupRuns is how many fresh processes time the set-up; setup_s is
// their median.
const setupRuns = 15

const defaultWorkdir = ".bench_build/perfbench"

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var code int
	switch cmd {
	case "run":
		code = runCmd(args)
	case "report":
		code = reportCmd(args)
	case "compare":
		code = compareCmd(args)
	case "record-golden":
		code = recordGoldenCmd(args)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown command %q (want report, compare or record-golden)\n", cmd)
		code = 2
	}
	os.Exit(code)
}

func flagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("perfbench "+name, flag.ContinueOnError)
}

// par is the pool width, and GOMAXPROCS is set to it. One worker on one
// processor is the steadiest shape on a two-core host: with two workers
// on two processors, same-length runs of one workload spread by 11% to
// 36% (interquartile range over median) against about 5% with one, and
// handoff-bound lockds cells run twice as fast one at a time on a
// single processor as two at a time on two.
const par = 1

func runCmd(args []string) int {
	fs := flagSet("run")
	name := fs.String("workload", "", "lockds, programs, fence or replay")
	seed := fs.Int64("seed", 42, "workload seed (42 is the dev seed, 7 the held-out one)")
	seconds := fs.Int("seconds", 20, "length of one run's measurement, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	workdir := fs.String("workdir", defaultWorkdir, "directory for records, spans and caches")
	child := fs.Bool("setup-child", false, "run the set-up only, print \"ready\" and exit (how setup_s is timed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload lockds|programs|fence|replay, --seconds >= 1 and --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(par)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *child {
		b, err := setup(w, *seed, par, *workdir)
		if err != nil {
			return fail(err)
		}
		fmt.Println("ready")
		b.close()
		return 0
	}
	var setups []float64
	if *trace == 0 {
		var err error
		if setups, err = timeSetups(w.name, *seed, *workdir); err != nil {
			return fail(err)
		}
	}
	b, err := setup(w, *seed, par, *workdir)
	if err != nil {
		return fail(err)
	}
	defer b.close()
	// The host fingerprint and the recorded digests are the benchmark's
	// own bookkeeping, so they are read after set-up, outside setup_s.
	b.host = hostFingerprint()
	if err := b.loadGolden(); err != nil {
		return fail(err)
	}
	// The warm-up pass is not timed. It checks every cell against the
	// recorded digests (or, for a seed without any, records what every
	// later pass must reproduce).
	rec := newRecord(b, *seconds, *trace, b.pass())
	rec.CPU = b.pinFastest()
	runtime.GC()
	debug.FreeOSMemory()
	if *trace == 0 {
		rec.setEndToEnd(b.phase(float64(*seconds), false), setups)
	} else {
		// An untraced and a traced phase share the run's length, so a
		// traced run takes about as long as an untraced one.
		untraced := b.phase(float64(*seconds)/2, false)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fail(err)
		}
		traced := b.phase(float64(*seconds)/2, true)
		pprof.StopCPUProfile()
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return fail(err)
		}
		rec.setPerLayer(b, untraced, traced, samples)
		spans, err := json.Marshal(b.tr.spans)
		if err == nil {
			err = os.WriteFile(filepath.Join(*workdir, w.name+"-spans.json"), spans, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	rec.Attempted, rec.Failed = b.attempted, b.failed
	if err := writeJSON(filepath.Join(*workdir, fmt.Sprintf("%s-trace%d.json", w.name, *trace)), rec); err != nil {
		return fail(err)
	}
	rec.print(os.Stderr)
	line, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: rec.Metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		return 1
	}
	return 0
}

// setup is everything a run of the workload needs before its first
// cell: the workload's inputs and the pool.
func setup(w workload, seed int64, width int, workdir string) (*bench, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, par: width, origin: time.Now(),
		want: map[string]string{}, tr: traceData{calls: map[string][]float64{}}}
	p, err := w.prepare(&env{seed: seed, workdir: workdir})
	if err != nil {
		return nil, err
	}
	b.plan = p
	b.pool = runner.New(width)
	return b, nil
}

// loadGolden makes the digests golden.json recorded for the bench's
// seed and workload, if it has any, the ones every cell must produce.
func (b *bench) loadGolden() error {
	var golden map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if g, ok := golden[strconv.FormatInt(b.seed, 10)][b.w.name]; ok {
		maps.Copy(b.want, g)
		b.golden = true
	}
	return nil
}

// timeSetups runs the set-up setupRuns times, each in a fresh process
// of this binary, and returns the seconds from starting the process to
// its "ready" line: process and runtime start, then everything setup
// does.
func timeSetups(name string, seed int64, workdir string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--workdir", workdir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		if werr := cmd.Wait(); werr != nil || rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up process: %v %v %q", werr, rerr, line)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// recordGoldenCmd re-records golden.json: one pass of every workload at
// each golden seed, keeping the digests it produces. Run it only for a
// change meant to alter simulated output.
func recordGoldenCmd(args []string) int {
	fs := flagSet("record-golden")
	out := fs.String("out", filepath.Join("perfbench", "golden.json"), "file to write")
	workdir := fs.String("workdir", defaultWorkdir, "directory for the workloads' files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(par)
	golden := map[string]map[string]map[string]string{}
	for _, seed := range goldenSeeds {
		perSeed := map[string]map[string]string{}
		for _, w := range workloads {
			b, err := setup(w, seed, par, *workdir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			b.pass()
			b.close()
			if b.failed > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d cells failed; nothing recorded\n", w.name, seed, b.failed)
				return 1
			}
			perSeed[w.name] = b.want
		}
		golden[strconv.FormatInt(seed, 10)] = perSeed
	}
	if err := writeJSON(*out, golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
