// Command a64run executes a multi-threaded AArch64 assembly snippet on
// the weakly-ordered simulator — a litmus runner for the paper's own
// instruction vocabulary (ldr/str/dmb/dsb/isb/ldar/stlr, the LSE
// atomics ldaddal/swpal/casal, ALU and branches; see internal/a64).
//
// File format: directives, shared variables, then per-thread assembly
// blocks. A "//" or ";" starts a comment that runs to the end of the
// line.
//
//	platform Kunpeng916
//	mode WMM
//	seed 7
//	runs 100
//	var data
//	var flag = 0           // "= value" sets the initial value
//
//	thread core=0
//	  mov x1, =data
//	  mov x2, #23
//	  str x2, [x1]
//	  dmb ishst
//	  mov x3, =flag
//	  mov x4, #1
//	  str x4, [x3]
//	end
//
//	thread core=32
//	  mov x1, =flag
//	  wait: ldr x2, [x1]
//	  cbz x2, wait
//	  dmb ishld
//	  mov x3, =data
//	  ldr x0, [x3]
//	end
//
// Each var is a cache line of its own. Run r uses seed+r. The first
// run is summarized: cycles, simulated time, each thread's loads,
// stores, misses, stale reads and barrier stall, and every var's final
// value. Then, across runs, the distinct tuples of every thread's
// final x0 are histogrammed — litmus-style.
//
// Usage: a64run [-trace out.json] file.s  |  a64run -example
//
// -trace writes a Chrome trace of the first run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"armbar/internal/a64"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
	"armbar/internal/trace"
)

// spec is the parsed runner file.
type spec struct {
	plat    *platform.Platform
	mode    sim.Mode
	seed    int64
	runs    int
	vars    []variable
	threads []threadSrc
}

// variable is one shared variable and its value before the run.
type variable struct {
	name string
	init uint64
}

type threadSrc struct {
	core int
	line int // of the thread directive
	src  string
}

// parseFile reads a runner file. Every malformed line is an error that
// names it: an unknown directive or thread field, a duplicate var, a
// thread block with no end, a core the platform lacks. The thread
// bodies are assembled by run, once the vars have addresses.
func parseFile(text string) (*spec, error) {
	s := &spec{plat: platform.Kunpeng916(), mode: sim.WMM, runs: 1, seed: 1}
	lines := strings.Split(text, "\n")
	ln := 0 // the line being parsed, from 1
	fail := func(format string, args ...any) (*spec, error) {
		return nil, fmt.Errorf("a64run: line %d: "+format, append([]any{ln}, args...)...)
	}
	i := 0
	for i < len(lines) {
		line := stripComment(lines[i])
		i++
		ln = i
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		arg := strings.Join(fields[1:], " ") // the rest; each directive checks all of it
		switch fields[0] {
		case "platform":
			if arg == "" {
				return fail("platform needs a name")
			}
			if s.plat = platform.ByName(arg); s.plat == nil {
				return fail("unknown platform %q", arg)
			}
		case "mode":
			switch strings.ToUpper(arg) {
			case "WMM":
				s.mode = sim.WMM
			case "TSO":
				s.mode = sim.TSO
			default:
				return fail("mode must be WMM or TSO, not %q", arg)
			}
		case "seed":
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return fail("bad seed: %v", err)
			}
			s.seed = v
		case "runs":
			v, err := strconv.Atoi(arg)
			if err != nil || v <= 0 {
				return fail("bad runs %q", arg)
			}
			s.runs = v
		case "var":
			name, val, hasVal := strings.Cut(arg, "=")
			name = strings.TrimSpace(name)
			if name == "" {
				return fail("var needs a name")
			}
			if strings.Contains(name, " ") {
				return fail("var %q: want var name or var name = value", arg)
			}
			for _, v := range s.vars {
				if v.name == name {
					return fail("duplicate var %q", name)
				}
			}
			v := variable{name: name}
			if hasVal {
				init, err := strconv.ParseUint(strings.TrimSpace(val), 0, 64)
				if err != nil {
					return fail("bad value for var %q: %v", name, err)
				}
				v.init = init
			}
			s.vars = append(s.vars, v)
		case "thread":
			th := threadSrc{line: ln}
			for _, f := range fields[1:] {
				v, ok := strings.CutPrefix(f, "core=")
				if !ok {
					return fail("unknown thread field %q (want core=N)", f)
				}
				c, err := strconv.Atoi(v)
				if err != nil {
					return fail("bad core %q", v)
				}
				th.core = c
			}
			start := i
			for i < len(lines) && stripComment(lines[i]) != "end" {
				i++
			}
			if i == len(lines) {
				return fail("thread has no end")
			}
			// Blank lines for those above the body keep the
			// assembler's line numbers the file's.
			th.src = strings.Repeat("\n", start) + strings.Join(lines[start:i], "\n")
			s.threads = append(s.threads, th)
			i++ // past the end line
		default:
			return fail("unknown directive %q", fields[0])
		}
	}
	if len(s.threads) == 0 {
		return nil, fmt.Errorf("a64run: no threads")
	}
	for _, th := range s.threads {
		if n := s.plat.Sys.NumCores(); th.core < 0 || th.core >= n {
			ln = th.line
			return fail("core %d is not on %s (cores 0-%d)", th.core, s.plat.Name, n-1)
		}
	}
	return s, nil
}

// stripComment drops a line's "//" or ";" comment and the space
// around what is left.
func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// result is one run's outcome.
type result struct {
	x0      []uint64 // each thread's final x0
	cycles  float64
	seconds float64 // cycles in simulated time
	threads []sim.ThreadStats
	final   []uint64 // each var's committed value, in s.vars order
}

// run executes the spec once at the given seed, tracing into rec if it
// is not nil. Each thread may execute budget instructions (0 = a64's
// runaway guard). A failed instruction (including an access outside
// the vars' lines) and a simulation abort (the watchdog) are errors.
func run(s *spec, seed int64, budget int, rec *trace.Recorder) (*result, error) {
	m := sim.New(sim.Config{Plat: s.plat, Mode: s.mode, Seed: seed})
	if rec != nil {
		m.SetTracer(rec)
	}
	symbols := map[string]uint64{}
	addrs := make([]uint64, len(s.vars))
	for i, v := range s.vars {
		addrs[i] = m.Alloc(1)
		symbols[v.name] = addrs[i]
		if v.init != 0 {
			m.SetInitial(addrs[i], v.init)
		}
	}
	progs := make([]*a64.Program, len(s.threads))
	for i, th := range s.threads {
		prog, err := a64.ParseWithSymbols(th.src, symbols)
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", i, err)
		}
		progs[i] = prog
	}
	res := &result{x0: make([]uint64, len(s.threads))}
	threads := make([]*sim.Thread, len(s.threads))
	var execErr error
	for i, th := range s.threads {
		threads[i] = m.Spawn(topo.CoreID(th.core), func(t *sim.Thread) {
			regs, _, err := progs[i].Exec(t, a64.Regs{}, budget)
			if err != nil && execErr == nil {
				execErr = fmt.Errorf("thread %d: %w", i, err)
			}
			res.x0[i] = regs[0]
		})
	}
	cycles, err := simulate(m)
	if err != nil {
		return nil, err
	}
	res.cycles, res.seconds = cycles, m.Seconds(cycles)
	for _, t := range threads {
		res.threads = append(res.threads, t.Stats())
	}
	for _, a := range addrs {
		res.final = append(res.final, m.Directory().Committed(a))
	}
	return res, execErr
}

// simulate runs the machine and returns a panic out of Machine.Run as
// an error.
func simulate(m *sim.Machine) (cycles float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("a64run: simulation aborted: %v", r)
		}
	}()
	return m.Run(), nil
}

// printSummary writes the first run's cycles, per-thread counters and
// final var values.
func printSummary(w io.Writer, s *spec, res *result) {
	fmt.Fprintf(w, "platform %s (%s), %d threads\n", s.plat.Name, s.mode, len(s.threads))
	fmt.Fprintf(w, "run 0 (seed %d): %.0f cycles (%.3f ms simulated)\n",
		s.seed, res.cycles, res.seconds*1e3)
	fmt.Fprintf(w, "%-4s %10s %10s %8s %8s %12s\n",
		"thr", "loads", "stores", "misses", "stale", "barrier-stall")
	for i, ts := range res.threads {
		fmt.Fprintf(w, "t%-3d %10d %10d %8d %8d %12.1f\n",
			i, ts.Loads, ts.Stores, ts.Misses, ts.StaleReads, ts.BarrierStalled)
	}
	fmt.Fprintln(w, "final values:")
	for i, v := range s.vars {
		fmt.Fprintf(w, "  %-12s = %d\n", v.name, res.final[i])
	}
}

const example = `platform Kunpeng916
mode WMM
seed 7
runs 500
var data
var flag

// Table 1 of the barrier study: message passing WITHOUT barriers.
// Expect a nonzero count of "0 23"-style anomalies under WMM; switch
// mode to TSO (or add dmb ishst / dmb ishld) and they vanish.
thread core=0
  mov x1, =data
  mov x2, #23
  str x2, [x1]
  mov x3, =flag
  mov x4, #1
  str x4, [x3]
end

thread core=32
  mov x3, =data
  ldr x5, [x3]   // warm the data line (hold a cacheable copy)
  mov x1, =flag
wait:
  ldr x2, [x1]
  cbz x2, wait
  ldr x0, [x3]
end
`

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is a64run's body: it parses args, runs the file they name and
// returns the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("a64run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	showExample := fs.Bool("example", false, "print an example file and exit")
	traceOut := fs.String("trace", "", "write a Chrome-trace JSON of the first run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showExample {
		fmt.Fprint(stdout, example)
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: a64run [-trace out.json] file.s  |  a64run -example")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	text, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fatal(err)
	}
	s, err := parseFile(string(text))
	if err != nil {
		return fatal(err)
	}

	hist := map[string]int{}
	for r := 0; r < s.runs; r++ {
		var rec *trace.Recorder
		if r == 0 && *traceOut != "" {
			rec = trace.NewRecorder(0)
		}
		res, err := run(s, s.seed+int64(r), 0, rec)
		if err != nil {
			return fatal(err)
		}
		if r == 0 {
			printSummary(stdout, s, res)
		}
		if rec != nil {
			if err := writeTrace(rec, *traceOut); err != nil {
				return fatal(err)
			}
			fmt.Fprintf(stdout, "trace written to %s (%d events)\n", *traceOut, len(rec.Events()))
		}
		parts := make([]string, len(res.x0))
		for i, v := range res.x0 {
			parts[i] = fmt.Sprintf("x0[%d]=%d", i, v)
		}
		hist[strings.Join(parts, " ")]++
	}
	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "%s, %s, %d runs:\n", s.plat.Name, s.mode, s.runs)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-40s %6d\n", k, hist[k])
	}
	return 0
}

// writeTrace writes rec as Chrome trace-event JSON to path.
func writeTrace(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
