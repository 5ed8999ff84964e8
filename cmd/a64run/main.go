// Command a64run executes a multi-threaded AArch64 assembly snippet on
// the weakly-ordered simulator — a litmus runner for the paper's own
// instruction vocabulary (ldr/str/dmb/dsb/isb/ldar/stlr plus ALU and
// branches).
//
// File format: directives, shared variables, then per-thread assembly
// blocks. Lines starting with "//" or ";" are comments.
//
//	platform Kunpeng916
//	mode WMM
//	seed 7
//	runs 100
//	var data
//	var flag
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
// After each run, every thread's x0 is reported; across runs the
// distinct (x0...) tuples are histogrammed — litmus-style.
//
// Usage: a64run file.s  |  a64run -example
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"armbar/internal/a64"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// spec is the parsed runner file.
type spec struct {
	platform string
	mode     string
	seed     int64
	runs     int
	vars     []string
	threads  []threadSrc
}

type threadSrc struct {
	core int
	src  string
}

func parseFile(text string) (*spec, error) {
	s := &spec{platform: "Kunpeng916", mode: "WMM", runs: 1, seed: 1}
	lines := strings.Split(text, "\n")
	i := 0
	for i < len(lines) {
		line := strings.TrimSpace(lines[i])
		i++
		if line == "" || strings.HasPrefix(line, "//") || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		arg := "" // the first argument; missing ones fail below
		if len(fields) > 1 {
			arg = fields[1]
		}
		switch fields[0] {
		case "platform":
			if arg == "" {
				return nil, fmt.Errorf("a64run: platform needs a name")
			}
			s.platform = strings.Join(fields[1:], " ")
		case "mode":
			s.mode = strings.ToUpper(arg)
			if s.mode != "WMM" && s.mode != "TSO" {
				return nil, fmt.Errorf("a64run: mode must be WMM or TSO, not %q", arg)
			}
		case "seed":
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("a64run: bad seed: %w", err)
			}
			s.seed = v
		case "runs":
			v, err := strconv.Atoi(arg)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("a64run: bad runs %q", arg)
			}
			s.runs = v
		case "var":
			if arg == "" {
				return nil, fmt.Errorf("a64run: var needs a name")
			}
			s.vars = append(s.vars, arg)
		case "thread":
			core := 0
			for _, f := range fields[1:] {
				if v, ok := strings.CutPrefix(f, "core="); ok {
					c, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("a64run: bad core %q", v)
					}
					core = c
				}
			}
			var body []string
			for i < len(lines) {
				l := strings.TrimSpace(lines[i])
				i++
				if l == "end" {
					break
				}
				body = append(body, lines[i-1])
			}
			s.threads = append(s.threads, threadSrc{core: core, src: strings.Join(body, "\n")})
		default:
			return nil, fmt.Errorf("a64run: unknown directive %q", fields[0])
		}
	}
	if len(s.threads) == 0 {
		return nil, fmt.Errorf("a64run: no threads")
	}
	return s, nil
}

// run executes the spec once and returns each thread's final x0. A
// thread on a core the platform lacks, a failed instruction and a
// simulation abort (an access the simulator cannot serve, the
// watchdog) are errors.
func run(s *spec, p *platform.Platform, seed int64) ([]uint64, error) {
	mode := sim.WMM
	if s.mode == "TSO" {
		mode = sim.TSO
	}
	for i, th := range s.threads {
		if th.core < 0 || th.core >= p.Sys.NumCores() {
			return nil, fmt.Errorf("a64run: thread %d: core %d is not on %s (cores 0-%d)",
				i, th.core, p.Name, p.Sys.NumCores()-1)
		}
	}
	m := sim.New(sim.Config{Plat: p, Mode: mode, Seed: seed})
	symbols := map[string]uint64{}
	for _, v := range s.vars {
		symbols[v] = m.Alloc(1)
	}
	progs := make([]*a64.Program, len(s.threads))
	for i, th := range s.threads {
		prog, err := a64.ParseWithSymbols(th.src, symbols)
		if err != nil {
			return nil, fmt.Errorf("thread %d: %w", i, err)
		}
		progs[i] = prog
	}
	results := make([]uint64, len(s.threads))
	var execErr error
	for i, th := range s.threads {
		i, th := i, th
		m.Spawn(topo.CoreID(th.core), func(t *sim.Thread) {
			regs, _, err := progs[i].Exec(t, a64.Regs{}, 0)
			if err != nil && execErr == nil {
				execErr = fmt.Errorf("thread %d: %w", i, err)
			}
			results[i] = regs[0]
		})
	}
	if err := simulate(m); err != nil {
		return nil, err
	}
	return results, execErr
}

// simulate runs the machine and returns a panic out of Machine.Run as
// an error.
func simulate(m *sim.Machine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("a64run: simulation aborted: %v", r)
		}
	}()
	m.Run()
	return nil
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

func main() {
	showExample := flag.Bool("example", false, "print an example file and exit")
	flag.Parse()
	if *showExample {
		fmt.Print(example)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: a64run [-example] file.s")
		os.Exit(2)
	}
	text, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	s, err := parseFile(string(text))
	if err != nil {
		fatal(err)
	}
	p := platform.ByName(s.platform)
	if p == nil {
		fatal(fmt.Errorf("a64run: unknown platform %q", s.platform))
	}

	hist := map[string]int{}
	for r := 0; r < s.runs; r++ {
		res, err := run(s, p, s.seed+int64(r))
		if err != nil {
			fatal(err)
		}
		parts := make([]string, len(res))
		for i, v := range res {
			parts[i] = fmt.Sprintf("x0[%d]=%d", i, v)
		}
		hist[strings.Join(parts, " ")]++
	}
	keys := make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s, %s, %d runs:\n", s.platform, s.mode, s.runs)
	for _, k := range keys {
		fmt.Printf("  %-40s %6d\n", k, hist[k])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
