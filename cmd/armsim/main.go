// Command armsim runs a JSON-described workload scenario on the
// weakly-ordered simulator and prints cycles, per-thread statistics
// and final shared-variable values — the characterization methodology
// applied to your own code shape instead of the paper's.
//
// Usage:
//
//	armsim [-trace out.json] scenario.json
//	armsim -example            # print a ready-to-edit scenario
//
// The scenario format is documented in internal/scenario.
package main

import (
	"flag"
	"fmt"
	"os"

	"armbar/internal/scenario"
	"armbar/internal/trace"
)

// exampleSpec is the message-passing scenario of the paper's Table 1,
// with the fix applied (DMB st / DMB ld) — edit away.
const exampleSpec = `{
  "platform": "Kunpeng916",
  "mode": "WMM",
  "seed": 1,
  "vars": ["data", "flag", "ack"],
  "threads": [
    {
      "core": 0,
      "loop": 200,
      "ops": [
        {"op": "store", "var": "data", "value": 23},
        {"op": "barrier", "barrier": "DMB st"},
        {"op": "fetchadd", "var": "flag", "value": 1},
        {"op": "spin_ne", "var": "ack", "value": 0},
        {"op": "swap", "var": "ack", "value": 0},
        {"op": "nops", "n": 40}
      ]
    },
    {
      "core": 32,
      "loop": 200,
      "ops": [
        {"op": "spin_ne", "var": "flag", "value": 0},
        {"op": "swap", "var": "flag", "value": 0},
        {"op": "barrier", "barrier": "DMB ld"},
        {"op": "load", "var": "data"},
        {"op": "fetchadd", "var": "ack", "value": 1}
      ]
    }
  ]
}`

func main() {
	traceOut := flag.String("trace", "", "write a Chrome-trace JSON of the run")
	example := flag.Bool("example", false, "print an example scenario and exit")
	flag.Parse()

	if *example {
		fmt.Println(exampleSpec)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: armsim [-trace out.json] scenario.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	spec, err := scenario.Parse(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var rec *trace.Recorder
	var res *scenario.Result
	if *traceOut != "" {
		rec = trace.NewRecorder(0)
		res, err = spec.Run(rec)
	} else {
		res, err = spec.Run(nil)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("platform %s (%s), %d threads\n", spec.Platform, modeOf(spec), len(spec.Threads))
	fmt.Printf("elapsed: %.0f cycles (%.3f ms simulated)\n", res.Cycles, res.Seconds*1e3)
	fmt.Printf("%-4s %10s %10s %8s %8s %12s\n",
		"thr", "loads", "stores", "misses", "stale", "barrier-stall")
	for i, ts := range res.Threads {
		fmt.Printf("t%-3d %10d %10d %8d %8d %12.1f\n",
			i, ts.Loads, ts.Stores, ts.Misses, ts.StaleReads, ts.BarrierStalled)
	}
	fmt.Println("final values:")
	for _, v := range spec.Vars {
		fmt.Printf("  %-12s = %d\n", v, res.Final[v])
	}

	if rec != nil {
		out, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
		if err := rec.WriteChromeJSON(out); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d events)\n", *traceOut, len(rec.Events()))
	}
}

func modeOf(s *scenario.Spec) string {
	if s.Mode == "" {
		return "WMM"
	}
	return s.Mode
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "armsim:", err)
	os.Exit(1)
}
