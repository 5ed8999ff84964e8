// Trace example: record a producer-consumer exchange on the Kunpeng916
// model, print the per-kind/per-thread cost breakdown and the hottest
// cache lines, and write a Chrome-trace JSON (open in Perfetto or
// chrome://tracing) showing the barrier stalls.
//
// Run with: go run ./examples/trace [out.json]
package main

import (
	"fmt"
	"os"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/trace"
)

func main() {
	rec := trace.NewRecorder(0)
	p := platform.Kunpeng916()
	m := sim.New(sim.Config{Plat: p, Mode: sim.WMM, Seed: 11})
	m.SetTracer(rec)

	data := m.Alloc(1)
	flag := m.Alloc(1)
	const msgs = 100

	m.Spawn(p.Sys.NodeCores(0)[0], func(t *sim.Thread) {
		for i := uint64(1); i <= msgs; i++ {
			t.Nops(40)
			t.Store(data, i*7)
			t.Barrier(isa.DMBSt) // the Obs-2 barrier after the RMR
			t.Store(flag, i)
		}
	})
	m.Spawn(p.Sys.NodeCores(1)[0], func(t *sim.Thread) {
		for i := uint64(1); i <= msgs; i++ {
			t.SpinUntil(flag, false, sim.SpinGE, i, 4)
			t.Barrier(isa.DMBLd)
			t.Load(data)
		}
	})
	cycles := m.Run()

	fmt.Printf("run: %d messages in %.0f cycles (%.1f cycles/msg)\n\n",
		msgs, cycles, cycles/msgs)
	fmt.Print(rec.Summarize().String())

	fmt.Println("\nhot cache lines (commits):")
	for _, h := range rec.HotLines(4) {
		fmt.Printf("  line %4d: %d commits\n", h.Line, h.Commits)
	}

	out := "pilot-trace.json"
	if len(os.Args) > 1 {
		out = os.Args[1]
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := rec.WriteChromeJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Printf("\nChrome trace written to %s (%d events)\n", out, len(rec.Events()))
}
