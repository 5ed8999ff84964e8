// Command litmus samples the classic litmus shapes on a simulated
// platform and prints their outcome histograms: every shape of
// explore.Classic() plus IRIW, with no barriers and with every barrier
// slot filled, under both the weakly-ordered model and TSO. MP with no
// barriers is the paper's Table 1: the anomaly (flag=1 local=0) shows
// under WMM and never under TSO.
//
// Usage:
//
//	litmus [-runs N] [-seed N] [-platform name]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"armbar/internal/explore"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

func main() {
	runs := flag.Int("runs", 1000, "iterations per histogram")
	seed := flag.Int64("seed", 42, "base seed")
	plat := flag.String("platform", "Kunpeng916", "platform model name")
	flag.Parse()

	p := platform.ByName(*plat)
	if p == nil {
		fmt.Fprintf(os.Stderr, "litmus: unknown platform %q\n", *plat)
		os.Exit(2)
	}

	for _, s := range append(explore.Classic(), explore.IRIW()) {
		if c := int(slices.Max(s.Cores)); c >= p.Sys.NumCores() {
			fmt.Fprintf(os.Stderr, "litmus: skipping %s: core %d is not on %s\n", s.Name, c, p.Name)
			continue
		}
		pls := []explore.Placement{0}
		if naive := explore.Naive(s); naive != 0 {
			pls = append(pls, naive)
		}
		for _, pl := range pls {
			for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
				fmt.Println(explore.Sample(p, s, pl, mode, *runs, *seed))
			}
		}
	}
}
