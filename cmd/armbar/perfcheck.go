package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"armbar/internal/perfgate"
	"armbar/internal/simbench"
)

// perfcheckMain implements `armbar perfcheck`: rerun the simulator
// hot-path microbenchmarks in-process (via testing.Benchmark, the same
// bodies `go test -bench` measures) and gate them against the
// committed BENCH_sim.json. Exit status 1 means a regression — or an
// improvement so large the committed snapshot went stale and must be
// regenerated with `make bench-snapshot`.
func perfcheckMain(argv []string) int {
	fs := flag.NewFlagSet("perfcheck", flag.ExitOnError)
	snapPath := fs.String("snapshot", "BENCH_sim.json", "committed benchmark snapshot to gate against")
	threshold := fs.Float64("threshold", 1.8, "fail when ns/op exceeds the snapshot by this ratio")
	improve := fs.Float64("improve-threshold", 1.5, "fail when ns/op improves beyond this ratio (stale snapshot; 0 disables)")
	runs := fs.Int("runs", 3, "repetitions per benchmark; the fastest repetition is compared (noise guard)")
	handicap := fs.Float64("handicap", 1, "multiply measured ns/op — inject a synthetic slowdown to demonstrate the gate")
	history := fs.String("history", "BENCH_history.jsonl", "benchmark history (JSONL of snapshots); shown when present, \"\" disables")
	historyN := fs.Int("history-n", 5, "history entries to show")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: armbar perfcheck [-snapshot file] [-threshold x] [-improve-threshold x] [-runs n] [-handicap x] [-history file] [-history-n n]\n")
		fs.PrintDefaults()
	}
	fs.Parse(argv)

	snap, err := perfgate.Load(*snapPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "# gating against %s (%s, %s), %d runs per benchmark\n",
		*snapPath, snap.Date, snap.Go, *runs)
	if snap.ColdWallSeconds > 0 && snap.WarmWallSeconds > 0 {
		fmt.Fprintf(os.Stderr, "# snapshot result-cache context: `-quick all` cold %.1fs, warm %.1fs (%.0f%% of cold)\n",
			snap.ColdWallSeconds, snap.WarmWallSeconds, 100*snap.WarmWallSeconds/snap.ColdWallSeconds)
	}
	// Baseline drift context: how the committed snapshot itself moved
	// across regenerations. Informational — history entries predate the
	// working tree, so only the snapshot comparison below is gated.
	if *history != "" {
		if snaps, err := perfgate.LoadHistory(*history, *historyN); err == nil {
			fmt.Fprintf(os.Stderr, "# snapshot history (%s, last %d of the file):\n", *history, len(snaps))
			for _, line := range strings.Split(strings.TrimRight(perfgate.HistoryTable(snaps), "\n"), "\n") {
				fmt.Fprintf(os.Stderr, "#   %s\n", line)
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "perfcheck: history: %v\n", err)
			return 1
		}
	}

	cur := make([]perfgate.Bench, 0, len(simbench.Benches))
	for _, nb := range simbench.Benches {
		best := perfgate.Bench{Name: nb.Name, NsPerOp: math.Inf(1)}
		for r := 0; r < *runs; r++ {
			res := testing.Benchmark(nb.Fn)
			if res.N == 0 {
				continue
			}
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if ns < best.NsPerOp {
				best.NsPerOp = ns
				best.Iters = int64(res.N)
				best.BytesPerOp = res.AllocedBytesPerOp()
				best.AllocsPerOp = res.AllocsPerOp()
			}
		}
		best.NsPerOp *= *handicap
		fmt.Fprintf(os.Stderr, "# %-32s %10.1f ns/op %6d B/op %4d allocs/op\n",
			best.Name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp)
		cur = append(cur, best)
	}

	deltas, ok := perfgate.Compare(snap, cur, *threshold, *improve)
	fmt.Print(perfgate.Table(deltas, *threshold, *improve))
	if !ok {
		fmt.Println("perfcheck: FAIL — hot-path performance moved beyond the gate (regression, or an improvement that needs a snapshot refresh)")
		return 1
	}
	fmt.Println("perfcheck: OK")
	return 0
}
