package figures_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"armbar/internal/figures"
	"armbar/internal/sim"
)

// TestProfileConservationAcrossFigures is the acceptance gate for the
// cycle-attribution profiler: every cell of the fast subset, rendered
// at two seeds with profiling enabled, must attribute every simulated
// cycle (zero gaps, per-cause sum equal to the engine's own clock sum
// up to floating-point re-association). The run at seed 42 doubles as
// the profiling-on golden check — the rendered bytes must still hash
// to goldenFastDigest, proving the profiler never perturbs simulation
// output.
func TestProfileConservationAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full fast-subset sweep in -short mode")
	}
	pc := sim.NewProfileCollector()
	sim.SetGlobalProfile(pc)
	defer sim.SetGlobalProfile(nil)

	for _, seed := range []int64{42, 7} {
		pc.Reset()
		out := render(figures.Options{Quick: true, Seed: seed}, fastSubset)
		p := pc.Snapshot()
		if p.Machines == 0 {
			t.Fatalf("seed %d: no machines folded into the collector", seed)
		}
		if !p.Conserved() {
			t.Errorf("seed %d: %d attribution gaps across %d machines",
				seed, p.Gaps, p.Machines)
		}
		attr, eng := p.Attributed(), p.EngineCycles
		if rel := math.Abs(attr-eng) / math.Max(eng, 1); rel > 1e-9 {
			t.Errorf("seed %d: attributed %v vs engine %v (rel %v)",
				seed, attr, eng, rel)
		}
		if seed == 42 {
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != goldenFastDigest {
				t.Errorf("profiling-on output digest %s != golden %s — profiler perturbed simulation output",
					got, goldenFastDigest)
			}
		}
	}
}
