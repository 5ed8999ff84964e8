package explore_test

import (
	"testing"

	"armbar/internal/explore"
	"armbar/internal/sim"
)

// BenchmarkExploreStates measures the reorder-bounded explorer's
// throughput, one benchmark of `make bench-sim`'s hot-path set: one op
// is a full placement-lattice minimization of the MP and chan shapes
// under both memory models — the unit of work `armvet fencevet` pays
// per shape and the fuzz gate pays per generated program. The
// explorer's packed-state visit loop must stay allocation-free in
// steady state, so the per-op byte count (dominated by the one-time
// visited-table and frontier slabs) stays far below the state count.
func BenchmarkExploreStates(b *testing.B) {
	shapes := []*explore.Shape{explore.MP(), explore.Chan()}
	b.ReportAllocs()
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		for _, s := range shapes {
			for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
				states += explore.Minimize(s, mode, explore.DefaultBound).States
			}
		}
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
}
