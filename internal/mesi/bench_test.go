package mesi_test

import (
	"testing"

	"armbar/internal/mesi"
	"armbar/internal/platform"
	"armbar/internal/topo"
)

// Both benchmarks drive the sharded sharer bitsets of the directory at
// the 1024-core preset; they are part of `make bench-sim`'s hot-path
// set, which `make perfcheck` gates.

// BenchmarkDirectoryRank1024 measures the sharer-bitset rank lookup at
// maximum occupancy: CopyAt on a line all 1024 cores of the largest
// scale-out preset share. rank walks the summary-pruned bitset words —
// this is the per-access cost every load/commit/invalidate pays at
// full fan-in, and it must stay allocation-free (allocvet pins rank,
// lineBits and sharerWord).
func BenchmarkDirectoryRank1024(b *testing.B) {
	plat := platform.MustScaleOut(1024)
	d := mesi.NewDirectory(plat.Sys)
	n := plat.Sys.NumCores()
	const addr = 64
	for c := 0; c < n; c++ {
		d.Fetch(topo.CoreID(c), addr, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.CopyAt(topo.CoreID(i&(n-1)), addr) == nil {
			b.Fatal("seeded sharer missing")
		}
	}
}

// BenchmarkDirectorySharerChurn1024 measures the invalidate-refetch
// churn path on a fully shared line: per op one core drops its copy
// and fetches it back, paying two rank walks, the bitset clear/set,
// and the ordered-copies splice. The copies slice reaches its
// 1024-slot capacity during setup, so steady state allocates nothing.
func BenchmarkDirectorySharerChurn1024(b *testing.B) {
	plat := platform.MustScaleOut(1024)
	d := mesi.NewDirectory(plat.Sys)
	n := plat.Sys.NumCores()
	const addr = 64
	for c := 0; c < n; c++ {
		d.Fetch(topo.CoreID(c), addr, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := topo.CoreID(i & (n - 1))
		d.DropCopy(core, addr)
		d.Fetch(core, addr, float64(i))
	}
}
