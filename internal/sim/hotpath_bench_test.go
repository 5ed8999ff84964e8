package sim_test

import (
	"testing"

	"armbar/internal/simbench"
)

// The simulator hot-path microbenchmark bodies live in
// internal/simbench so the `armbar perfcheck` regression gate can
// rerun exactly what these wrappers measure. Regenerate the committed
// snapshot with `make bench-snapshot` (BENCH_sim.json); the wrapper
// names here must match its entries.

func BenchmarkRendezvousTwoThreads(b *testing.B) { simbench.RendezvousTwoThreads(b) }
func BenchmarkStoreCommit(b *testing.B)          { simbench.StoreCommit(b) }
func BenchmarkStoreDMBFull(b *testing.B)         { simbench.StoreDMBFull(b) }
func BenchmarkCompiledDispatch(b *testing.B)     { simbench.CompiledDispatch(b) }
