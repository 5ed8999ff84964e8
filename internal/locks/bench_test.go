package locks_test

import (
	"testing"

	"armbar/internal/simbench"
)

// The benchmark body lives in internal/simbench beside the other
// simulator hot-path benchmarks so `armbar perfcheck` reruns exactly
// what this wrapper measures; scripts/bench_snapshot.sh freezes its
// output into BENCH_sim.json. One op is one ticket-lock critical
// section shared out over 12 closure threads.

func BenchmarkLockHandoff(b *testing.B) { simbench.LockHandoff(b) }
