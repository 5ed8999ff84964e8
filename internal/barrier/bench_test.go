package barrier_test

import (
	"testing"

	"armbar/internal/barrier"
	"armbar/internal/platform"
)

// The barrier-scaling benchmarks of `make bench-sim`'s hot-path set,
// which `make perfcheck` gates. One op is one thread-round of the
// sense-reversing barrier on the named scale-out preset.

// barrierScale runs the sense-reversing barrier on the n-core
// scale-out preset with the round count sized so one benchmark op is
// one thread-round (rounds*threads >= b.N): ns/op is directly
// comparable across the three core counts, and the simulator's
// one-time growth allocations amortize to zero per op. Program build
// and thread spawn happen with the timer stopped; only machine runs
// are measured.
func barrierScale(b *testing.B, n int) {
	b.ReportAllocs()
	b.ResetTimer()
	for left := (b.N + n - 1) / n; left > 0; left -= barrierRounds {
		b.StopTimer()
		m, err := barrier.Spawn(barrier.SenseReversing, barrier.Config{
			Plat: platform.MustScaleOut(n), Threads: n, Rounds: min(left, barrierRounds), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		m.Settle()
		b.StartTimer()
		m.Run()
	}
}

// barrierRounds caps the rounds one barrierScale machine runs: barrier
// programs unroll every round (5 ops per sense-reversing round), and
// prog.MaxOps bounds a program at 65536 ops. Larger b.N values run
// several machines back to back.
const barrierRounds = 8192

func BenchmarkBarrierScale64(b *testing.B)  { barrierScale(b, 64) }
func BenchmarkBarrierScale256(b *testing.B) { barrierScale(b, 256) }

// BenchmarkBarrierScale1024 is the scale the sharded directory bitsets
// and exponential thread slabs exist for.
func BenchmarkBarrierScale1024(b *testing.B) { barrierScale(b, 1024) }
