package locks_test

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/locks"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// BenchmarkLockHandoff is the many-thread closure handoff of `make
// bench-sim`'s hot-path set: 12 threads contend for a ticket lock
// (locks.NewTicket, DMB st unlock barrier) on the closure path, so
// nearly every simulated op changes the serving thread. Most of those
// ops are the waiters' SpinUntil polls, which the driver loop serves
// without a coroutine switch. This is the shape of the closure-driven
// lock, data-structure and fan-in experiments that dominate the cold
// wall. One op is one critical section (lock, counter load and store,
// unlock); the threads share b.N of them.
func BenchmarkLockHandoff(b *testing.B) {
	const threads = 12
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Seed: 1, MaxTime: 1e18})
	lock := locks.NewTicket(m, isa.DMBSt)
	ctr := m.Alloc(1)
	per := (b.N + threads - 1) / threads
	for i := 0; i < threads; i++ {
		m.Spawn(topo.CoreID(4*i), func(t *sim.Thread) {
			for j := 0; j < per; j++ {
				lock.Lock(t)
				t.Store(ctr, t.Load(ctr)+1)
				lock.Unlock(t)
			}
		})
	}
	m.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
	st := m.Stats()
	b.ReportMetric(float64(st.InlineDispatches+st.ParkWakes)/float64(b.N), "simops/op")
}
