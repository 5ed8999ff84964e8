package locks

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// TestPilotWaitsAllocsPerRun: once the machine is primed, a Pilot
// delegation client's request allocates nothing: neither an FFWD-P
// client's wait (its receiver's SpinAny, served while the server sweeps
// with SpinSweep) nor a DSM-Synch Pilot client's wait (SpinAny over
// its receiver's probes and the handoff probe), nor the server or
// combiner work between them. Client 0 measures its own requests
// while the other clients keep the lock contended.
func TestPilotWaitsAllocsPerRun(t *testing.T) {
	for _, kind := range []Kind{FFWDPilot, DSMSynchPilot} {
		plat := platform.Kunpeng916()
		m := sim.New(sim.Config{Plat: plat, Mode: sim.WMM, Seed: 42})
		const clients = 4
		lock := New(m, kind, clients, isa.None, [2]isa.Barrier{})
		counter := m.Alloc(1)
		cs := func(t *sim.Thread, arg uint64) uint64 {
			c := t.Load(counter)
			t.Nops(40)
			t.Store(counter, c+1)
			return c + 1
		}
		cores, server := plat.Sys.InterleaveCores(clients)
		allocs, measured := -1.0, false
		Run(m, []Lock{lock}, cores, server, func(th *sim.Thread, i int) {
			if i > 0 {
				for !measured {
					lock.Exec(th, i, cs, 0)
				}
				return
			}
			for op := 0; op < 20; op++ {
				lock.Exec(th, 0, cs, 0)
			}
			allocs = testing.AllocsPerRun(200, func() { lock.Exec(th, 0, cs, 0) })
			measured = true
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocations per request once primed, want 0", kind, allocs)
		}
	}
}
