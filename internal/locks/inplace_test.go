package locks

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// driveInPlace runs a counter workload under the given constructor.
func driveInPlace(t *testing.T, threads, ops int, mk func(m *sim.Machine) Lock) (bool, float64) {
	t.Helper()
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 13})
	counter := m.Alloc(1)
	shared := m.Alloc(1)
	l := mk(m)
	for i := 0; i < threads; i++ {
		i := i
		m.Spawn(topo.CoreID(i*2%63), func(th *sim.Thread) {
			for op := 0; op < ops; op++ {
				l.Exec(th, i, func(tt *sim.Thread, _ uint64) uint64 {
					v := tt.Load(shared)
					tt.Store(shared, v+1)
					c := tt.Load(counter)
					tt.Store(counter, c+1)
					return c + 1
				}, 0)
				th.Nops(20)
			}
		})
	}
	cycles := m.Run()
	want := uint64(threads * ops)
	ok := m.Directory().Committed(counter) == want &&
		m.Directory().Committed(shared) == want
	return ok, cycles
}

func TestTASMutualExclusion(t *testing.T) {
	ok, _ := driveInPlace(t, 8, 60, func(m *sim.Machine) Lock {
		return NewTAS(m, isa.DMBSt)
	})
	if !ok {
		t.Fatal("TAS lost updates")
	}
}

func TestCLHMutualExclusion(t *testing.T) {
	ok, _ := driveInPlace(t, 8, 60, func(m *sim.Machine) Lock {
		return NewCLH(m, 8, isa.DMBSt)
	})
	if !ok {
		t.Fatal("CLH lost updates")
	}
}

func TestCLHSingleThreadReuse(t *testing.T) {
	// The node-recycling trick must survive many reacquisitions.
	ok, _ := driveInPlace(t, 1, 300, func(m *sim.Machine) Lock {
		return NewCLH(m, 1, isa.DMBSt)
	})
	if !ok {
		t.Fatal("CLH single-thread reuse broken")
	}
}

func TestFCMutualExclusion(t *testing.T) {
	for _, pilot := range []bool{false, true} {
		ok, _ := driveInPlace(t, 8, 60, func(m *sim.Machine) Lock {
			return NewFC(m, 8, pilot, 0)
		})
		if !ok {
			t.Fatalf("flat combining (pilot=%v) lost updates", pilot)
		}
	}
}

func TestFCPilotGain(t *testing.T) {
	// Flat combining serves requests one-by-one (no Y-barrier batching),
	// so Pilot should help like it helps DSMSynch.
	_, plain := driveInPlace(t, 12, 60, func(m *sim.Machine) Lock {
		return NewFC(m, 12, false, 0)
	})
	_, pilot := driveInPlace(t, 12, 60, func(m *sim.Machine) Lock {
		return NewFC(m, 12, true, 0)
	})
	if gain := plain / pilot; gain < 1.02 {
		t.Errorf("FC-P should beat FC at contention: %.3fx", gain)
	}
}

func TestQueueLocksScaleBetterThanTAS(t *testing.T) {
	// The classic scalability story, as the inplace table prints it:
	// with no work between critical sections (its 0-nops column, at
	// -quick's 12 threads and 40 ops), the queue locks' per-waiter
	// spinning beats the global TAS word.
	for _, seed := range []int64{42, 7} {
		tput := map[Kind]float64{}
		for _, k := range []Kind{TAS, MCS, CLH} {
			r := Bench(BenchConfig{Plat: platform.Kunpeng916(), Kind: k,
				Threads: 12, Ops: 40, Seed: seed})
			if !r.Valid {
				t.Fatalf("seed %d: %v lost updates", seed, k)
			}
			tput[k] = r.Throughput()
		}
		if tput[MCS] <= tput[TAS] || tput[CLH] <= tput[TAS] {
			t.Errorf("seed %d: queue locks should beat TAS at 0 nops: TAS %.3g, MCS %.3g, CLH %.3g CS/s",
				seed, tput[TAS], tput[MCS], tput[CLH])
		}
	}

	// With 20 nops between critical sections TAS is fastest here, but
	// the queue locks must stay within 3x of it.
	_, tas := driveInPlace(t, 14, 50, func(m *sim.Machine) Lock {
		return NewTAS(m, isa.DMBSt)
	})
	_, clh := driveInPlace(t, 14, 50, func(m *sim.Machine) Lock {
		return NewCLH(m, 14, isa.DMBSt)
	})
	_, mcs := driveInPlace(t, 14, 50, func(m *sim.Machine) Lock {
		return NewMCS(m, 14, isa.DMBSt)
	})
	if clh > 3*tas && mcs > 3*tas {
		t.Errorf("queue locks should not be drastically worse than TAS: tas=%.0f clh=%.0f mcs=%.0f", tas, clh, mcs)
	}
}
