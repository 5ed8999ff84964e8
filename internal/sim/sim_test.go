package sim

import (
	"strings"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/topo"
)

func newTestMachine(mode Mode, seed int64) *Machine {
	return New(Config{Plat: platform.Kunpeng916(), Mode: mode, Seed: seed})
}

func TestSingleThreadLoadStore(t *testing.T) {
	m := newTestMachine(WMM, 1)
	a := m.Alloc(1)
	var got uint64
	m.Spawn(0, func(th *Thread) {
		th.Store(a, 42)
		got = th.Load(a) // must forward from the store buffer
	})
	elapsed := m.Run()
	if got != 42 {
		t.Fatalf("forwarding failed: got %d, want 42", got)
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", elapsed)
	}
	if m.Directory().Committed(a) != 42 {
		t.Fatalf("final committed value = %d, want 42", m.Directory().Committed(a))
	}
}

// TestTwoThreadsMessagePassingWithBarriers checks that both ways of
// ordering message passing forbid the stale read over 300 seeds: a
// DMB st / DMB ld pair, and STLR on the flag with an LDAR spin. The
// consumer warms the data line first, so it holds a copy the
// producer's commit must invalidate.
func TestTwoThreadsMessagePassingWithBarriers(t *testing.T) {
	rows := []struct {
		name    string
		produce func(th *Thread, data, flag uint64)
		consume func(th *Thread, data, flag uint64) uint64
	}{
		{"DMB st / DMB ld", func(th *Thread, data, flag uint64) {
			th.Store(data, 23)
			th.Barrier(isa.DMBSt)
			th.Store(flag, 1)
		}, func(th *Thread, data, flag uint64) uint64 {
			for th.Load(flag) != 1 {
			}
			th.Barrier(isa.DMBLd)
			return th.Load(data)
		}},
		{"STLR / LDAR", func(th *Thread, data, flag uint64) {
			th.Store(data, 23)
			th.StoreRelease(flag, 1)
		}, func(th *Thread, data, flag uint64) uint64 {
			for th.LoadAcquire(flag) != 1 {
			}
			return th.Load(data)
		}},
	}
	for _, row := range rows {
		for seed := int64(1); seed <= 300; seed++ {
			m := newTestMachine(WMM, seed)
			data := m.Alloc(1)
			flag := m.Alloc(1)
			var got uint64
			m.Spawn(0, func(th *Thread) { row.produce(th, data, flag) })
			m.Spawn(32, func(th *Thread) { // other NUMA node
				th.Load(data)
				got = row.consume(th, data, flag)
			})
			m.Run()
			if got != 23 {
				t.Fatalf("%s, seed %d: consumer read %d, want 23", row.name, seed, got)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, Stats) {
		m := newTestMachine(WMM, 7)
		a := m.Alloc(4)
		for i := 0; i < 4; i++ {
			core := i * 8
			m.Spawn(topoCore(core), func(th *Thread) {
				for j := 0; j < 200; j++ {
					th.Store(a+uint64(j%4)*64, uint64(j))
					th.Barrier(isa.DMBFull)
					th.Load(a + uint64((j+1)%4)*64)
					th.Nops(20)
				}
			})
		}
		el := m.Run()
		return el, m.Stats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 {
		t.Fatalf("elapsed differs across identical runs: %v vs %v", e1, e2)
	}
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
}

func TestWatchdogPanicsOnStuckSpin(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected watchdog panic")
		}
		if !strings.Contains(r.(string), "watchdog") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m := New(Config{Plat: platform.RaspberryPi4(), Mode: WMM, Seed: 3, MaxTime: 1e6})
	a := m.Alloc(1)
	m.Spawn(0, func(th *Thread) {
		for th.Load(a) != 99 { // never satisfied
		}
	})
	m.Run()
}

func TestBarrierCostOrdering(t *testing.T) {
	// Obs 1/ordering: DSB > DMB full >= DMB st > DMB ld on a loop with
	// stores around the barrier.
	cost := func(b isa.Barrier) float64 {
		m := newTestMachine(WMM, 11)
		a := m.Alloc(2)
		peer := m.Alloc(2)
		m.Spawn(0, func(th *Thread) {
			for i := 0; i < 300; i++ {
				th.Store(a, uint64(i))
				th.Barrier(b)
				th.Store(a+64, uint64(i))
				th.Nops(10)
			}
		})
		m.Spawn(4, func(th *Thread) {
			for i := 0; i < 300; i++ {
				th.Store(peer, uint64(i))
				th.Nops(10)
			}
		})
		return m.Run()
	}
	dsb := cost(isa.DSBFull)
	full := cost(isa.DMBFull)
	st := cost(isa.DMBSt)
	ld := cost(isa.DMBLd)
	none := cost(isa.None)
	if !(dsb > full && full >= st && st > ld) {
		t.Fatalf("cost ordering violated: DSB=%v DMBfull=%v DMBst=%v DMBld=%v", dsb, full, st, ld)
	}
	if ld < none*0.9 {
		t.Fatalf("DMB ld cheaper than no barrier: %v vs %v", ld, none)
	}
}

// topoCore converts an int to a topo.CoreID.
func topoCore(i int) topo.CoreID { return topo.CoreID(i) }
