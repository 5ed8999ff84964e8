package sim_test

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// fencedRun drives one small two-thread message-passing machine and
// returns its final virtual time.
func fencedRun(tracer sim.Tracer) (*sim.Machine, float64) {
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 7})
	if tracer != nil {
		m.SetTracer(tracer)
	}
	data, flag := m.Alloc(1), m.Alloc(1)
	m.Spawn(0, func(t *sim.Thread) {
		for i := uint64(1); i <= 30; i++ {
			t.Store(data, i)
			t.Barrier(isa.DMBSt)
			t.Store(flag, i)
			t.Nops(8)
		}
	})
	m.Spawn(32, func(t *sim.Thread) {
		for i := uint64(1); i <= 30; i++ {
			for t.Load(flag) < i {
				t.Nops(4)
			}
			t.Barrier(isa.DMBLd)
			t.Load(data)
		}
	})
	finish := m.Run()
	return m, finish
}

func TestStatsEngineCounters(t *testing.T) {
	m, _ := fencedRun(nil)
	s := m.Stats()
	if s.MaxStoreBuf == 0 {
		t.Error("store-buffer high-water mark never recorded")
	}
	if s.MaxEventHeap == 0 {
		t.Error("event-heap high-water mark never recorded")
	}
	if s.EventAllocs+s.EventReuses != s.Stores {
		t.Errorf("every store schedules one commit event: allocs %d + reuses %d != stores %d",
			s.EventAllocs, s.EventReuses, s.Stores)
	}
	if s.EventReuses == 0 {
		t.Error("free list never hit across 60 stores")
	}
}

// countingTracer counts events without recording them.
type countingTracer struct{ n int }

func (c *countingTracer) Event(sim.TraceEvent) { c.n++ }

func TestMachineTracerFactory(t *testing.T) {
	ct := &countingTracer{}
	sim.SetMachineTracerFactory(func() sim.Tracer { return ct })
	defer sim.SetMachineTracerFactory(nil)
	fencedRun(nil)
	if ct.n == 0 {
		t.Fatal("factory-installed tracer saw no events")
	}
}

func TestObservabilityIsHarmless(t *testing.T) {
	// The same seed must produce the same virtual time and counters
	// dark, with a global profile collector, and with a tracer.
	m, dark := fencedRun(nil)
	sim.SetGlobalProfile(sim.NewProfileCollector())
	mp, profiled := fencedRun(nil)
	sim.SetGlobalProfile(nil)
	mt, traced := fencedRun(&countingTracer{})
	if dark != profiled || dark != traced {
		t.Fatalf("observability changed results: dark %g, profiled %g, traced %g", dark, profiled, traced)
	}
	if mp.Stats() != m.Stats() || mt.Stats() != m.Stats() {
		t.Fatalf("observability changed counters: dark %+v, profiled %+v, traced %+v", m.Stats(), mp.Stats(), mt.Stats())
	}
}
