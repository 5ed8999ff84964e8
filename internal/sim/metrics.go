package sim

import (
	"sync/atomic"

	"armbar/internal/metrics"
)

// This file is the simulator's observability seam. Machines stay
// completely dark by default — the hot path pays one nil pointer load
// per Run and nothing per operation — but a process can opt in to two
// hooks before building machines:
//
//   - SetGlobalMetrics(reg): every Machine folds its Stats into reg at
//     the end of Run (a handful of atomic adds per *machine*, not per
//     op), so a grid of thousands of experiment cells aggregates into
//     one registry.
//   - SetMachineTracerFactory(f): every New machine gets f()'s tracer
//     installed, which is how cmd/armbar wires per-op latency
//     histograms (NewMetricsTracer) and the Chrome-trace collector
//     into runs whose machines are created deep inside experiment
//     packages.
//
// Both hooks are process-global by necessity (cells build their own
// machines), atomic for -par safety, and meant to be set once at
// startup by a main package, not toggled mid-run.

var (
	globalMetrics        atomic.Pointer[metrics.Registry]
	machineTracerFactory atomic.Pointer[func() Tracer]
)

// SetGlobalMetrics installs (or, with nil, removes) the registry every
// subsequent Machine.Run reports into.
func SetGlobalMetrics(reg *metrics.Registry) {
	globalMetrics.Store(reg)
}

// SetMachineTracerFactory installs (or, with nil, removes) a factory
// consulted by New: a non-nil returned Tracer is installed on the
// fresh machine as if by SetTracer. The factory runs on whichever
// goroutine builds the machine and must be safe for concurrent use.
func SetMachineTracerFactory(f func() Tracer) {
	if f == nil {
		machineTracerFactory.Store(nil)
		return
	}
	machineTracerFactory.Store(&f)
}

// MetricsInto folds the machine's counters into reg. Run calls it
// automatically when a global registry is installed; it can also be
// called directly after a standalone run.
func (m *Machine) MetricsInto(reg *metrics.Registry) {
	s := m.stats
	reg.Counter("sim_machines_total").Inc()
	reg.Counter("sim_loads_total").Add(s.Loads)
	reg.Counter("sim_stores_total").Add(s.Stores)
	reg.Counter("sim_hits_total").Add(s.Hits)
	reg.Counter("sim_misses_total").Add(s.Misses)
	reg.Counter("sim_stale_reads_total").Add(s.StaleReads)
	reg.Counter("sim_rmr_stores_total").Add(s.RMRStores)
	reg.Counter("sim_mem_txns_total").Add(s.MemTxns)
	reg.Counter("sim_sync_txns_total").Add(s.SyncTxns)
	reg.Counter("sim_event_allocs_total").Add(s.EventAllocs)
	reg.Counter("sim_event_reuses_total").Add(s.EventReuses)
	reg.Counter("sim_inline_dispatches_total").Add(s.InlineDispatches)
	reg.Counter("sim_park_wakes_total").Add(s.ParkWakes)
	reg.Gauge("sim_barrier_stall_cycles_total").Add(s.BarrierStalls)
	reg.Gauge("sim_virtual_cycles_total").Add(m.now)
	reg.Gauge("sim_event_heap_depth_max").Max(float64(s.MaxEventHeap))
	reg.Gauge("sim_store_buffer_occupancy_max").Max(float64(s.MaxStoreBuf))
	if total := s.EventAllocs + s.EventReuses; total > 0 {
		// Cumulative hit rate across every machine reported so far.
		reuses := reg.Counter("sim_event_reuses_total").Value()
		allocs := reg.Counter("sim_event_allocs_total").Value()
		reg.Gauge("sim_event_freelist_hit_rate").Set(
			float64(reuses) / float64(reuses+allocs))
	}
	if total := s.InlineDispatches + s.ParkWakes; total > 0 {
		// Share of ops the scheduler served inline, with no handoff
		// to another thread, cumulative across machines: 1.0 on
		// single-thread machines, lower the more the service order
		// ping-pongs between threads.
		inline := reg.Counter("sim_inline_dispatches_total").Value()
		parked := reg.Counter("sim_park_wakes_total").Value()
		reg.Gauge("sim_inline_dispatch_rate").Set(
			float64(inline) / float64(inline+parked))
	}
}

// opCyclesBounds spans sub-cycle dependency costs up to cross-node
// DSB-grade stalls (~1e6 cycles) in powers of two.
var opCyclesBounds = metrics.ExpBuckets(0.5, 2, 22)

// MetricsTracer is a Tracer that feeds per-kind operation counts and
// latency (simulated cycles) histograms into a registry. One instance
// is safe to share across machines and -par workers: Observe is
// lock-free. Install it per machine with SetTracer, or process-wide
// with SetMachineTracerFactory.
type MetricsTracer struct {
	hists [TraceWork + 1]*metrics.Histogram
}

// NewMetricsTracer builds a tracer over reg, pre-resolving one
// histogram per trace kind so Event never touches the registry lock.
func NewMetricsTracer(reg *metrics.Registry) *MetricsTracer {
	mt := &MetricsTracer{}
	for k := TraceLoad; k <= TraceWork; k++ {
		mt.hists[k] = reg.Histogram(
			"sim_op_cycles{kind=\""+k.String()+"\"}", opCyclesBounds)
	}
	return mt
}

// Event implements Tracer.
func (mt *MetricsTracer) Event(ev TraceEvent) {
	if ev.Kind < 0 || int(ev.Kind) >= len(mt.hists) {
		return
	}
	mt.hists[ev.Kind].Observe(ev.End - ev.Start)
}
