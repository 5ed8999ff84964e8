// Package sim is an execution-driven, discrete-event simulator of an
// ARM-style weakly-ordered multiprocessor. Simulated threads are
// ordinary Go closures running against a *Thread handle, or compiled
// micro-op programs (package prog); each closure call stages one
// prog.Op, so one executor serves both (see compiled.go). One driver
// loop on the goroutine that calls Run serves every memory access,
// barrier, or batch of local work in global (virtual time, thread id)
// order (see sched.go). A closure thread is a coroutine that executes
// its own ops inline while it is the thread with the smallest virtual
// time, and yields to the driver only when another thread must run
// first; the driver then serves the yielded op, including every poll
// of a SpinUntil wait. Given one seed, a run is fully deterministic.
//
// The model implements the mechanisms the paper identifies as the
// sources of barrier cost on real ARM silicon:
//
//   - per-core bounded store buffers with non-FIFO drain (WMM mode) or
//     forced in-order drain (TSO mode);
//   - a coherence directory where lines ping-pong between cores, making
//     accesses remote memory references (RMRs) with distance-dependent
//     latency;
//   - delayed invalidation processing, so loads can observe stale values
//     until an ordering point (the observable face of load reordering);
//   - ACE barrier transactions: DMB waits for outstanding snoops plus a
//     round trip to the bi-section boundary spanned by the communicating
//     cores, DSB always pays the trip to the domain boundary.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"armbar/internal/ace"
	"armbar/internal/mesi"
	"armbar/internal/platform"
	"armbar/internal/topo"
)

// Mode selects the memory consistency model being simulated.
type Mode int

const (
	// WMM is the ARM weakly-ordered memory model.
	WMM Mode = iota
	// TSO is total store order (x86-like): FIFO store buffer with
	// forwarding, no stale reads.
	TSO
)

func (m Mode) String() string {
	if m == TSO {
		return "TSO"
	}
	return "WMM"
}

// Config parameterizes a Machine.
type Config struct {
	Plat *platform.Platform
	Mode Mode
	Seed int64
	// MaxTime aborts the run (with a panic describing the stuck state)
	// when any thread's virtual time exceeds it. Zero means the default
	// of 50e9 cycles.
	MaxTime float64
}

// Stats aggregates machine-wide counters for one run.
type Stats struct {
	Loads         uint64
	Stores        uint64
	Hits          uint64
	Misses        uint64
	StaleReads    uint64
	RMRStores     uint64
	BarrierStalls float64 // total cycles threads spent blocked in barriers
	MemTxns       uint64
	SyncTxns      uint64

	// Engine health counters (free with the scheduler's bookkeeping;
	// they feed the observability layer, see MetricsInto).
	EventAllocs  uint64 // commit events allocated fresh
	EventReuses  uint64 // commit events served from the free list
	MaxEventHeap int    // high-water pending-commit heap depth
	MaxStoreBuf  int    // high-water store-buffer occupancy (any thread)

	// Scheduler counters, derived from the service sequence (see
	// noteServed): an op whose thread also ran the previous op was
	// processed inline with no handoff; a change of serving thread
	// implies one handoff (historically one park and one wake).
	InlineDispatches uint64
	ParkWakes        uint64
}

// Machine is one simulated multiprocessor run.
type Machine struct {
	cfg  Config
	sys  *topo.System
	cost *platform.CostModel
	dir  *mesi.Directory
	fab  *ace.Fabric
	rng  *rand.Rand

	threads []*Thread
	span    topo.Distance // widest distance among spawned threads' cores

	// Arena slabs: threads and commit events are carved out of chunked
	// slabs owned by the machine, so constructing a machine for one
	// experiment cell performs a handful of slab allocations instead of
	// one heap object per thread and per in-flight store. Pointers into
	// a chunk stay valid because chunks are never reallocated, only new
	// ones appended. Thread slabs grow exponentially (threadChunkMin up
	// to threadChunkMax) so a 1024-thread machine costs a handful of
	// allocations.
	threadArena []Thread
	threadSlab  int // next thread slab size (0 = start at threadChunkMin)
	evArena     []event

	events  eventHeap
	eventSq uint64
	freeEv  []*event // recycled commit events (see newEvent/recycle)

	// Scheduler state (sched.go). Only the driver loop and the thread
	// it is serving touch the machine, one at a time, so nothing here
	// needs a lock.
	runq       runHeap // live primed threads, keyed on (now, id)
	primed     int     // threads[:primed] have been started up to their first op
	lastServed *Thread // previous op's thread (see noteServed)
	finish     float64 // max thread completion time so far
	started    bool

	nextAddr uint64
	stats    Stats   // snapshot readable after Run (see Stats)
	now      float64 // time of the last processed operation
	tracer   Tracer
	profc    *ProfileCollector // latched from SetGlobalProfile at New; nil = dark
}

// New creates a machine for the given configuration.
func New(cfg Config) *Machine {
	if cfg.Plat == nil {
		panic("sim: Config.Plat is required")
	}
	if cfg.MaxTime == 0 {
		cfg.MaxTime = 50e9
	}
	m := &Machine{
		cfg:      cfg,
		sys:      cfg.Plat.Sys,
		cost:     &cfg.Plat.Cost,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nextAddr: 1 << mesi.LineShift, // keep address 0 unused
	}
	m.dir = mesi.NewDirectory(m.sys)
	m.fab = ace.NewFabric(m.sys, m.cost)
	if f := machineTracerFactory.Load(); f != nil {
		if tr := (*f)(); tr != nil {
			m.tracer = tr
		}
	}
	m.profc = globalProfile.Load()
	return m
}

// Platform returns the platform the machine simulates.
func (m *Machine) Platform() *platform.Platform { return m.cfg.Plat }

// Mode returns the consistency model in effect.
func (m *Machine) Mode() Mode { return m.cfg.Mode }

// Directory exposes the coherence directory (read-only use intended).
func (m *Machine) Directory() *mesi.Directory { return m.dir }

// Alloc reserves n consecutive cache lines and returns the address of
// the first line. Each line is 64 bytes; place at most eight 8-byte
// variables per line, or use one line per variable to avoid false
// sharing.
func (m *Machine) Alloc(lines int) uint64 {
	if lines <= 0 {
		panic("sim: Alloc needs a positive line count")
	}
	a := m.nextAddr
	m.nextAddr += uint64(lines) << mesi.LineShift
	return a
}

// SetInitial initializes committed memory before the run starts.
func (m *Machine) SetInitial(addr, v uint64) {
	if m.started {
		panic("sim: SetInitial after Run")
	}
	m.dir.SetInitial(addr, v)
}

// Spawn starts a simulated thread pinned to the given core running fn.
// All Spawn calls must happen before Run. fn runs as a coroutine that
// Run drives (Settle, if called first, runs it up to its first op).
func (m *Machine) Spawn(core topo.CoreID, fn func(*Thread)) *Thread {
	t := m.spawn(core)
	t.body = fn
	t.env.ops = t.stage[:]
	return t
}

// spawn registers a new thread with no body yet (Spawn and
// SpawnProgram attach one).
func (m *Machine) spawn(core topo.CoreID) *Thread {
	if int(core) < 0 || int(core) >= m.sys.NumCores() {
		panic(fmt.Sprintf("sim: core %d out of range", core))
	}
	if m.started {
		panic("sim: Spawn after Run")
	}
	t := newThread(m, len(m.threads), core)
	m.threads = append(m.threads, t)
	return t
}

// Settle primes every spawned thread: each closure runs up to its first
// operation, and no operation is served. Run primes whatever Settle has
// not, so calling it is optional. Benchmarks call it between spawning
// and starting the timer, so the threads' one-time setup (coroutine
// stacks, run-heap growth, whatever a body does before its first op)
// stays out of the measured region. A no-op after Run.
func (m *Machine) Settle() {
	m.guarded(m.prime)
}

// Run serves every spawned thread to completion, each op in global
// min-(now, id) order (see sched.go), and returns the final virtual
// time (the max over thread completion times), in cycles. A panic in a
// thread body, or a fatal condition raised while serving an op (the
// MaxTime watchdog, a bad barrier value), propagates out of Run on the
// caller's goroutine with its original value.
func (m *Machine) Run() float64 {
	if m.started {
		panic("sim: Run called twice")
	}
	m.started = true
	// The communication span decides which bi-section boundary a DMB
	// transaction must reach (Obs 5).
	cores := make([]topo.CoreID, len(m.threads))
	for i, t := range m.threads {
		cores[i] = t.core
	}
	m.span = m.fab.Span(cores)
	m.guarded(m.drive)
	finish := m.finish
	// Drain every remaining commit so directory state is final. The
	// heap yields commits in (time, seq) order directly; no further
	// sorting happens on the drain path.
	for m.events.len() > 0 {
		ev := m.events.pop()
		if ev.time > finish {
			finish = ev.time
		}
		m.apply(ev)
	}
	m.stats.MemTxns = m.fab.MemTxns
	m.stats.SyncTxns = m.fab.SyncTxns
	m.now = finish
	if reg := globalMetrics.Load(); reg != nil {
		m.MetricsInto(reg)
	}
	if m.profc != nil {
		m.profc.fold(m)
	}
	return finish
}

// Stats returns the counters accumulated so far (complete after Run).
// Read it from the goroutine that called Run, not concurrently with it.
func (m *Machine) Stats() Stats { return m.stats }

// Seconds converts a cycle count on this machine to seconds.
func (m *Machine) Seconds(cycles float64) float64 {
	return cycles / (m.cost.FreqGHz * 1e9)
}

// retireStores applies all commit events scheduled at or before t.
func (m *Machine) retireStores(t float64) {
	for m.events.len() > 0 && m.events.min().time <= t {
		m.apply(m.events.pop())
	}
}

func (m *Machine) apply(ev *event) {
	m.dir.CommitStore(ev.core, ev.addr, ev.value, ev.time, m.invProc())
	ev.t.buf.Remove(ev.sbSeq)
	m.emit(ev.t, TraceCommit, ev.addr, ev.time, ev.time, "")
	m.recycle(ev)
}

// maxFreeEvents bounds the free list; the working set is already
// bounded by the sum of all store-buffer capacities, so the cap only
// guards against pathological configurations.
const maxFreeEvents = 1024

// threadChunkMin/Max and eventChunk size the arena slabs. The first
// thread slab covers the common machine shapes (2-thread models, small
// lock sweeps) in one allocation; each further slab doubles, capped so
// the scale-out shapes (64–1024 threads) amortize to a few slabs
// without overshooting by more than one cap's worth of memory. Event
// slabs amortize the pre-freelist warmup of the commit pipeline.
const (
	threadChunkMin = 8
	threadChunkMax = 256
	eventChunk     = 32
)

// threadSlot carves one thread out of the machine's arena, growing the
// slab size exponentially between refills.
func (m *Machine) threadSlot() *Thread {
	if len(m.threadArena) == 0 {
		switch {
		case m.threadSlab == 0:
			m.threadSlab = threadChunkMin
		case m.threadSlab < threadChunkMax:
			m.threadSlab *= 2
		}
		m.threadArena = make([]Thread, m.threadSlab)
	}
	t := &m.threadArena[0]
	m.threadArena = m.threadArena[1:]
	return t
}

// newEvent takes a commit event off the free list, or carves a fresh
// one out of the machine's arena.
func (m *Machine) newEvent() *event {
	if n := len(m.freeEv); n > 0 {
		e := m.freeEv[n-1]
		m.freeEv = m.freeEv[:n-1]
		m.stats.EventReuses++
		return e
	}
	m.stats.EventAllocs++
	if len(m.evArena) == 0 {
		m.evArena = make([]event, eventChunk) //armvet:ignore allocvet — freelist warmup, one slab per eventChunk fresh events
	}
	e := &m.evArena[0]
	m.evArena = m.evArena[1:]
	return e
}

// recycle returns an applied event to the free list.
func (m *Machine) recycle(e *event) {
	if len(m.freeEv) < maxFreeEvents {
		*e = event{}
		m.freeEv = append(m.freeEv, e)
	}
}

// invProc draws how long remote holders keep serving a stale copy
// after a commit: invalidation queues are processed at unpredictable
// points within the window (zero under TSO).
func (m *Machine) invProc() float64 {
	if m.cfg.Mode == TSO {
		return 0
	}
	return m.rng.Float64() * m.cost.InvalidationDelay
}

func (m *Machine) schedule(ev *event) {
	m.eventSq++
	ev.seq = m.eventSq
	m.events.push(ev)
	if d := m.events.len(); d > m.stats.MaxEventHeap {
		m.stats.MaxEventHeap = d
	}
}

func (m *Machine) stuckReport(t *Thread) string {
	var ids []int
	for _, th := range m.threads {
		if !th.finished {
			ids = append(ids, th.id)
		}
	}
	sort.Ints(ids)
	return fmt.Sprintf("sim: watchdog: thread %d (core %d) exceeded MaxTime=%g cycles; live threads %v — likely an unsatisfiable spin loop",
		t.id, t.core, m.cfg.MaxTime, ids)
}
