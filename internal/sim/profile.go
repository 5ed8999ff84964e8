package sim

import (
	"sync"
	"sync/atomic"
)

// This file is the cycle-attribution profiler. Every advance of a
// thread's virtual clock is tagged with a Cause — the paper's question
// is precisely *where barrier cycles go*, and aggregate op counts
// cannot separate a DMB's transaction round trip from the coherence
// miss that follows it. Attribution is structural, not sampled: the
// only two ways a thread's clock moves are the advBy / advTo helpers
// below, so the per-cause sums reconstruct the engine's own cycle
// counts exactly.
//
// Conservation invariant. Each thread carries a shadow clock
// (threadProfile.now) updated by the *same* floating-point operation as
// the real clock: advBy applies `+= d` to both, advTo assigns the same
// `to` to both. While every advance goes through a helper the two
// clocks stay bit-identical; a direct `t.now = ...` write anywhere else
// would desynchronize them and be counted as a gap (and its cycles
// surfaced under CauseUnattributed) at the next attribution or at fold
// time. The conservation test therefore asserts gaps == 0 and
// prof.now == t.now with *exact* float64 equality — no tolerance — for
// every thread of every cell. The per-cause sums are only compared to
// the engine total within a tiny relative tolerance, because regrouping
// the same deltas by cause re-associates the additions.
//
// Cost when dark: one bool branch per clock advance (profOn), nothing
// else — no allocation, no atomic, no pointer chase. The golden digest
// test pins that enabling profiling changes no simulated value: the
// helpers perform the identical arithmetic either way and never touch
// the rng.

// Cause classifies one advance of a thread's virtual clock.
type Cause uint8

const (
	// CauseIssue is front-end issue cost: store-buffer retirement of a
	// store, and loads satisfied by store-to-load forwarding.
	CauseIssue Cause = iota
	// CauseCacheHit is a load served by a valid (or readable-stale)
	// local copy.
	CauseCacheHit
	// CauseMiss is the coherence-miss penalty: the distance-dependent
	// travel to the owner or farthest sharer.
	CauseMiss
	// CauseSBDrain is issue stalled on the store buffer: a full buffer
	// waiting for its earliest commit, or an acquire-release atomic
	// waiting for earlier stores to drain.
	CauseSBDrain
	// CauseDMBFull .. CauseDep split barrier stalls by instruction, the
	// paper's per-option cost axis.
	CauseDMBFull
	CauseDMBSt
	CauseDMBLd
	CauseDSB
	CauseISB
	CauseDep
	// CauseSTLR is the implementation-defined STLR pipeline penalty
	// band (Obs 3).
	CauseSTLR
	// CauseAtomic is the exclusive-acquisition cost of LSE atomics.
	CauseAtomic
	// CauseSpin is a spin-wait poll, of a SpinEQ/SpinNE/SpinGE op from
	// a program or of Thread.SpinUntil, SpinAny or SpinSweep (the
	// pauses between polls are CauseWork). It overrides the underlying cause so lock-acquisition
	// spinning is separable from useful loads.
	CauseSpin
	// CauseWork is local computation (Work/Nops).
	CauseWork
	// CauseUnattributed absorbs cycles from clock writes that bypassed
	// the attribution helpers. Always zero while the invariant holds;
	// reported so a future regression is visible rather than silent.
	CauseUnattributed

	// NumCauses sizes per-cause tables.
	NumCauses
)

// causeNames are the snake_case cause keys of the manifest and the
// folded-stacks file.
var causeNames = [NumCauses]string{
	CauseIssue:        "issue",
	CauseCacheHit:     "cache_hit",
	CauseMiss:         "coherence_miss",
	CauseSBDrain:      "store_buffer_drain",
	CauseDMBFull:      "barrier_dmb_full",
	CauseDMBSt:        "barrier_dmb_st",
	CauseDMBLd:        "barrier_dmb_ld",
	CauseDSB:          "barrier_dsb",
	CauseISB:          "barrier_isb",
	CauseDep:          "barrier_dep",
	CauseSTLR:         "barrier_stlr",
	CauseAtomic:       "atomic_rmw",
	CauseSpin:         "spin_wait",
	CauseWork:         "work",
	CauseUnattributed: "unattributed",
}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "invalid"
}

// threadProfile is a thread's attribution table: fixed arrays embedded
// in the Thread (and thus in the machine's thread arena), so profiling
// allocates nothing on any path.
type threadProfile struct {
	cycles [NumCauses]float64
	ops    [NumCauses]uint64
	now    float64 // shadow clock; bit-identical to Thread.now while conserved
	gaps   uint64  // clock writes that bypassed attribution (0 = conserved)
}

// advBy advances the thread's clock by d cycles attributed to c. The
// dark path is the bare `t.now += d` the engine always performed plus
// one predictable branch.
func (t *Thread) advBy(c Cause, d float64) {
	if t.profOn {
		t.attrBy(c, d)
		return
	}
	t.now += d
}

// advTo advances the thread's clock to an absolute time attributed to
// c (barrier responses, store-buffer drain targets).
func (t *Thread) advTo(c Cause, to float64) {
	if t.profOn {
		t.attrTo(c, to)
		return
	}
	t.now = to
}

// attrBy is the profiling-on half of advBy. The `t.now += d` here is
// the same expression the dark path executes, so enabling profiling
// cannot perturb a simulated value; `p.now += d` starts from an equal
// float and applies the identical operation, keeping the shadow clock
// bit-identical.
func (t *Thread) attrBy(c Cause, d float64) {
	p := &t.prof
	if p.now != t.now {
		p.gaps++
		p.cycles[CauseUnattributed] += t.now - p.now
		p.now = t.now
	}
	if t.spinning {
		c = CauseSpin
	}
	p.cycles[c] += d
	p.ops[c]++
	p.now += d
	t.now += d
}

// attrTo is the profiling-on half of advTo: the delta is banked against
// the shadow clock and both clocks are assigned the same absolute time.
func (t *Thread) attrTo(c Cause, to float64) {
	p := &t.prof
	if p.now != t.now {
		p.gaps++
		p.cycles[CauseUnattributed] += t.now - p.now
		p.now = t.now
	}
	if t.spinning {
		c = CauseSpin
	}
	p.cycles[c] += to - p.now
	p.ops[c]++
	p.now = to
	t.now = to
}

// Profile is an aggregated attribution table (one thread, one machine,
// or a whole run).
type Profile struct {
	Cycles [NumCauses]float64
	Ops    [NumCauses]uint64

	Threads  uint64
	Machines uint64

	// Stats sums the machines' counters (the high-water marks are
	// maxima across machines).
	Stats Stats

	// Gaps counts clock writes that bypassed attribution plus threads
	// whose shadow clock disagreed with the engine clock at fold time.
	// Zero means the conservation invariant held exactly.
	Gaps uint64

	// EngineCycles is the sum of final thread clocks as the engine
	// itself reports them — the ground truth the attribution must
	// reconstruct.
	EngineCycles float64
}

// addThread folds one thread's table in. Called after Run, when the
// thread's clocks are final.
func (p *Profile) addThread(t *Thread) {
	for i := range t.prof.cycles {
		p.Cycles[i] += t.prof.cycles[i]
		p.Ops[i] += t.prof.ops[i]
	}
	p.Threads++
	p.Gaps += t.prof.gaps
	if t.prof.now != t.now {
		// A trailing unattributed advance with no later helper call to
		// detect it: surface it the same way.
		p.Gaps++
		p.Cycles[CauseUnattributed] += t.now - t.prof.now
	}
	p.EngineCycles += t.now
}

// Add folds another profile in.
func (p *Profile) Add(o *Profile) {
	for i := range p.Cycles {
		p.Cycles[i] += o.Cycles[i]
		p.Ops[i] += o.Ops[i]
	}
	p.Threads += o.Threads
	p.Machines += o.Machines
	p.Stats.add(&o.Stats)
	p.Gaps += o.Gaps
	p.EngineCycles += o.EngineCycles
}

// add folds o into s: counters sum, high-water marks take the max.
func (s *Stats) add(o *Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.StaleReads += o.StaleReads
	s.RMRStores += o.RMRStores
	s.BarrierStalls += o.BarrierStalls
	s.MemTxns += o.MemTxns
	s.SyncTxns += o.SyncTxns
	s.EventAllocs += o.EventAllocs
	s.EventReuses += o.EventReuses
	s.MaxEventHeap = max(s.MaxEventHeap, o.MaxEventHeap)
	s.MaxStoreBuf = max(s.MaxStoreBuf, o.MaxStoreBuf)
	s.InlineDispatches += o.InlineDispatches
	s.ParkWakes += o.ParkWakes
}

// sub returns s minus o for the counters. The high-water marks come
// back zero: a maximum cannot be differenced.
func (s *Stats) sub(o *Stats) Stats {
	return Stats{
		Loads:            s.Loads - o.Loads,
		Stores:           s.Stores - o.Stores,
		Hits:             s.Hits - o.Hits,
		Misses:           s.Misses - o.Misses,
		StaleReads:       s.StaleReads - o.StaleReads,
		RMRStores:        s.RMRStores - o.RMRStores,
		BarrierStalls:    s.BarrierStalls - o.BarrierStalls,
		MemTxns:          s.MemTxns - o.MemTxns,
		SyncTxns:         s.SyncTxns - o.SyncTxns,
		EventAllocs:      s.EventAllocs - o.EventAllocs,
		EventReuses:      s.EventReuses - o.EventReuses,
		InlineDispatches: s.InlineDispatches - o.InlineDispatches,
		ParkWakes:        s.ParkWakes - o.ParkWakes,
	}
}

// Sub returns p minus o, the attribution delta between two snapshots
// of a cumulative collector (how figures computes per-experiment
// profiles).
func (p Profile) Sub(o Profile) Profile {
	d := p
	for i := range d.Cycles {
		d.Cycles[i] -= o.Cycles[i]
		d.Ops[i] -= o.Ops[i]
	}
	d.Threads -= o.Threads
	d.Machines -= o.Machines
	d.Stats = p.Stats.sub(&o.Stats)
	d.Gaps -= o.Gaps
	d.EngineCycles -= o.EngineCycles
	return d
}

// Attributed returns the per-cause cycle sum, accumulated in taxonomy
// order. It equals EngineCycles up to floating-point re-association
// whenever Conserved reports true.
func (p *Profile) Attributed() float64 {
	var s float64
	for i := range p.Cycles {
		s += p.Cycles[i]
	}
	return s
}

// Conserved reports whether every clock advance was attributed: no
// helper bypasses, and every thread's shadow clock ended bit-identical
// to the engine clock.
func (p *Profile) Conserved() bool { return p.Gaps == 0 }

// CauseCycles is one row of a ProfileReport.
type CauseCycles struct {
	Cause  string  `json:"cause"`
	Cycles float64 `json:"cycles"`
	Ops    uint64  `json:"ops"`
}

// ProfileReport is the JSON shape of a profile (the manifest's
// "profile" section). Causes appear in taxonomy order; causes never
// observed are omitted.
type ProfileReport struct {
	Machines         uint64        `json:"machines"`
	Threads          uint64        `json:"threads"`
	Gaps             uint64        `json:"gaps"`
	EngineCycles     float64       `json:"engine_cycles"`
	AttributedCycles float64       `json:"attributed_cycles"`
	Causes           []CauseCycles `json:"causes"`
	Sim              Stats         `json:"sim"`
}

// Report renders the profile for export.
func (p *Profile) Report() ProfileReport {
	r := ProfileReport{
		Machines:         p.Machines,
		Threads:          p.Threads,
		Gaps:             p.Gaps,
		EngineCycles:     p.EngineCycles,
		AttributedCycles: p.Attributed(),
		Sim:              p.Stats,
	}
	for c := Cause(0); c < NumCauses; c++ {
		if p.Ops[c] == 0 && p.Cycles[c] == 0 {
			continue
		}
		r.Causes = append(r.Causes, CauseCycles{
			Cause:  causeNames[c],
			Cycles: p.Cycles[c],
			Ops:    p.Ops[c],
		})
	}
	return r
}

// CyclesByCause returns the nonzero per-cause cycle totals keyed by
// cause name — the manifest's per-experiment shape.
func (p *Profile) CyclesByCause() map[string]float64 {
	out := make(map[string]float64)
	for c := Cause(0); c < NumCauses; c++ {
		if p.Cycles[c] != 0 {
			out[causeNames[c]] = p.Cycles[c]
		}
	}
	return out
}

// ProfileCollector accumulates profiles across machines. Machines fold
// into it once at the end of Run (one mutex acquisition per *machine*,
// never per op), so a -par grid of cells aggregates into one table.
// The fold also sums each machine's Stats, so a collector carries the
// run's simulator counters next to its cycle attribution.
type ProfileCollector struct {
	mu sync.Mutex
	p  Profile // armvet:guardedby mu
}

// NewProfileCollector returns an empty collector.
func NewProfileCollector() *ProfileCollector {
	return &ProfileCollector{}
}

// fold adds one finished machine's threads. Run calls it after the
// event drain, when thread clocks are final.
func (c *ProfileCollector) fold(m *Machine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.p.Machines++
	c.p.Stats.add(&m.stats)
	for _, t := range m.threads {
		c.p.addThread(t)
	}
}

// Snapshot returns a copy of the accumulated profile.
func (c *ProfileCollector) Snapshot() Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p
}

// Reset clears the collector.
func (c *ProfileCollector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.p = Profile{}
}

// globalProfile is process-global because experiment cells build their
// own machines, atomic for -par safety, and set once at startup (the
// same contract as SetMachineTracerFactory).
var globalProfile atomic.Pointer[ProfileCollector]

// SetGlobalProfile installs (or, with nil, removes) the collector every
// subsequent New machine attributes into. Machines built while it is
// nil stay dark: one bool branch per clock advance, nothing else.
func SetGlobalProfile(c *ProfileCollector) {
	globalProfile.Store(c)
}

// Profile returns this machine's own attribution table (complete after
// Run; same read contract as Stats).
func (m *Machine) Profile() Profile {
	p := Profile{Machines: 1, Stats: m.stats}
	for _, t := range m.threads {
		p.addThread(t)
	}
	return p
}
