package sim

// This file is the closure threads' API and the op semantics. Every
// Thread call stages one prog.Op as the thread's one-op program (op),
// and the executor (compiled.go) serves it through the same opExec
// entry that serves a compiled program's op. The do* functions below
// are what those entries call: the one definition of each simulated
// operation.

import (
	"fmt"

	"armbar/internal/ace"
	"armbar/internal/isa"
	"armbar/internal/prog"
	"armbar/internal/sb"
	"armbar/internal/topo"
)

// ThreadStats counts one thread's activity.
type ThreadStats struct {
	Loads, Stores  uint64
	Misses         uint64
	StaleReads     uint64
	RMRStores      uint64
	BarrierStalled float64
}

// Thread is the handle a simulated thread's closure uses to interact
// with the machine. All methods must be called only from the closure
// passed to Machine.Spawn.
type Thread struct {
	m    *Machine
	id   int
	core topo.CoreID

	now           float64
	buf           sb.Buffer // store buffer, embedded: lives in the machine's thread arena
	syncPoint     float64   // invalidations before this are processed: no stale reads older than it
	storeFloor    float64   // commits of future stores may not precede this
	lastLoadAt    float64   // completion time of the most recent load
	prevLoadIssue float64   // issue time of the most recent load (early-binding horizon)
	lastAddrStore addrTimes // per-address last scheduled commit (per-location coherence)

	finished bool
	stats    ThreadStats

	// Cycle-attribution profiler state (see profile.go). profOn is
	// latched from the machine at spawn; spinning remaps causes to
	// CauseSpin while a spin-wait poll is being served.
	prof     threadProfile
	profOn   bool
	spinning bool

	heapIdx int // position in the machine's run heap; -1 until the thread joins it

	// env is the executor state every op is served from (compiled.go).
	// A compiled thread's (SpawnProgram) env holds its whole program. A
	// closure thread's (Spawn) env runs the one-op program in stage,
	// which each call overwrites, and the thread runs body as a
	// coroutine: next resumes it, stop abandons it, and yield is its
	// side of the switch (see sched.go).
	env   execEnv
	stage [1]prog.Op
	body  func(*Thread)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// newThread initializes a thread in place in the machine's arena: the
// store buffer and the per-address commit table are embedded values
// with inline backing, so spawning a thread costs one slab slot
// instead of several separate heap objects.
func newThread(m *Machine, id int, core topo.CoreID) *Thread {
	t := m.threadSlot()
	t.m = m
	t.id = id
	t.core = core
	t.buf.Init(m.cost.StoreBufferEntries, m.cfg.Mode == TSO)
	t.lastAddrStore.init()
	t.profOn = m.profc != nil
	t.heapIdx = -1
	return t
}

// run is a closure thread's coroutine: the user body, then retirement.
func (t *Thread) run(yield func(struct{}) bool) {
	t.yield = yield
	t.body(t)
	t.m.finishThread(t)
}

// op stages o as the thread's one-op program and dispatches it: the
// executor serves it exactly as it serves a compiled program's op, and
// returns the result of a load, an atomic or a spin-wait.
func (t *Thread) op(o prog.Op) uint64 {
	t.stage[0] = o
	t.env.pc = 0
	return t.dispatch()
}

// ID returns the thread's index in spawn order.
func (t *Thread) ID() int { return t.id }

// Core returns the core the thread is pinned to.
func (t *Thread) Core() topo.CoreID { return t.core }

// Now returns the thread's current virtual time in cycles. Valid
// between operations.
func (t *Thread) Now() float64 { return t.now }

// Stats returns the thread's counters so far.
func (t *Thread) Stats() ThreadStats { return t.stats }

// Load performs a relaxed 64-bit load.
func (t *Thread) Load(addr uint64) uint64 {
	return t.op(prog.Op{Code: prog.Load, Addr: addr})
}

// LoadAcquire performs an LDAR: a load after which no later access may
// be satisfied before it, acting as an invalidation-processing point.
func (t *Thread) LoadAcquire(addr uint64) uint64 {
	return t.op(prog.Op{Code: prog.LoadAcq, Addr: addr})
}

// LoadAcquirePC performs an ARMv8.3 LDAPR (RCpc acquire, the paper's
// Table-3 footnote): later accesses are ordered after it, but unlike
// LDAR the in-flight window is not reset, so independent misses keep
// overlapping across it.
func (t *Thread) LoadAcquirePC(addr uint64) uint64 {
	return t.op(prog.Op{Code: prog.LoadAcqPC, Addr: addr})
}

// Store performs a relaxed 64-bit store (retires into the store buffer).
func (t *Thread) Store(addr, v uint64) {
	t.op(prog.Op{Code: prog.Store, Addr: addr, Val: v})
}

// StoreRelease performs an STLR: every earlier access is observable
// before the released value is.
func (t *Thread) StoreRelease(addr, v uint64) {
	t.op(prog.Op{Code: prog.StoreRel, Addr: addr, Val: v})
}

// Barrier executes a standalone order-preserving instruction or
// dependency idiom. isa.None is a no-op. LDAR/STLR are not standalone;
// use LoadAcquire/StoreRelease (Barrier(LDAR/STLR) panics).
func (t *Thread) Barrier(b isa.Barrier) {
	if b == isa.None {
		return
	}
	if b == isa.LDAR || b == isa.STLR || b == isa.LDAPR {
		panic("sim: LDAR/LDAPR/STLR are operand barriers; use LoadAcquire/LoadAcquirePC/StoreRelease")
	}
	t.op(prog.Op{Code: prog.Barrier, Bar: b})
}

// Nops executes n trivial ALU instructions (the paper's nop padding).
func (t *Thread) Nops(n int) {
	if n <= 0 {
		return
	}
	t.op(prog.Op{Code: prog.Work, Cyc: float64(n) / t.m.cost.IssueWidth})
}

// Work advances the thread by the given number of cycles of purely
// local computation.
func (t *Thread) Work(cycles float64) {
	if cycles <= 0 {
		return
	}
	t.op(prog.Op{Code: prog.Work, Cyc: cycles})
}

// FetchAdd atomically adds delta to *addr and returns the old value.
// Like ARM LSE atomics it acts directly on the coherent copy (no store
// buffering) and is relaxed: it implies no ordering of other accesses.
func (t *Thread) FetchAdd(addr, delta uint64) uint64 {
	return t.op(prog.Op{Code: prog.FetchAdd, Addr: addr, Val: delta})
}

// Swap atomically stores v and returns the old value (relaxed).
func (t *Thread) Swap(addr, v uint64) uint64 {
	return t.op(prog.Op{Code: prog.Swap, Addr: addr, Val: v})
}

// CompareAndSwap atomically replaces old with new; it reports whether
// the swap happened (relaxed ordering).
func (t *Thread) CompareAndSwap(addr, old, new uint64) bool {
	return t.op(prog.Op{Code: prog.CAS, Addr: addr, Val: old, Val2: new}) == 1
}

// SpinCmp is the exit condition of a spin-wait. Its values follow
// prog's spin codes in order: prog.SpinEQ + prog.Code(c) is the op
// that waits for c.
type SpinCmp uint8

const (
	// SpinEQ waits until the polled value equals v.
	SpinEQ SpinCmp = iota
	// SpinNE waits until the polled value differs from v.
	SpinNE
	// SpinGE waits until the polled value reaches v: the epoch-safe
	// wait on a monotone counter that may move past v between polls.
	SpinGE
)

// holds reports whether polled value x ends a wait for v.
func (c SpinCmp) holds(x, v uint64) bool {
	switch c {
	case SpinEQ:
		return x == v
	case SpinNE:
		return x != v
	}
	return x >= v
}

// SpinUntil polls addr until the value read satisfies cmp against v,
// pausing pause nops between polls, and returns the satisfying value.
// The ops are exactly those of
//
//	for x := load(addr); !cmp(x, v); x = load(addr) { t.Nops(pause) }
//
// with load a LoadAcquire if acquire is set and a Load otherwise, so
// the wait times and outcomes are the loop's. Unlike the loop, the
// whole wait is one staged op, the spin op a compiled program runs:
// once another thread holds the minimum time, the scheduler's driver
// serves the remaining polls and pauses itself and resumes this
// thread's body only after the satisfying poll. Polls attribute to the
// spin_wait profile cause and pauses to work.
func (t *Thread) SpinUntil(addr uint64, acquire bool, cmp SpinCmp, v uint64, pause int) uint64 {
	if cmp > SpinGE {
		badSpinCmp(cmp)
	}
	o := prog.Op{Code: prog.SpinEQ + prog.Code(cmp), Addr: addr, Val: v}
	if acquire {
		o.Bar = isa.LDAR
	}
	if pause > 0 {
		o.Cyc = float64(pause) / t.m.cost.IssueWidth
	}
	return t.op(o)
}

// --- op semantics, shared by every opExec entry (compiled.go) -------

// doRMW implements LSE-style acquire-release atomics (SWPAL, LDADDAL,
// CASAL — the variants lock implementations actually use): the line is
// acquired exclusively (paying the coherence distance) and the
// operation applies to the committed value at the op's processing
// point — the linearization order is the deterministic global
// start-time order. The release half (waiting out the store buffer)
// happened in the caller via clock-advance-and-retry. A CAS returns 1
// if it swapped, 0 if not.
func (m *Machine) doRMW(t *Thread, code prog.Code, addr, value, value2 uint64) uint64 {
	if occ := m.cost.RMWOccupancy; occ > 0 {
		// Occupancy model (scale-out platforms): atomics to one line
		// serialize at the line's home. Queue behind the previous one
		// before reading the committed value.
		if start := m.dir.AcquireAtomic(addr, t.now, occ); start > t.now {
			t.advTo(CauseAtomic, start)
		}
	}
	old := m.dir.Committed(addr)
	commitAt := t.now + 1
	d := m.dir.AccessDistance(t.core, addr)
	t.advBy(CauseAtomic, m.cost.MissLatency(d)+2)
	// Acquire: later loads see at least this point.
	t.syncPoint = t.now
	t.prevLoadIssue = t.now
	t.lastLoadAt = t.now
	t.stats.Loads++
	t.stats.Stores++
	m.stats.Loads++
	m.stats.Stores++
	if m.dir.IsRMR(t.core, addr) {
		t.stats.RMRStores++
		m.stats.RMRStores++
	}
	var result uint64
	switch code {
	case prog.FetchAdd:
		m.dir.CommitStore(t.core, addr, old+value, commitAt, m.invProc())
		result = old
	case prog.Swap:
		m.dir.CommitStore(t.core, addr, value, commitAt, m.invProc())
		result = old
	case prog.CAS:
		if old == value {
			m.dir.CommitStore(t.core, addr, value2, commitAt, m.invProc())
			result = 1
		}
	}
	if c := t.lastAddrStore.get(addr); commitAt > c {
		t.lastAddrStore.put(addr, commitAt)
	}
	return result
}

// doLoad implements relaxed and acquiring loads.
func (m *Machine) doLoad(t *Thread, addr uint64, acquire bool) uint64 {
	t.stats.Loads++
	m.stats.Loads++
	issue := t.now
	var val uint64
	fresh := false
	switch {
	case m.forward(t, addr, &val):
		// Store-to-load forwarding from the own buffer (both modes).
		t.advBy(CauseIssue, 1)
	case m.readCache(t, addr, &val):
		// Served by the local copy (possibly stale in WMM).
		t.advBy(CauseCacheHit, m.cost.CacheHit)
		fresh = m.dir.HasValidCopy(t.core, addr)
	default:
		// Miss: travel to the owner/farthest sharer. Independent misses
		// overlap (memory-level parallelism): with no ordering point
		// since the previous load, this request effectively entered the
		// memory system at that load's issue, so most of its latency has
		// already elapsed while the previous one completed.
		d := m.dir.AccessDistance(t.core, addr)
		lat := m.cost.MissLatency(d)
		if t.prevLoadIssue > t.syncPoint {
			begin := t.prevLoadIssue
			t.advTo(CauseMiss, maxf(begin+lat, t.now+m.cost.CacheHit))
		} else {
			t.advBy(CauseMiss, lat)
		}
		m.dir.Fetch(t.core, addr, t.now) // replaces any stale copy in place
		val = m.dir.Committed(addr)
		t.stats.Misses++
		m.stats.Misses++
		fresh = true
	}
	if fresh && m.cfg.Mode == WMM && !acquire {
		// Out-of-order satisfaction: with no ordering point since the
		// previous load, this load may have issued while the previous
		// one was still in flight, binding its value as of that earlier
		// time. If the address was committed between the two points the
		// core may (coin flip) observe the pre-commit value — the
		// mechanism behind WMM load-load reordering.
		horizon := maxf(t.syncPoint, t.prevLoadIssue)
		if prev, at := m.dir.PrevCommitted(addr); at > horizon && at <= issue && horizon > 0 &&
			m.dir.Owner(addr) != t.core {
			// Never reorder past the thread's own store: if this core
			// performed the last commit, program order already makes the
			// new value visible.
			if m.rng.Float64() < 0.5 {
				val = prev
				t.stats.StaleReads++
				m.stats.StaleReads++
			}
		}
	}
	t.lastLoadAt = t.now
	if acquire {
		// LDAR: later accesses cannot be satisfied before it; treat as
		// an invalidation-processing point.
		t.syncPoint = t.now
		t.prevLoadIssue = t.now
	} else {
		t.prevLoadIssue = issue
	}
	return val
}

// forward checks the thread's own store buffer.
func (m *Machine) forward(t *Thread, addr uint64, out *uint64) bool {
	v, ok := t.buf.Forward(addr)
	if ok {
		*out = v
	}
	return ok
}

// readCache serves a load from the local copy when permitted. In WMM a
// copy whose invalidation arrived after the thread's last sync point
// remains readable (stale) for InvalidationDelay cycles.
func (m *Machine) readCache(t *Thread, addr uint64, out *uint64) bool {
	cp := m.dir.CopyAt(t.core, addr)
	if cp == nil {
		return false
	}
	if cp.Valid() {
		*out = m.dir.Committed(addr)
		m.stats.Hits++
		return true
	}
	if m.cfg.Mode == TSO {
		return false
	}
	if cp.InvalidatedAt > t.syncPoint && t.now < cp.ProcessAt {
		if v, ok := cp.StaleValue(addr); ok {
			*out = v
		} else {
			*out = m.dir.Committed(addr)
		}
		t.stats.StaleReads++
		m.stats.StaleReads++
		m.stats.Hits++
		return true
	}
	return false
}

// doStore implements relaxed stores and STLR. The caller has already
// ensured the store buffer has room.
func (m *Machine) doStore(t *Thread, addr, value uint64, release bool) {
	t.stats.Stores++
	m.stats.Stores++
	rmr := m.dir.IsRMR(t.core, addr)
	if rmr {
		t.stats.RMRStores++
		m.stats.RMRStores++
	}
	d := m.dir.AccessDistance(t.core, addr)
	miss := 0.0
	if !m.dir.HasValidCopy(t.core, addr) || m.dir.Owner(addr) != t.core {
		miss = m.cost.MissLatency(d)
	}
	commit := t.now + m.cost.DrainDelay + miss
	if m.cfg.Mode == WMM {
		commit += m.rng.Float64() * m.cost.DrainJitter
	}
	if commit < t.storeFloor {
		commit = t.storeFloor
	}
	// Per-location coherence: the thread's own stores to one address
	// must commit in program order even under non-FIFO drain.
	if last := t.lastAddrStore.get(addr); commit <= last {
		commit = last + 1e-6
	}
	if release {
		// STLR: release ordering is a commit-side constraint — the
		// released store becomes visible only after every earlier
		// access. The *pipeline* cost is implementation-defined and
		// unstable (Obs 3): near-free on the Kirin SoCs, DSB-grade on
		// Kunpeng916 and the Pi; the platform's penalty band models
		// that stall.
		floor := maxf(t.buf.MaxCommit(), t.lastLoadAt)
		if floor >= commit {
			commit = floor + 1
		}
		pen := m.cost.STLRPenaltyMin +
			m.rng.Float64()*(m.cost.STLRPenaltyMax-m.cost.STLRPenaltyMin)
		t.stats.BarrierStalled += pen
		t.advBy(CauseSTLR, pen)
		if commit < t.now {
			commit = t.now
		}
	}
	t.lastAddrStore.put(addr, commit)
	e := t.buf.Push(addr, value, t.now, commit)
	if occ := t.buf.Len(); occ > m.stats.MaxStoreBuf {
		m.stats.MaxStoreBuf = occ
	}
	t.advBy(CauseIssue, m.cost.StoreBufferLatency)
	ev := m.newEvent()
	ev.time, ev.t, ev.core, ev.sbSeq, ev.addr, ev.value = e.Commit, t, t.core, e.Seq, addr, value
	m.schedule(ev)
}

// doBarrier implements the standalone ordering instructions.
func (m *Machine) doBarrier(t *Thread, b isa.Barrier) {
	start := t.now
	switch b {
	case isa.DMBFull:
		// With snooped stores still outstanding, the DMB waits for them
		// and then for a memory-barrier transaction round trip to the
		// spanned bi-section boundary; empirically it also stalls issue
		// (the paper's Obs 2 pipeline bottleneck), which is what halves
		// throughput at the tipping point (Fig 4). With nothing
		// outstanding the barrier terminates internally (the ACE5
		// recommendation the paper cites) at negligible cost — Obs 1:
		// the substantial impacts come from the memory operations
		// around a barrier, not from the barrier itself.
		if pend := t.buf.MaxCommit(); pend > t.now {
			resp := m.fab.Response(ace.MemoryBarrier, t.now, pend, m.span)
			t.storeFloor = maxf(t.storeFloor, resp)
			t.syncPoint = resp
			t.advTo(CauseDMBFull, resp)
		} else {
			t.syncPoint = t.now
			t.advBy(CauseDMBFull, 2)
		}

	case isa.DMBSt:
		// Does not block non-store instructions; later stores cannot
		// commit before the fence response.
		if pend := t.buf.MaxCommit(); pend > t.now {
			resp := m.fab.Response(ace.MemoryBarrier, t.now, pend, m.span)
			t.storeFloor = maxf(t.storeFloor, resp)
		}
		t.advBy(CauseDMBSt, 1) // issue cost only

	case isa.DMBLd:
		// Loads' completion is known core-locally: no bus transaction.
		t.syncPoint = maxf(t.syncPoint, t.lastLoadAt)
		t.advBy(CauseDMBLd, 2)

	case isa.DSBFull, isa.DSBSt, isa.DSBLd:
		// Blocks *all* later instructions until the synchronization
		// barrier transaction reaches the inner domain boundary; no
		// locality discount, and all options cost alike (Obs 1).
		resp := m.fab.Response(ace.SyncBarrier, t.now, t.buf.MaxCommit(), m.span)
		t.storeFloor = maxf(t.storeFloor, resp)
		t.syncPoint = resp
		t.advTo(CauseDSB, maxf(t.now, resp))

	case isa.ISB:
		t.advBy(CauseISB, m.cost.PipelineFlush)

	case isa.DataDep, isa.CtrlDep:
		// Bogus dependency construction: one ALU op; ordering of the
		// dependent store is automatic (stores never commit before
		// issue, and issue follows the load's completion).
		t.advBy(CauseDep, 1/m.cost.IssueWidth)

	case isa.AddrDep:
		// Orders the following loads after the previous load: the
		// dependent access is satisfied in order, so invalidations up
		// to the load's completion are honored.
		t.syncPoint = maxf(t.syncPoint, t.lastLoadAt)
		t.advBy(CauseDep, 1/m.cost.IssueWidth)

	case isa.CtrlISB:
		t.syncPoint = maxf(t.syncPoint, t.lastLoadAt)
		t.advBy(CauseISB, m.cost.PipelineFlush)

	default:
		badBarrier(b)
	}
	if t.now > start {
		t.stats.BarrierStalled += t.now - start
		m.stats.BarrierStalls += t.now - start
	}
}

// badBarrier and badSpinCmp report malformed closure calls. They live
// outside the op paths so those carry no fmt machinery or
// panic-operand boxing.
//
//go:noinline
func badBarrier(b isa.Barrier) {
	panic(fmt.Sprintf("sim: unsupported barrier %v", b))
}

//go:noinline
func badSpinCmp(c SpinCmp) {
	panic(fmt.Sprintf("sim: bad spin condition %d", c))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
