package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/topo"
)

// Tests of the executor's two op sources and of SpinUntil: the
// differential check of closure threads with hand-written poll loops
// (the reference) against closures waiting with SpinUntil and against
// compiled programs running the same op sequence (identical traces,
// stats, memory, and clock at several seeds), the scheduler edge cases
// — store-buffer-full retry, the watchdog, a program finishing while
// peers still run — rerun through SpawnProgram, and FuzzValidate's
// check that a validated program needs no per-op checking. These run
// under `make race`.

// recTracer records every event for byte-for-byte comparison.
type recTracer struct{ events []TraceEvent }

func (r *recTracer) Event(e TraceEvent) { r.events = append(r.events, e) }

// engine is one way to run a differential workload's threads.
type engine int

const (
	engLoop      engine = iota // closures with hand-written poll loops: the reference
	engSpinUntil               // closures that wait with Thread.SpinUntil
	engCompiled                // compiled programs (SpawnProgram)
	engSpinAny                 // closures that wait with Thread.SpinAny and SpinSweep
)

func (e engine) String() string {
	return [...]string{"loop", "spin-until", "compiled", "spin-any"}[e]
}

// diffRun is one observation of the differential workload: everything
// the machine exposes, so any divergence between engines is caught.
// woke lists, for closure engines, which thread's body ran next after
// each completed wait, so Go code between ops is checked to run at
// the same point of the service sequence. A workload may also record
// what each wait returned, and every thread's final clock.
type diffRun struct {
	elapsed float64
	stats   Stats
	final   []uint64
	events  []TraceEvent
	woke    []int
	waits   []waitResult
	clocks  []float64
}

// spinWait is a closure's spin-wait: the hand-written loop
//
//	for x := load(addr); !cond(x); x = load(addr) { th.Nops(pause) }
//
// under engLoop, SpinUntil otherwise.
func spinWait(th *Thread, eng engine, addr uint64, acquire bool, cmp SpinCmp, v uint64, pause int) uint64 {
	if eng == engSpinUntil {
		return th.SpinUntil(addr, acquire, cmp, v, pause)
	}
	for {
		var x uint64
		if acquire {
			x = th.LoadAcquire(addr)
		} else {
			x = th.Load(addr)
		}
		if cmp == SpinEQ && x == v || cmp == SpinNE && x != v || cmp == SpinGE && x >= v {
			return x
		}
		th.Nops(pause)
	}
}

// runDifferential runs a workload exercising every opcode — ring
// stores and loads in a counted loop, all three load flavors, both
// store flavors, standalone barriers, nops, all three atomics, and a
// cross-thread spin that is the waiter's first op — on one engine and
// returns the full observation.
func runDifferential(t *testing.T, mode Mode, seed int64, eng engine) diffRun {
	t.Helper()
	const iters, lines = 40, 4
	m := newTestMachine(mode, seed)
	tr := &recTracer{}
	m.SetTracer(tr)
	base := m.Alloc(2 * lines)
	ringA := make([]uint64, lines)
	ringB := make([]uint64, lines)
	for k := 0; k < lines; k++ {
		ringA[k] = base + uint64(k)<<6
		ringB[k] = base + uint64(lines+k)<<6
	}
	c := m.Alloc(1)
	d := m.Alloc(1)
	flag := m.Alloc(1)

	if eng == engCompiled {
		b0 := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
		tabA, tabB := b0.Table(ringA), b0.Table(ringB)
		i := b0.Loop(iters)
		b0.Store(prog.Ring(tabA, i), prog.Counter(i))
		b0.Barrier(isa.DMBSt)
		b0.Nops(2)
		b0.LoadAcquirePC(prog.Ring(tabB, i))
		b0.FetchAdd(prog.Abs(c), prog.Imm(1))
		b0.EndLoop()
		b0.StoreRelease(prog.Abs(flag), prog.Imm(1))
		m.SpawnProgram(0, b0.MustBuild())

		b1 := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
		b1.SpinEQ(prog.Abs(flag), 1, 4)
		b1.LoadAcquire(prog.Abs(c))
		b1.Barrier(isa.DMBFull)
		b1.Swap(prog.Abs(d), prog.Imm(9))
		b1.CompareAndSwap(prog.Abs(d), 9, 11)
		b1.Work(5)
		b1.Store(prog.Abs(d), prog.Imm(12))
		m.SpawnProgram(4, b1.MustBuild())
	} else {
		m.Spawn(0, func(th *Thread) {
			for i := 0; i < iters; i++ {
				th.Store(ringA[i%lines], uint64(i))
				th.Barrier(isa.DMBSt)
				th.Nops(2)
				th.LoadAcquirePC(ringB[i%lines])
				th.FetchAdd(c, 1)
			}
			th.StoreRelease(flag, 1)
		})
		m.Spawn(4, func(th *Thread) {
			spinWait(th, eng, flag, false, SpinEQ, 1, 4)
			th.LoadAcquire(c)
			th.Barrier(isa.DMBFull)
			th.Swap(d, 9)
			th.CompareAndSwap(d, 9, 11)
			th.Work(5)
			th.Store(d, 12)
		})
	}
	elapsed := m.Run()

	final := make([]uint64, 0, 2*lines+3)
	dir := m.Directory()
	for k := 0; k < lines; k++ {
		final = append(final, dir.Committed(ringA[k]), dir.Committed(ringB[k]))
	}
	final = append(final, dir.Committed(c), dir.Committed(d), dir.Committed(flag))
	return diffRun{elapsed: elapsed, stats: m.Stats(), final: final, events: tr.events}
}

// runEpochBarrier runs the program shape of package barrier's
// algorithms on one engine: 16 threads on both nodes wait with SpinNE
// for thread 0 to open a start gate, then run rounds of an epoch
// barrier — fetch-add the arrival counter, SpinGE until it reaches
// threads*round — and returns the full observation.
func runEpochBarrier(t *testing.T, mode Mode, seed int64, eng engine) diffRun {
	t.Helper()
	const threads, rounds, pad = 16, 3, 8
	m := newTestMachine(mode, seed)
	tr := &recTracer{}
	m.SetTracer(tr)
	gate, ctr := m.Alloc(1), m.Alloc(1)
	for i := 0; i < threads; i++ {
		core := topo.CoreID(4 * i)
		if eng == engCompiled {
			b := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
			if i == 0 {
				b.Store(prog.Abs(gate), prog.Imm(1))
			} else {
				b.SpinNE(prog.Abs(gate), 0, pad)
			}
			for r := 1; r <= rounds; r++ {
				b.FetchAdd(prog.Abs(ctr), prog.Imm(1))
				b.SpinGE(prog.Abs(ctr), uint64(threads*r), pad)
			}
			m.SpawnProgram(core, b.MustBuild())
			continue
		}
		i := i
		m.Spawn(core, func(th *Thread) {
			if i == 0 {
				th.Store(gate, 1)
			} else {
				spinWait(th, eng, gate, false, SpinNE, 0, pad)
			}
			for r := 1; r <= rounds; r++ {
				th.FetchAdd(ctr, 1)
				spinWait(th, eng, ctr, false, SpinGE, uint64(threads*r), pad)
			}
		})
	}
	elapsed := m.Run()
	dir := m.Directory()
	final := []uint64{dir.Committed(gate), dir.Committed(ctr)}
	return diffRun{elapsed: elapsed, stats: m.Stats(), final: final, events: tr.events}
}

// runSpinFlavors covers every spin-wait flavor: EQ, NE and GE,
// acquire and relaxed, pause 0 and > 0. Each waiter's first op is a
// wait (the priming path), three waiters wake on the same store, one
// wait is satisfied by its first poll, and one is its body's last op.
// After every wait a closure waiter logs its id, so woke records which
// body ran after each completed wait. A compiled waiter cannot feed a
// wait's result into a later op, so where a closure stores the value a
// wait returned, its program stores the constant the wait always
// returns (c only ever holds 0 or 5).
func runSpinFlavors(t *testing.T, mode Mode, seed int64, eng engine) diffRun {
	t.Helper()
	m := newTestMachine(mode, seed)
	tr := &recTracer{}
	m.SetTracer(tr)
	a, b, c, d := m.Alloc(1), m.Alloc(1), m.Alloc(1), m.Alloc(1)
	if eng == engCompiled {
		spawnSpinFlavorPrograms(m, a, b, c, d)
		elapsed := m.Run()
		dir := m.Directory()
		final := []uint64{dir.Committed(a), dir.Committed(b), dir.Committed(c), dir.Committed(d)}
		return diffRun{elapsed: elapsed, stats: m.Stats(), final: final, events: tr.events}
	}
	var woke []int
	wait := func(th *Thread, addr uint64, acquire bool, cmp SpinCmp, v uint64, pause int) uint64 {
		x := spinWait(th, eng, addr, acquire, cmp, v, pause)
		woke = append(woke, th.ID())
		return x
	}
	m.Spawn(0, func(th *Thread) {
		th.Nops(30)
		th.Store(a, 1)
		th.Nops(60)
		th.StoreRelease(b, 7)
		th.Work(40)
		th.FetchAdd(c, 5)
		th.Barrier(isa.DMBFull)
		th.Store(a, 3)
	})
	m.Spawn(4, func(th *Thread) {
		wait(th, a, true, SpinEQ, 1, 0)
		wait(th, b, false, SpinGE, 5, 3)
		x := wait(th, c, true, SpinNE, 0, 8)
		th.Store(d, x)
		wait(th, a, false, SpinEQ, 3, 0)
	})
	m.Spawn(8, func(th *Thread) {
		wait(th, a, false, SpinNE, 0, 5)
		wait(th, a, false, SpinGE, 0, 5) // satisfied by its first poll
		th.Nops(7)
		wait(th, d, true, SpinGE, 5, 1)
		th.Load(b)
	})
	m.Spawn(16, func(th *Thread) {
		wait(th, a, true, SpinGE, 1, 8)
		th.Work(3)
		wait(th, b, true, SpinEQ, 7, 0)
	})
	elapsed := m.Run()
	dir := m.Directory()
	final := []uint64{dir.Committed(a), dir.Committed(b), dir.Committed(c), dir.Committed(d)}
	return diffRun{elapsed: elapsed, stats: m.Stats(), final: final, events: tr.events, woke: woke}
}

// spawnSpinFlavorPrograms spawns runSpinFlavors' threads as compiled
// programs. The builder emits only relaxed polls, so the waiters'
// programs are written out as ops: an acquire poll is a spin op whose
// Bar is LDAR, and its pause is Cyc, pre-scaled like Nops.
func spawnSpinFlavorPrograms(m *Machine, a, b, c, d uint64) {
	iw := m.cfg.Plat.Cost.IssueWidth
	spin := func(code prog.Code, addr uint64, acquire bool, v uint64, pause int) prog.Op {
		op := prog.Op{Code: code, Addr: addr, Val: v, Cyc: float64(pause) / iw}
		if acquire {
			op.Bar = isa.LDAR
		}
		return op
	}
	spawn := func(core topo.CoreID, ops ...prog.Op) { m.SpawnProgram(core, &prog.Program{Ops: ops}) }

	b0 := prog.NewBuilder(iw)
	b0.Nops(30)
	b0.Store(prog.Abs(a), prog.Imm(1))
	b0.Nops(60)
	b0.StoreRelease(prog.Abs(b), prog.Imm(7))
	b0.Work(40)
	b0.FetchAdd(prog.Abs(c), prog.Imm(5))
	b0.Barrier(isa.DMBFull)
	b0.Store(prog.Abs(a), prog.Imm(3))
	m.SpawnProgram(0, b0.MustBuild())

	spawn(4,
		spin(prog.SpinEQ, a, true, 1, 0),
		spin(prog.SpinGE, b, false, 5, 3),
		spin(prog.SpinNE, c, true, 0, 8),
		prog.Op{Code: prog.Store, Addr: d, Val: 5},
		spin(prog.SpinEQ, a, false, 3, 0))
	spawn(8,
		spin(prog.SpinNE, a, false, 0, 5),
		spin(prog.SpinGE, a, false, 0, 5),
		prog.Op{Code: prog.Work, Cyc: 7 / iw},
		spin(prog.SpinGE, d, true, 5, 1),
		prog.Op{Code: prog.Load, Addr: b})
	spawn(16,
		spin(prog.SpinGE, a, true, 1, 8),
		prog.Op{Code: prog.Work, Cyc: 3},
		spin(prog.SpinEQ, b, true, 7, 0))
}

// TestEngineDifferential proves that closures waiting with SpinUntil
// and compiled programs behave byte-identically to closures running
// the same op sequence with hand-written loops: same traced event
// sequence, same stats, same final memory, same clock, and (for the
// closure engines) same wake order — for each input, in both memory
// modes, at two seeds (the rng draw sequence differs per seed, so
// agreement at both rules out accidental alignment).
func TestEngineDifferential(t *testing.T) {
	inputs := []struct {
		name    string
		run     func(t *testing.T, mode Mode, seed int64, eng engine) diffRun
		engines []engine // compared against engLoop
	}{
		{"opcodes", runDifferential, []engine{engSpinUntil, engCompiled}},
		{"epoch-barrier", runEpochBarrier, []engine{engSpinUntil, engCompiled}},
		{"spin-flavors", runSpinFlavors, []engine{engSpinUntil, engCompiled}},
	}
	for _, in := range inputs {
		for _, mode := range []Mode{WMM, TSO} {
			for _, seed := range []int64{42, 7} {
				ref := in.run(t, mode, seed, engLoop)
				for _, eng := range in.engines {
					where := fmt.Sprintf("%s mode %v seed %d", in.name, mode, seed)
					compareRuns(t, where, eng, ref, in.run(t, mode, seed, eng))
				}
			}
		}
	}
}

// compareRuns fails the test on the first observation in which got
// (from eng) differs from the reference loop run.
func compareRuns(t *testing.T, where string, eng engine, ref, got diffRun) {
	t.Helper()
	if ref.elapsed != got.elapsed {
		t.Errorf("%s: elapsed loop %v != %v %v", where, ref.elapsed, eng, got.elapsed)
	}
	if ref.stats != got.stats {
		t.Errorf("%s: stats diverge\nloop: %+v\n%v: %+v", where, ref.stats, eng, got.stats)
	}
	if !reflect.DeepEqual(ref.final, got.final) {
		t.Errorf("%s: final memory diverges\nloop: %v\n%v: %v", where, ref.final, eng, got.final)
	}
	if eng != engCompiled && !reflect.DeepEqual(ref.woke, got.woke) {
		t.Errorf("%s: wake order diverges\nloop: %v\n%v: %v", where, ref.woke, eng, got.woke)
	}
	if !reflect.DeepEqual(ref.waits, got.waits) {
		t.Errorf("%s: wait results diverge\nloop: %v\n%v: %v", where, ref.waits, eng, got.waits)
	}
	if !reflect.DeepEqual(ref.clocks, got.clocks) {
		t.Errorf("%s: thread clocks diverge\nloop: %v\n%v: %v", where, ref.clocks, eng, got.clocks)
	}
	if !reflect.DeepEqual(ref.events, got.events) {
		n := min(len(ref.events), len(got.events))
		for i := 0; i < n; i++ {
			if ref.events[i] != got.events[i] {
				t.Fatalf("%s: trace diverges at event %d\nloop: %+v\n%v: %+v",
					where, i, ref.events[i], eng, got.events[i])
			}
		}
		t.Fatalf("%s: trace length %d (loop) != %d (%v)", where, len(ref.events), len(got.events), eng)
	}
}

// TestCompiledSoloMatchesInterp checks a lone compiled thread (the
// driver loop steps it op after op, never handing off) against the
// interpreted solo loop (one coroutine resumed once, processing every
// op inline).
func TestCompiledSoloMatchesInterp(t *testing.T) {
	run := func(compiled bool) (float64, Stats, uint64) {
		m := newTestMachine(WMM, 21)
		a := m.Alloc(1)
		if compiled {
			b := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
			i := b.Loop(300)
			b.Store(prog.Abs(a), prog.Counter(i))
			b.Barrier(isa.DMBSt)
			b.Nops(3)
			b.EndLoop()
			m.SpawnProgram(0, b.MustBuild())
		} else {
			m.Spawn(0, func(th *Thread) {
				for i := 0; i < 300; i++ {
					th.Store(a, uint64(i))
					th.Barrier(isa.DMBSt)
					th.Nops(3)
				}
			})
		}
		return m.Run(), m.Stats(), m.Directory().Committed(a)
	}
	ie, is, iv := run(false)
	ce, cs, cv := run(true)
	if ie != ce || is != cs || iv != cv {
		t.Fatalf("solo runs diverge:\ninterp:   %v %+v %d\ncompiled: %v %+v %d",
			ie, is, iv, ce, cs, cv)
	}
}

// TestCompiledStoreBufferFullRetry is TestStoreBufferFullRetry through
// SpawnProgram: the burst overruns the buffer, execStore returns false
// (clock advanced to the earliest commit), and the thread retries from
// the run heap without losing a store.
func TestCompiledStoreBufferFullRetry(t *testing.T) {
	m := newTestMachine(WMM, 9)
	entries := m.cfg.Plat.Cost.StoreBufferEntries
	burst := 6 * entries
	a := m.Alloc(burst)
	peer := m.Alloc(1)
	ring := make([]uint64, burst)
	for i := range ring {
		ring[i] = a + uint64(i)<<6
	}
	b0 := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
	tab := b0.Table(ring)
	i0 := b0.Loop(burst)
	b0.Store(prog.Ring(tab, i0), prog.Counter(i0))
	b0.EndLoop()
	m.SpawnProgram(0, b0.MustBuild())
	b1 := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
	i1 := b1.Loop(burst)
	b1.Store(prog.Abs(peer), prog.Counter(i1))
	b1.EndLoop()
	m.SpawnProgram(4, b1.MustBuild())
	m.Run()
	for i := 0; i < burst; i++ {
		if got := m.Directory().Committed(ring[i]); got != uint64(i) {
			t.Fatalf("committed(line %d) = %d, want %d", i, got, i)
		}
	}
	if got := m.Stats().MaxStoreBuf; got != entries {
		t.Fatalf("MaxStoreBuf = %d, want the full capacity %d", got, entries)
	}
}

// TestCompiledWatchdogFires pins two compiled spin programs on
// never-satisfied flags; the watchdog must surface from Run on the
// caller's goroutine, same as the interpreted dispatch path.
func TestCompiledWatchdogFires(t *testing.T) {
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
	a, b := m.Alloc(1), m.Alloc(1)
	spin := func(addr uint64) *prog.Program {
		pb := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
		pb.SpinEQ(prog.Abs(addr), 99, 0) // never satisfied
		return pb.MustBuild()
	}
	m.SpawnProgram(0, spin(a))
	m.SpawnProgram(1, spin(b))
	m.Run()
}

// TestCompiledWatchdogFiresSolo covers the driver loop's watchdog
// check with a lone compiled thread.
func TestCompiledWatchdogFiresSolo(t *testing.T) {
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
	pb := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
	pb.SpinEQ(prog.Abs(a), 99, 4)
	m.SpawnProgram(0, pb.MustBuild())
	m.Run()
}

// TestCompiledThreadFinishesWhileOthersParked reruns the
// finish-while-others-run edge case with every thread compiled: the
// short program retires first and finishThread must leave the run heap
// so the driver serves the new minimum.
func TestCompiledThreadFinishesWhileOthersParked(t *testing.T) {
	m := newTestMachine(WMM, 5)
	a, b, c := m.Alloc(1), m.Alloc(1), m.Alloc(1)
	short := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
	short.FetchAdd(prog.Abs(a), prog.Imm(1))
	m.SpawnProgram(0, short.MustBuild())
	long := func(addr uint64) *prog.Program {
		pb := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
		i := pb.Loop(200)
		pb.Store(prog.Abs(addr), prog.Counter(i))
		pb.Nops(3)
		pb.EndLoop()
		pb.Load(prog.Abs(addr))
		return pb.MustBuild()
	}
	m.SpawnProgram(4, long(b))
	m.SpawnProgram(8, long(c))
	if elapsed := m.Run(); elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", elapsed)
	}
	if m.Directory().Committed(a) != 1 {
		t.Fatalf("committed(a) = %d, want 1", m.Directory().Committed(a))
	}
	if got := m.Directory().Committed(b); got != 199 {
		t.Fatalf("committed(b) = %d, want 199", got)
	}
}

// TestMixedEngines runs one compiled and one interpreted thread in the
// same machine — the driver loop serves both kinds from one run heap,
// so the engines must compose.
func TestMixedEngines(t *testing.T) {
	m := newTestMachine(WMM, 17)
	data, flag := m.Alloc(1), m.Alloc(1)
	pb := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
	pb.Store(prog.Abs(data), prog.Imm(77))
	pb.Barrier(isa.DMBSt)
	pb.Store(prog.Abs(flag), prog.Imm(1))
	m.SpawnProgram(0, pb.MustBuild())
	var got uint64
	m.Spawn(4, func(th *Thread) {
		for th.Load(flag) != 1 {
			th.Nops(4)
		}
		th.Barrier(isa.DMBLd)
		got = th.Load(data)
	})
	m.Run()
	if got != 77 {
		t.Fatalf("message passing across engines: got %d, want 77", got)
	}
}

// TestSpawnProgramRejectsInvalid pins the validation contract: a
// hand-built malformed program must be refused before it can run.
func TestSpawnProgramRejectsInvalid(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected SpawnProgram to panic on an invalid program")
		}
	}()
	m := newTestMachine(WMM, 1)
	bad := &prog.Program{Ops: []prog.Op{{Code: prog.Jump, Target: -1}}}
	m.SpawnProgram(0, bad)
}
