package sim

import (
	"reflect"
	"strings"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/prog"
)

// Tests of the compiled engine: the differential check against the
// interpreted engine (identical traces, stats, memory, and clock at
// several seeds), and the scheduler edge cases — store-buffer-full
// retry, the watchdog, a program finishing while peers still run —
// rerun through SpawnProgram. These run under `make race`.

// recTracer records every event for byte-for-byte comparison.
type recTracer struct{ events []TraceEvent }

func (r *recTracer) Event(e TraceEvent) { r.events = append(r.events, e) }

// diffRun is one observation of the differential workload: everything
// the machine exposes, so any divergence between engines is caught.
type diffRun struct {
	elapsed float64
	stats   Stats
	final   []uint64
	events  []TraceEvent
}

// runDifferential runs a workload exercising every opcode — ring
// stores and loads in a counted loop, all three load flavors, both
// store flavors, standalone barriers, nops, all three atomics, and a
// cross-thread spin — on either engine and returns the full
// observation.
func runDifferential(t *testing.T, mode Mode, seed int64, compiled bool) diffRun {
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

	if compiled {
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
			for th.Load(flag) != 1 {
				th.Nops(4)
			}
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

// TestEngineDifferential proves the two engines produce byte-identical
// behavior: same traced event sequence, same stats, same final memory,
// same clock — in both memory modes, at two seeds (the rng draw
// sequence differs per seed, so agreement at both rules out
// accidental alignment).
func TestEngineDifferential(t *testing.T) {
	for _, mode := range []Mode{WMM, TSO} {
		for _, seed := range []int64{42, 7} {
			interp := runDifferential(t, mode, seed, false)
			comp := runDifferential(t, mode, seed, true)
			if interp.elapsed != comp.elapsed {
				t.Errorf("mode %v seed %d: elapsed interp %v != compiled %v",
					mode, seed, interp.elapsed, comp.elapsed)
			}
			if interp.stats != comp.stats {
				t.Errorf("mode %v seed %d: stats diverge\ninterp:   %+v\ncompiled: %+v",
					mode, seed, interp.stats, comp.stats)
			}
			if !reflect.DeepEqual(interp.final, comp.final) {
				t.Errorf("mode %v seed %d: final memory diverges\ninterp:   %v\ncompiled: %v",
					mode, seed, interp.final, comp.final)
			}
			if !reflect.DeepEqual(interp.events, comp.events) {
				n := len(interp.events)
				if len(comp.events) < n {
					n = len(comp.events)
				}
				for i := 0; i < n; i++ {
					if interp.events[i] != comp.events[i] {
						t.Fatalf("mode %v seed %d: trace diverges at event %d\ninterp:   %+v\ncompiled: %+v",
							mode, seed, i, interp.events[i], comp.events[i])
					}
				}
				t.Fatalf("mode %v seed %d: trace length %d (interp) != %d (compiled)",
					mode, seed, len(interp.events), len(comp.events))
			}
		}
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
