package sim

import (
	"runtime"
	"strings"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/topo"
)

// Edge cases of the scheduler: threads finishing while others wait,
// the watchdog firing with several live threads, the store-buffer-full
// retry loop, the dispatch counters, and panics (from a thread body or
// from serving an op) surfacing from Run without leaking goroutines.

func TestThreadFinishesWhileOthersParked(t *testing.T) {
	m := newTestMachine(WMM, 5)
	a, b, c := m.Alloc(1), m.Alloc(1), m.Alloc(1)
	var short, long1, long2 uint64
	// The short thread retires after one op while both long threads
	// still have work pending; finishThread must leave the run heap so
	// the driver serves the new minimum.
	m.Spawn(0, func(th *Thread) {
		short = th.FetchAdd(a, 1)
	})
	m.Spawn(4, func(th *Thread) {
		for i := 0; i < 200; i++ {
			th.Store(b, uint64(i))
			th.Nops(3)
		}
		long1 = th.Load(b)
	})
	m.Spawn(8, func(th *Thread) {
		for i := 0; i < 200; i++ {
			th.Store(c, uint64(i))
			th.Nops(3)
		}
		long2 = th.Load(c)
	})
	elapsed := m.Run()
	if elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", elapsed)
	}
	if short != 0 || long1 != 199 || long2 != 199 {
		t.Fatalf("results = %d, %d, %d; want 0, 199, 199", short, long1, long2)
	}
	if m.Directory().Committed(a) != 1 {
		t.Fatalf("committed(a) = %d, want 1", m.Directory().Committed(a))
	}
}

func TestWatchdogFiresWithThreadsParked(t *testing.T) {
	// Unlike TestWatchdogPanicsOnStuckSpin (one thread, which never
	// hands off), this pins two live threads in the run heap so the
	// watchdog triggers while the other thread is suspended; the panic
	// must still surface from Run on the caller's goroutine.
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
	spin := func(addr uint64) func(*Thread) {
		return func(th *Thread) {
			for th.Load(addr) != 99 { // never satisfied
			}
		}
	}
	m.Spawn(0, spin(a))
	m.Spawn(1, spin(b))
	m.Run()
}

func TestStoreBufferFullRetry(t *testing.T) {
	// A store burst far beyond the buffer capacity forces process to
	// return false (issue stalls until a slot drains); the thread must
	// stay in the run heap with its advanced clock and retry, never
	// losing a store.
	m := newTestMachine(WMM, 9)
	entries := m.cfg.Plat.Cost.StoreBufferEntries
	burst := 6 * entries
	a := m.Alloc(burst)
	peer := m.Alloc(1)
	m.Spawn(0, func(th *Thread) {
		for i := 0; i < burst; i++ {
			th.Store(a+uint64(i)<<6, uint64(i)+1)
		}
	})
	// A second thread keeps the run heap in play so retries exercise
	// the heap-fix path with another thread to hand off to.
	m.Spawn(4, func(th *Thread) {
		for i := 0; i < burst; i++ {
			th.Store(peer, uint64(i))
		}
	})
	m.Run()
	for i := 0; i < burst; i++ {
		if got := m.Directory().Committed(a + uint64(i)<<6); got != uint64(i)+1 {
			t.Fatalf("committed(line %d) = %d, want %d", i, got, i+1)
		}
	}
	if got := m.Stats().MaxStoreBuf; got != entries {
		t.Fatalf("MaxStoreBuf = %d, want the full capacity %d", got, entries)
	}
}

func TestDispatchCountersSolo(t *testing.T) {
	m := newTestMachine(WMM, 1)
	a := m.Alloc(1)
	const ops = 50
	m.Spawn(0, func(th *Thread) {
		for i := 0; i < ops; i++ {
			th.Load(a)
		}
	})
	m.Run()
	s := m.Stats()
	// One thread serves every op: only the first changes the serving
	// thread, everything after runs inline.
	if s.ParkWakes != 1 || s.InlineDispatches != ops-1 {
		t.Fatalf("solo counters = inline %d / wakes %d, want %d / 1",
			s.InlineDispatches, s.ParkWakes, ops-1)
	}
}

func TestDispatchCountersTwoThreads(t *testing.T) {
	run := func() Stats {
		m := newTestMachine(WMM, 13)
		a, b := m.Alloc(1), m.Alloc(1)
		body := func(addr uint64) func(*Thread) {
			return func(th *Thread) {
				for i := 0; i < 100; i++ {
					th.Load(addr)
				}
			}
		}
		m.Spawn(0, body(a))
		m.Spawn(4, body(b))
		m.Run()
		return m.Stats()
	}
	s := run()
	if s.InlineDispatches+s.ParkWakes != 200 {
		t.Fatalf("inline %d + wakes %d = %d, want 200 (one per op)",
			s.InlineDispatches, s.ParkWakes, s.InlineDispatches+s.ParkWakes)
	}
	if s.ParkWakes < 2 {
		t.Fatalf("ParkWakes = %d, want >= 2 with two interleaving threads", s.ParkWakes)
	}
	// The split is derived from the service order, so it must be as
	// deterministic as the rest of Stats.
	if s2 := run(); s2 != s {
		t.Fatalf("dispatch counters not deterministic:\n%+v\n%+v", s, s2)
	}
}

// panicValue runs f and returns what it panicked with (nil if it
// returned normally).
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// errInvariant is a thread body's own panic value; Run must re-raise
// this exact value, not a wrapper.
type errInvariant struct{ thread int }

func (e *errInvariant) Error() string { return "workload invariant broken" }

func TestThreadBodyPanicSurfacesFromRun(t *testing.T) {
	for _, threads := range []int{1, 4} {
		base := runtime.NumGoroutine()
		m := newTestMachine(WMM, 3)
		a := m.Alloc(1)
		want := &errInvariant{}
		for i := 0; i < threads; i++ {
			i := i
			m.Spawn(topo.CoreID(4*i), func(th *Thread) {
				for j := 0; j < 50; j++ {
					th.FetchAdd(a, 1)
					if i == threads-1 && j == 20 {
						panic(want) // between two ops, not inside one
					}
				}
			})
		}
		if got := panicValue(func() { m.Run() }); got != want {
			t.Fatalf("%d threads: Run panicked with %v, want the body's own value", threads, got)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d threads: %d goroutines after the panic, want %d", threads, n, base)
		}
	}
}

func TestThreadBodyPanicBeforeFirstOp(t *testing.T) {
	base := runtime.NumGoroutine()
	m := newTestMachine(WMM, 3)
	a := m.Alloc(1)
	m.Spawn(0, func(th *Thread) { th.Load(a) })
	m.Spawn(4, func(th *Thread) { panic("no first op") })
	m.Spawn(8, func(th *Thread) { th.Load(a) })
	if got := panicValue(m.Settle); got != "no first op" {
		t.Fatalf("Settle panicked with %v, want the body's value", got)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panic, want %d", n, base)
	}
}

// TestFatalLeavesNoGoroutines checks that a fatal raised while serving
// an op (the watchdog, a bad barrier value) unwinds every suspended
// thread: by the time Run's panic arrives the goroutine count is back
// at its baseline, with one live thread and with several, on both
// engines and for a closure parked in an unsatisfiable SpinUntil,
// whose polls the driver serves.
func TestFatalLeavesNoGoroutines(t *testing.T) {
	spinClosure := func(addr uint64) func(*Thread) {
		return func(th *Thread) {
			for th.Load(addr) != 99 { // never satisfied
			}
		}
	}
	// After the leading Nops a lone waiter polls inline on its own
	// coroutine; with peers the driver serves its polls.
	spinUntil := func(addr uint64, acquire bool) func(*Thread) {
		return func(th *Thread) {
			th.Nops(5)
			th.SpinUntil(addr, acquire, SpinEQ, 99, 8) // never satisfied
		}
	}
	badBarrier := func(th *Thread) {
		th.Nops(50)
		th.Barrier(isa.Barrier(250))
	}
	cases := []struct {
		name    string
		want    string
		threads int
		spawn   func(m *Machine, i int, addr uint64)
	}{
		{"watchdog", "watchdog", 1, func(m *Machine, i int, addr uint64) {
			m.Spawn(topo.CoreID(i), spinClosure(addr))
		}},
		{"watchdog", "watchdog", 4, func(m *Machine, i int, addr uint64) {
			m.Spawn(topo.CoreID(i), spinClosure(addr))
		}},
		{"bad-barrier", "unsupported barrier", 1, func(m *Machine, i int, addr uint64) {
			m.Spawn(topo.CoreID(i), badBarrier)
		}},
		{"bad-barrier", "unsupported barrier", 4, func(m *Machine, i int, addr uint64) {
			if i == 0 {
				m.Spawn(0, badBarrier)
				return
			}
			m.Spawn(topo.CoreID(i), spinClosure(addr))
		}},
		{"spin-until-watchdog", "unsatisfiable spin loop", 1, func(m *Machine, i int, addr uint64) {
			m.Spawn(topo.CoreID(i), spinUntil(addr, false))
		}},
		{"spin-until-watchdog", "unsatisfiable spin loop", 4, func(m *Machine, i int, addr uint64) {
			if i%2 == 0 {
				m.Spawn(topo.CoreID(i), spinUntil(addr, i == 0))
				return
			}
			m.Spawn(topo.CoreID(i), spinClosure(addr))
		}},
		{"compiled-watchdog", "watchdog", 4, func(m *Machine, i int, addr uint64) {
			if i == 0 {
				pb := prog.NewBuilder(m.cfg.Plat.Cost.IssueWidth)
				pb.SpinEQ(prog.Abs(addr), 99, 0)
				m.SpawnProgram(0, pb.MustBuild())
				return
			}
			m.Spawn(topo.CoreID(i), spinClosure(addr))
		}},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		m := New(Config{Plat: platform.RaspberryPi4(), Mode: WMM, Seed: 3, MaxTime: 1e6})
		addr := m.Alloc(1)
		for i := 0; i < c.threads; i++ {
			c.spawn(m, i, addr)
		}
		got := panicValue(func() { m.Run() })
		if s, _ := got.(string); !strings.Contains(s, c.want) {
			t.Fatalf("%s/%d threads: Run panicked with %v, want %q", c.name, c.threads, got, c.want)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s/%d threads: %d goroutines after the fatal, want %d", c.name, c.threads, n, base)
		}
	}
}

// TestSpinUntilAllocsPerRun: serving a spin-wait allocates nothing,
// whether the waiter's own coroutine serves its polls or the driver
// does. A machine whose waiters poll a thousand times longer must
// allocate exactly as much per run, so each extra poll and pause
// costs 0 allocations.
func TestSpinUntilAllocsPerRun(t *testing.T) {
	run := func(delay int) func() {
		return func() {
			m := newTestMachine(WMM, 1)
			flag := m.Alloc(1)
			m.Spawn(0, func(th *Thread) {
				th.Nops(delay)
				th.FetchAdd(flag, 1)
			})
			for i := 1; i <= 3; i++ {
				acquire := i == 2
				m.Spawn(topo.CoreID(4*i), func(th *Thread) {
					th.SpinUntil(flag, acquire, SpinEQ, 1, 8)
				})
			}
			m.Run()
		}
	}
	short := testing.AllocsPerRun(10, run(100))
	long := testing.AllocsPerRun(10, run(100_000))
	if long != short {
		t.Fatalf("allocs per run: %v with long waits, %v with short ones; polls must not allocate", long, short)
	}
}
