// Package simbench defines the simulator hot-path microbenchmarks as
// exported func(*testing.B) bodies so two harnesses share them: the
// conventional `go test -bench` wrappers in internal/sim (whose output
// scripts/bench_snapshot.sh freezes into BENCH_sim.json) and the
// in-process `armbar perfcheck` regression gate, which reruns them via
// testing.Benchmark and compares against that snapshot.
//
// The fixed op-sequence bodies are lowered to micro-op programs, the
// path the figure generators take for such workloads; LockHandoff runs
// closure threads, the path of the data-dependent lock and
// data-structure bodies.
package simbench

import (
	"testing"

	"armbar/internal/barrier"
	"armbar/internal/cellcache"
	"armbar/internal/explore"
	"armbar/internal/isa"
	"armbar/internal/locks"
	"armbar/internal/mesi"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// Bench names one microbenchmark. Name matches the wrapper benchmark
// in internal/sim and the entries of BENCH_sim.json.
type Bench struct {
	Name string
	Fn   func(*testing.B)
}

// Benches is the canonical hot-path set, in snapshot order.
var Benches = []Bench{
	{"BenchmarkRendezvousTwoThreads", RendezvousTwoThreads},
	{"BenchmarkStoreCommit", StoreCommit},
	{"BenchmarkStoreDMBFull", StoreDMBFull},
	{"BenchmarkCompiledDispatch", CompiledDispatch},
	{"BenchmarkCellCacheHit", CellCacheHit},
	{"BenchmarkDirectoryRank1024", DirectoryRank1024},
	{"BenchmarkDirectorySharerChurn1024", DirectorySharerChurn1024},
	{"BenchmarkBarrierScale64", BarrierScale64},
	{"BenchmarkBarrierScale256", BarrierScale256},
	{"BenchmarkBarrierScale1024", BarrierScale1024},
	{"BenchmarkExploreStates", ExploreStates},
	{"BenchmarkLockHandoff", LockHandoff},
}

func newBenchMachine() *sim.Machine {
	return sim.New(sim.Config{Plat: platform.Kunpeng916(), Seed: 1, MaxTime: 1e18})
}

// spawnLoop starts a thread running n iterations of the body that
// lower appends to a counted-loop program.
func spawnLoop(m *sim.Machine, core topo.CoreID, n int, lower func(b *prog.Builder, i int)) {
	b := prog.NewBuilder(platform.Kunpeng916().Cost.IssueWidth)
	i := b.Loop(n)
	lower(b, i)
	b.EndLoop()
	m.SpawnProgram(core, b.MustBuild())
}

// RendezvousTwoThreads interleaves two runnable threads so every
// operation also pays the scheduler's min-(time, id) pick and, when
// service alternates, the handoff between threads.
func RendezvousTwoThreads(b *testing.B) {
	m := newBenchMachine()
	a1, a2 := m.Alloc(1), m.Alloc(1)
	n := b.N / 2
	for k, addr := range []uint64{a1, a2} {
		addr := addr
		spawnLoop(m, topo.CoreID(4*k), n, func(pb *prog.Builder, i int) { pb.Load(prog.Abs(addr)) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// StoreCommit drives the buffered-store path end to end: issue into
// the store buffer, schedule the commit event, drain it through the
// event heap, apply it to the directory. With the event free list and
// the arena-backed machine state this allocates nothing per store in
// steady state.
func StoreCommit(b *testing.B) {
	m := newBenchMachine()
	addr := m.Alloc(1)
	spawnLoop(m, 0, b.N, func(pb *prog.Builder, i int) { pb.Store(prog.Abs(addr), prog.Counter(i)) })
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// StoreDMBFull alternates a store with a full barrier, the paper's
// fenced-stream pattern: every barrier waits out the pending commit
// through the ACE fabric model.
func StoreDMBFull(b *testing.B) {
	m := newBenchMachine()
	addr := m.Alloc(1)
	spawnLoop(m, 0, b.N, func(pb *prog.Builder, i int) {
		pb.Store(prog.Abs(addr), prog.Counter(i))
		pb.Barrier(isa.DMBFull)
	})
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// CompiledDispatch measures the program executor's dispatch loop in
// isolation: a solo counted loop of cache-hit loads, stepped op by op
// by the scheduler's driver loop, so the per-op cost is one opExec
// table call plus the load bookkeeping and the free LoopEnd fold.
// allocvet pins every function on this path; the snapshot pins it at
// 0 allocs/op.
func CompiledDispatch(b *testing.B) {
	m := newBenchMachine()
	addr := m.Alloc(1)
	spawnLoop(m, 0, b.N, func(pb *prog.Builder, i int) { pb.Load(prog.Abs(addr)) })
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// DirectoryRank1024 measures the sharer-bitset rank lookup at maximum
// occupancy: CopyAt on a line all 1024 cores of the largest scale-out
// preset share. rank walks the summary-pruned bitset words — this is
// the per-access cost every load/commit/invalidate pays at full
// fan-in, and it must stay allocation-free (allocvet pins rank,
// lineBits and sharerWord).
func DirectoryRank1024(b *testing.B) {
	plat := platform.MustScaleOut(1024)
	d := mesi.NewDirectory(plat.Sys)
	n := plat.Sys.NumCores()
	const addr = 64
	for c := 0; c < n; c++ {
		d.Fetch(topo.CoreID(c), addr, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.CopyAt(topo.CoreID(i&(n-1)), addr) == nil {
			b.Fatal("seeded sharer missing")
		}
	}
}

// DirectorySharerChurn1024 measures the invalidate-refetch churn path
// on a fully shared line: per op one core drops its copy and fetches
// it back, paying two rank walks, the bitset clear/set, and the
// ordered-copies splice. The copies slice reaches its 1024-slot
// capacity during setup, so steady state allocates nothing.
func DirectorySharerChurn1024(b *testing.B) {
	plat := platform.MustScaleOut(1024)
	d := mesi.NewDirectory(plat.Sys)
	n := plat.Sys.NumCores()
	const addr = 64
	for c := 0; c < n; c++ {
		d.Fetch(topo.CoreID(c), addr, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := topo.CoreID(i & (n - 1))
		d.DropCopy(core, addr)
		d.Fetch(core, addr, float64(i))
	}
}

// barrierScale runs the sense-reversing barrier on the n-core
// scale-out preset with the round count sized so one benchmark op is
// one thread-round (rounds*threads >= b.N): ns/op is directly
// comparable across the three core counts, and the simulator's
// one-time growth allocations amortize to zero per op. Program build
// and thread spawn happen with the timer stopped; only machine runs
// are measured.
func barrierScale(b *testing.B, n int) {
	b.ReportAllocs()
	b.ResetTimer()
	for left := (b.N + n - 1) / n; left > 0; left -= barrierRounds {
		b.StopTimer()
		m, err := barrier.Spawn(barrier.SenseReversing, barrier.Config{
			Plat: platform.MustScaleOut(n), Threads: n, Rounds: min(left, barrierRounds), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		m.Settle()
		b.StartTimer()
		m.Run()
	}
}

// barrierRounds caps the rounds one barrierScale machine runs: barrier
// programs unroll every round (5 ops per sense-reversing round), and
// prog.MaxOps bounds a program at 65536 ops. Larger b.N values run
// several machines back to back.
const barrierRounds = 8192

// BarrierScale64 is the sense-reversing barrier at 64 cores, one
// thread-round per op.
func BarrierScale64(b *testing.B) { barrierScale(b, 64) }

// BarrierScale256 is the sense-reversing barrier at 256 cores.
func BarrierScale256(b *testing.B) { barrierScale(b, 256) }

// BarrierScale1024 is the sense-reversing barrier at 1024 cores — the
// scale the sharded directory bitsets and exponential thread slabs
// exist for.
func BarrierScale1024(b *testing.B) { barrierScale(b, 1024) }

// ExploreStates measures the reorder-bounded explorer's throughput:
// one op is a full placement-lattice minimization of the MP and chan
// shapes under both memory models — the unit of work `armvet fencevet`
// pays per shape and the fuzz gate pays per generated program. The
// explorer's packed-state visit loop must stay allocation-free in
// steady state, so the per-op byte count (dominated by the one-time
// visited-table and frontier slabs) stays far below the state count.
func ExploreStates(b *testing.B) {
	shapes := []*explore.Shape{explore.MP(), explore.Chan()}
	b.ReportAllocs()
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		for _, s := range shapes {
			for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
				states += explore.Minimize(s, mode, explore.DefaultBound).States
			}
		}
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
}

// CellCacheHit measures the result cache's per-cell lookup on a hit —
// the SHA-256 key build plus the map probe every warm cell pays before
// its simulation is skipped. This path must stay at 0 allocs/op (it
// runs once per cell per experiment; allocvet checks keyFor and Get).
func CellCacheHit(b *testing.B) {
	c := cellcache.Open(b.TempDir())
	defer c.Close()
	const scope = "bench#0|quick=true|seed=42|n=8"
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < 8; i++ {
		c.Put(scope, i, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(scope, i&7); !ok {
			b.Fatal("cache miss on a seeded key")
		}
	}
}

// LockHandoff is the many-thread closure handoff: 12 threads contend
// for a ticket lock (locks.NewTicket, DMB st unlock barrier) on the
// closure path, so nearly every simulated op changes the serving
// thread. Most of those ops are the waiters' SpinUntil polls, which
// the driver loop serves without a coroutine switch. This is the shape
// of the closure-driven lock, data-structure and fan-in experiments
// that dominate the cold wall. One op is one critical section (lock,
// counter load and store, unlock); the threads share b.N of them.
func LockHandoff(b *testing.B) {
	const threads = 12
	m := newBenchMachine()
	lock := locks.NewTicket(m, isa.DMBSt)
	ctr := m.Alloc(1)
	per := (b.N + threads - 1) / threads
	for i := 0; i < threads; i++ {
		m.Spawn(topo.CoreID(4*i), func(t *sim.Thread) {
			for j := 0; j < per; j++ {
				lock.Lock(t)
				t.Store(ctr, t.Load(ctr)+1)
				lock.Unlock(t)
			}
		})
	}
	m.Settle()
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
	st := m.Stats()
	b.ReportMetric(float64(st.InlineDispatches+st.ParkWakes)/float64(b.N), "simops/op")
}
