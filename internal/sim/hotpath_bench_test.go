package sim_test

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/prog"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// The simulator hot-path microbenchmarks of `make bench-sim`: the
// fixed op-sequence bodies are lowered to micro-op programs, the path
// the figure generators take for such workloads. `make perfcheck`
// (scripts/ab.sh micro) gates them against a base revision, and `make
// bench-snapshot` records them in BENCH_sim.json.

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

// BenchmarkRendezvousTwoThreads interleaves two runnable threads so
// every operation also pays the scheduler's min-(time, id) pick and,
// when service alternates, the handoff between threads.
func BenchmarkRendezvousTwoThreads(b *testing.B) {
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

// BenchmarkStoreCommit drives the buffered-store path end to end:
// issue into the store buffer, schedule the commit event, drain it
// through the event heap, apply it to the directory. With the event
// free list and the arena-backed machine state this allocates nothing
// per store in steady state.
func BenchmarkStoreCommit(b *testing.B) {
	m := newBenchMachine()
	addr := m.Alloc(1)
	spawnLoop(m, 0, b.N, func(pb *prog.Builder, i int) { pb.Store(prog.Abs(addr), prog.Counter(i)) })
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// BenchmarkStoreDMBFull alternates a store with a full barrier, the
// paper's fenced-stream pattern: every barrier waits out the pending
// commit through the ACE fabric model.
func BenchmarkStoreDMBFull(b *testing.B) {
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

// BenchmarkCompiledDispatch measures the program executor's dispatch
// loop in isolation: a solo counted loop of cache-hit loads, stepped op
// by op by the scheduler's driver loop, so the per-op cost is one
// opExec table call plus the load bookkeeping and the free LoopEnd
// fold. allocvet pins every function on this path; the perf gate fails
// if its 0 allocs/op grows.
func BenchmarkCompiledDispatch(b *testing.B) {
	m := newBenchMachine()
	addr := m.Alloc(1)
	spawnLoop(m, 0, b.N, func(pb *prog.Builder, i int) { pb.Load(prog.Abs(addr)) })
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}
