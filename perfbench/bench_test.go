package main

import (
	"fmt"
	"maps"
	"runtime"
	"testing"
)

// onePass sets a workload up at the given pool width and runs one
// untraced pass, failing the test if any cell failed — a digest that
// differs from golden.json included.
func onePass(t *testing.T, w workload, seed int64, par int) (map[string]uint64, map[string]string) {
	t.Helper()
	b, err := setup(w, seed, par, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.loadGolden(); err != nil {
		t.Fatal(err)
	}
	ps := b.pass()
	if b.failed > 0 {
		t.Fatalf("%s seed %d par %d: %d of %d cells failed", w.name, seed, par, b.failed, b.attempted)
	}
	if !b.golden {
		t.Fatalf("golden.json has no digests for %s at seed %d", w.name, seed)
	}
	return ps.counts(), b.want
}

// TestDeterministicCounts runs one pass of every workload at pool
// widths 1 and nproc, at the dev seed twice at nproc, and requires
// identical deterministic counts and digests, all matching golden.json.
func TestDeterministicCounts(t *testing.T) {
	wide := max(2, runtime.NumCPU())
	for _, seed := range goldenSeeds {
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				counts, digests := onePass(t, w, seed, 1)
				runs := 1
				if seed == goldenSeeds[0] {
					runs = 2
				}
				for i := 0; i < runs; i++ {
					c, d := onePass(t, w, seed, wide)
					if !maps.Equal(counts, c) {
						t.Errorf("counts differ between widths 1 and %d:\n%v\n%v", wide, counts, c)
					}
					if !maps.Equal(digests, d) {
						t.Errorf("digests differ between widths 1 and %d", wide)
					}
				}
			})
		}
	}
}

// TestHeldOutSeedHasOwnDigests checks that the held-out seed's recorded
// digests are its own: every workload whose cells depend on the seed
// records different digests at the two golden seeds.
func TestHeldOutSeedHasOwnDigests(t *testing.T) {
	recorded := func(w workload, seed int64) *bench {
		b, err := setup(w, seed, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b.close()
		if err := b.loadGolden(); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, w := range workloads {
		dev, held := recorded(w, goldenSeeds[0]), recorded(w, goldenSeeds[1])
		if dev.digest() == held.digest() {
			t.Errorf("%s: seeds %d and %d recorded the same digests", w.name, goldenSeeds[0], goldenSeeds[1])
		}
	}
}

// TestBucketRules pins the frame -> host_share bucket rules on
// representative stacks (leaf first).
func TestBucketRules(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn: fn, file: file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("runtime.futex", "os_linux.go"), f("runtime.chanrecv", "chan.go"),
			f("armbar/internal/sim.(*Thread).park", "sched.go"), f("armbar/internal/sim.(*Thread).dispatch", "sched.go")}, "sim_sched"},
		{[]frame{f("sync.(*Mutex).lockSlow", "mutex.go"), f("armbar/internal/sim.(*Thread).exec", "compiled.go")}, "sim_sched"},
		{[]frame{f("armbar/internal/sim.(*Machine).doLoad", "thread.go"),
			f("armbar/internal/sim.(*Thread).dispatch", "sched.go")}, "sim"},
		{[]frame{f("armbar/internal/topo.(*System).Distance", "topo.go"),
			f("armbar/internal/mesi.(*Directory).Read", "mesi.go")}, "mesi"},
		{[]frame{f("armbar/internal/absmodel.GenSafe", "genreq.go"), f("armbar/internal/explore.CheckCase", "fuzz.go")}, "absmodel"},
		{[]frame{f("armbar/internal/absmodel.Run", "absmodel.go")}, "workload"},
		{[]frame{f("runtime.scanobject", "mgcmark.go"), f("runtime.gcDrain", "mgcmark.go")}, "gc"},
		{[]frame{f("runtime.findRunnable", "proc.go"), f("runtime.schedule", "proc.go"), f("runtime.mcall", "asm_amd64.s")}, "go_sched"},
		{[]frame{f("internal/runtime/atomic.(*Uint32).Load", "types.go"), f("runtime.schedule", "proc.go")}, "go_sched"},
		{[]frame{f("runtime.mallocgc", "malloc.go"), f("main.(*passRun).account", "measure.go")}, "harness"},
		{[]frame{f("armbar/internal/runner.Submit[...].func1", "runner.go")}, "runner"},
		{[]frame{f("encoding/gob.(*Decoder).Decode", "decoder.go"), f("armbar/internal/runner.decode[...]", "cache.go"),
			f("armbar/internal/figures.fig2", "figures.go")}, "runner"},
		{[]frame{f("time.Now", "time.go"), f("main.(*cellCtx).time", "measure.go"),
			f("armbar/internal/figures.RunInstrumented", "instrument.go")}, "figures"},
		{[]frame{f("main.(*passRun).run", "measure.go")}, "harness"},
		{[]frame{f("syscall.Syscall", "syscall_linux.go")}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
