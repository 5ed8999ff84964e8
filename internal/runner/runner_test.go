package runner

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"armbar/internal/platform"
	"armbar/internal/sim"
)

func TestMapOrderIndependentOfPoolSize(t *testing.T) {
	fn := func(i int) int { return i * i }
	want := Map(nil, 64, fn) // inline sequential baseline
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		got := Map(p, 64, fn)
		p.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestGridShape(t *testing.T) {
	p := New(3)
	defer p.Close()
	g := Grid(p, 4, 5, func(r, c int) int { return 10*r + c })
	if len(g) != 4 {
		t.Fatalf("rows = %d, want 4", len(g))
	}
	for r := range g {
		if len(g[r]) != 5 {
			t.Fatalf("row %d cols = %d, want 5", r, len(g[r]))
		}
		for c := range g[r] {
			if g[r][c] != 10*r+c {
				t.Fatalf("g[%d][%d] = %d", r, c, g[r][c])
			}
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	gid := func() uint64 {
		// Goroutine identity proxy: inline cells must observe the
		// caller's stack-local state, so use a plain side effect.
		return 0
	}
	_ = gid
	ran := false
	f := Submit[int](nil, func() int { ran = true; return 7 })
	if !ran {
		t.Fatal("nil-pool Submit must run the cell before returning")
	}
	if got := f.Get(); got != 7 {
		t.Fatalf("Get = %d, want 7", got)
	}
	if (*Pool)(nil).Workers() != 0 {
		t.Fatal("nil pool must report 0 workers")
	}
	(*Pool)(nil).Close() // must not panic
}

func TestBoundedQueueBackpressure(t *testing.T) {
	p := New(2)
	defer p.Close()
	var inFlight, maxInFlight int64
	var mu sync.Mutex
	release := make(chan struct{})
	var futs []*Future[int]
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	for i := 0; i < 32; i++ {
		futs = append(futs, Submit(p, func() int {
			n := atomic.AddInt64(&inFlight, 1)
			mu.Lock()
			if n > maxInFlight {
				maxInFlight = n
			}
			mu.Unlock()
			<-release
			atomic.AddInt64(&inFlight, -1)
			return 1
		}))
	}
	sum := 0
	for _, f := range futs {
		sum += f.Get()
	}
	if sum != 32 {
		t.Fatalf("sum = %d, want 32", sum)
	}
	if maxInFlight > 2 {
		t.Fatalf("max in-flight cells = %d, want <= 2 workers", maxInFlight)
	}
}

func TestPanicPropagatesToGet(t *testing.T) {
	p := New(2)
	defer p.Close()
	f := Submit(p, func() int { panic("cell boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Get must re-panic a panicked cell")
		}
		if !strings.Contains(strings.ToLower(strings.TrimSpace(asString(r))), "cell boom") {
			t.Fatalf("panic value %v should carry the cell's message", r)
		}
	}()
	f.Get()
}

func asString(v any) string {
	if e, ok := v.(error); ok {
		return e.Error()
	}
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

func TestDefaultSizeIsGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers = %d, want GOMAXPROCS = %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(1)
	p.Close()
	p.Close() // second close must not panic
}

func TestPanicIsolatedToCell(t *testing.T) {
	// One panicking grid cell must fail only its own Future: every
	// other cell completes and the process survives.
	p := New(4)
	defer p.Close()
	const n = 16
	futs := make([]*Future[int], n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = Submit(p, func() int {
			if i == 5 {
				panic("cell 5 boom")
			}
			return i * i
		})
	}
	for i, f := range futs {
		v, err := f.TryGet()
		if i == 5 {
			if err == nil {
				t.Fatal("cell 5 must report its panic as an error")
			}
			if !strings.Contains(err.Error(), "cell 5 boom") {
				t.Fatalf("error lost the panic message: %v", err)
			}
			if !strings.Contains(err.Error(), "runner_test.go") {
				t.Fatalf("error should carry the worker stack, got: %.120s", err.Error())
			}
			if f.Err() == nil {
				t.Fatal("Err must agree with TryGet")
			}
			continue
		}
		if err != nil {
			t.Fatalf("healthy cell %d failed: %v", i, err)
		}
		if v != i*i {
			t.Fatalf("cell %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestSimThreadPanicIsolatedToCell(t *testing.T) {
	// A panic inside a simulated thread's body, between two of its
	// ops, runs on the coroutine Machine.Run drives; it must come out
	// of Run on the worker goroutine and fail only its own cell.
	p := New(2)
	defer p.Close()
	const n = 6
	futs := make([]*Future[uint64], n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = Submit(p, func() uint64 {
			m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Seed: int64(i)})
			ctr := m.Alloc(1)
			for k := 0; k < 3; k++ {
				m.Spawn(0, func(th *sim.Thread) {
					for j := 0; j < 40; j++ {
						if th.FetchAdd(ctr, 1) == 50 && i == 3 {
							panic("sim body boom")
						}
					}
				})
			}
			m.Run()
			return m.Directory().Committed(ctr)
		})
	}
	for i, f := range futs {
		v, err := f.TryGet()
		if i == 3 {
			if err == nil || !strings.Contains(err.Error(), "sim body boom") {
				t.Fatalf("cell 3 must report the thread's panic as an error, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("healthy cell %d failed: %v", i, err)
		}
		if v != 120 {
			t.Fatalf("cell %d counted %d, want 120", i, v)
		}
	}
}

func TestInlinePanicCapturedToo(t *testing.T) {
	f := Submit[int](nil, func() int { panic("inline boom") })
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), "inline boom") {
		t.Fatalf("inline cell panic not captured: %v", err)
	}
}

func TestTasksDoneCounts(t *testing.T) {
	p := New(2)
	defer p.Close()
	Map(p, 10, func(i int) int { return i })
	if got := p.TasksDone(); got != 10 {
		t.Fatalf("TasksDone = %d, want 10", got)
	}
	if (*Pool)(nil).TasksDone() != 0 {
		t.Fatal("nil pool must report 0 tasks")
	}
}
