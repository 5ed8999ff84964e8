// Package runner is the parallel experiment engine behind cmd/armbar
// and the figure generators. An experiment decomposes into independent
// *cells* — one simulated machine (or a few) per platform × data-point,
// each fully determined by its own configuration and seed — and the
// runner fans the cells out over a fixed-size worker pool, then merges
// the results back in canonical (submission) order.
//
// Because every cell builds its own sim.Machine and shares only
// immutable inputs (topologies, cost models), the merged output is
// byte-identical to a sequential run of the same cells: parallelism
// changes only *when* a cell computes, never *what* it computes. That
// determinism guarantee is regression-tested in determinism_test.go.
//
// A nil *Pool is valid everywhere and means "run cells inline on the
// caller's goroutine" — the sequential baseline costs zero goroutines.
//
// A cell that panics fails only itself: the panic is captured (with
// stack) as an error on its Future, readable through TryGet or Err.
// Get re-raises it on the caller's goroutine for callers that treat a
// failed cell as fatal (Map and Grid do).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool with a bounded submission queue.
// Submissions beyond the queue bound block the submitter (backpressure)
// until a worker frees up; results are delivered through Futures so
// callers can always merge in canonical order.
type Pool struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
	done    atomic.Uint64   // cells completed (including panicked ones)
	labels  context.Context // pprof labels of the cells submitted next (see Label)

	mu     sync.Mutex
	closed bool // armvet:guardedby mu
}

// New returns a pool of the given number of workers. workers <= 0
// means GOMAXPROCS. The submission queue is bounded at twice the
// worker count: enough to keep every worker fed, small enough that a
// producer enumerating a huge grid cannot outrun the consumers.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan func(), 2*workers),
		labels:  context.Background(),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Workers reports the pool size (0 for a nil, inline pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// TasksDone reports how many cells have finished on the pool so far
// (0 for a nil pool). The figure generators use deltas of this counter
// to attribute simulation cells to experiments.
func (p *Pool) TasksDone() uint64 {
	if p == nil {
		return 0
	}
	return p.done.Load()
}

// Label runs every cell submitted from now on under the pprof labels
// of ctx (set with pprof.Do or pprof.WithLabels), so a CPU profile
// attributes a worker's samples to the labels of the code that
// submitted the cell. Like Submit, it belongs to the assembling
// goroutine. On a nil pool, cells run on the submitter's goroutine
// under its own labels, and Label does nothing.
func (p *Pool) Label(ctx context.Context) {
	if p != nil {
		p.labels = ctx
	}
}

// Close stops accepting work and waits for in-flight cells to finish.
// Close on a nil pool, or a second Close, is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Future is the pending result of one submitted cell.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error // set when the cell panicked
}

// Get blocks until the cell has run and returns its value. If the cell
// panicked, Get re-panics with the cell's error on the caller's
// goroutine, so failures surface where the experiment is assembled;
// use TryGet or Err to handle a failed cell without unwinding.
func (f *Future[T]) Get() T {
	<-f.done
	if f.err != nil {
		panic(f.err)
	}
	return f.val
}

// TryGet blocks until the cell has run and returns its value, or the
// cell's panic converted to an error (with the worker's stack) — the
// non-crashing read: one failed cell fails only itself.
func (f *Future[T]) TryGet() (T, error) {
	<-f.done
	return f.val, f.err
}

// Err blocks until the cell has run and reports its panic as an error,
// or nil on success.
func (f *Future[T]) Err() error {
	<-f.done
	return f.err
}

// run executes fn guarding against panics, then resolves the future;
// it is the single execution path for inline and pooled cells. A
// pooled cell passes its pool's done counter, which counts the cell
// before the future resolves, so whoever Get wakes already sees the
// cell in TasksDone.
func (f *Future[T]) run(fn func() T, done *atomic.Uint64) {
	defer close(f.done)
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("runner: cell panicked: %v\n%s", r, debug.Stack())
		}
		if done != nil {
			done.Add(1)
		}
	}()
	f.val = fn()
}

// Submit schedules fn as one cell on the pool and returns its Future.
// On a nil pool fn runs inline before Submit returns. Cells must not
// submit further cells and block on them: with every worker blocked in
// a Get the queue can never drain. Fan-out belongs in the goroutine
// assembling the experiment.
func Submit[T any](p *Pool, fn func() T) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	if p == nil {
		f.run(fn, nil)
		return f
	}
	labels := p.labels
	p.tasks <- func() {
		pprof.SetGoroutineLabels(labels)
		f.run(fn, &p.done)
	}
	return f
}

// Map evaluates fn(0..n-1) as n independent cells and returns the
// results in index order — the canonical-merge primitive. The order of
// the returned slice (and therefore any table built from it) is
// independent of the pool size. A panicked cell re-panics here, on the
// assembling goroutine.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	futs := make([]*Future[T], n)
	for i := range futs {
		i := i
		futs[i] = Submit(p, func() T { return fn(i) })
	}
	out := make([]T, n)
	for i, f := range futs {
		out[i] = f.Get()
	}
	return out
}

// Grid evaluates fn over a rows × cols grid as independent cells and
// returns results indexed [row][col]. This is the shape of most figure
// sweeps: one row per variant/lock/binding, one column per data-point.
func Grid[T any](p *Pool, rows, cols int, fn func(r, c int) T) [][]T {
	flat := Map(p, rows*cols, func(k int) T { return fn(k/cols, k%cols) })
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
