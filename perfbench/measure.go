package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"armbar/internal/runner"
)

// span is one timed interval of a traced run: a pass, a step of the
// pass outside any cell, a cell (Name "cell", Label the cell's name,
// Wait its queue wait), or a sub-call inside a cell. Times are
// microseconds since the run's origin.
type span struct {
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"`
	Parent string  `json:"parent"`
	Cell   int     `json:"cell,omitempty"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
	Wait   float64 `json:"wait_us,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// cellCtx is handed to a running cell. In a traced pass, time records
// each sub-call as a span whose parent is the innermost sub-call still
// open; otherwise it only calls fn.
type cellCtx struct {
	traced bool
	origin time.Time
	open   []string
	spans  []span
}

func (cc *cellCtx) time(name string, fn func()) {
	if !cc.traced {
		fn()
		return
	}
	parent := "cell"
	if n := len(cc.open); n > 0 {
		parent = cc.open[n-1]
	}
	cc.open = append(cc.open, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	cc.open = cc.open[:len(cc.open)-1]
	cc.spans = append(cc.spans, span{Name: name, Parent: parent, Start: micros(t0.Sub(cc.origin)), Dur: micros(d)})
}

// passStats accumulates one pass. The counts are deterministic for a
// seed; the times are host seconds.
type passStats struct {
	wall, service, simService    float64
	cells                        int
	ops, parkWakes               uint64
	misses, staleReads, syncTxns uint64
	maxStoreBuf, threadsMax      int
	states, placements           int
	hits, gets                   int
	cacheBytes                   int64
	allocBytes                   uint64
	gcCycles                     uint32
}

// counts are the pass's deterministic quantities: two passes of one
// seed must agree on all of them at any pool width.
func (ps passStats) counts() map[string]uint64 {
	return map[string]uint64{
		"runner.cells":       uint64(ps.cells),
		"sim.ops":            ps.ops,
		"sim.park_wakes":     ps.parkWakes,
		"sim.threads_max":    uint64(ps.threadsMax),
		"mesi.misses":        ps.misses,
		"mesi.stale_reads":   ps.staleReads,
		"sb.max_occupancy":   uint64(ps.maxStoreBuf),
		"ace.sync_txns":      ps.syncTxns,
		"explore.states":     uint64(ps.states),
		"explore.placements": uint64(ps.placements),
		"cellcache.gets":     uint64(ps.gets),
		"cellcache.hits":     uint64(ps.hits),
		"cellcache.bytes":    uint64(ps.cacheBytes),
	}
}

// bench is one process's run of one workload.
type bench struct {
	w      workload
	seed   int64
	par    int
	plan   *plan
	pool   *runner.Pool
	origin time.Time
	host   host

	// want holds the digest each cell key must produce: the recorded
	// golden digests when the seed has them (golden is then set, and a
	// key without a recorded digest fails), else the first pass's.
	want   map[string]string
	golden bool

	attempted, failed int
	traced            bool
	tr                traceData
}

// maxSpans caps the spans a traced run keeps for its span file: a
// traced replay run makes over a million, most of them cache calls of
// a few microseconds. The per-call times behind the percentiles are all
// kept regardless.
const maxSpans = 100_000

// traceData collects what the traced passes measured.
type traceData struct {
	spans     []span // the first maxSpans
	dropped   int    // spans beyond maxSpans
	cells     int
	queueWait []float64            // ms per cell
	service   []float64            // ms per cell
	calls     map[string][]float64 // ms per sub-call or step, by span name
}

func (b *bench) close() { b.pool.Close() }

// keep adds a span unless maxSpans are kept already.
func (t *traceData) keep(s span) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// passRun is the handle a plan's pass drives.
type passRun struct {
	b  *bench
	ps passStats
}

// cellTimes is one cell's submit, start and end, and its sub-call spans.
type cellTimes struct {
	submit, start, end time.Time
	spans              []span
}

// run submits the cells to the pool in order, waits for every one, and
// checks and accounts the outcomes in submission order, which it
// returns. A cell that panics fails only itself.
func (r *passRun) run(cells []cell) []outcome {
	b := r.b
	times := make([]cellTimes, len(cells))
	futs := make([]*runner.Future[outcome], len(cells))
	for i := range cells {
		c, ct := &cells[i], &times[i]
		ct.submit = time.Now()
		futs[i] = runner.Submit(b.pool, func() outcome {
			ct.start = time.Now()
			cc := &cellCtx{traced: b.traced, origin: b.origin}
			defer func() { ct.end, ct.spans = time.Now(), cc.spans }()
			if !b.traced {
				return c.run(cc)
			}
			var o outcome
			pprof.Do(context.Background(), pprof.Labels("workload", b.w.name, "group", c.group),
				func(context.Context) { o = c.run(cc) })
			return o
		})
	}
	outs := make([]outcome, len(cells))
	for i, f := range futs {
		o, err := f.TryGet()
		if err != nil {
			o = outcome{err: "panic: " + firstLine(err.Error())}
		}
		r.account(&cells[i], o, &times[i])
		outs[i] = o
	}
	return outs
}

func (r *passRun) account(c *cell, o outcome, ct *cellTimes) {
	b, ps := r.b, &r.ps
	b.attempted++
	ps.cells++
	svc := ct.end.Sub(ct.start).Seconds()
	ps.service += svc
	if o.err == "" {
		o.err = b.checkDigest(c, o.digest)
	}
	if o.err != "" {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s %s: %s\n", b.w.name, c.name, o.err)
	}
	if st := o.stats; st != nil {
		ps.ops += st.InlineDispatches + st.ParkWakes
		ps.parkWakes += st.ParkWakes
		ps.misses += st.Misses
		ps.staleReads += st.StaleReads
		ps.syncTxns += st.SyncTxns
		ps.maxStoreBuf = max(ps.maxStoreBuf, st.MaxStoreBuf)
		ps.simService += svc
	}
	ps.threadsMax = max(ps.threadsMax, o.threads)
	ps.states += o.states
	ps.placements += o.placements
	ps.hits += o.hits
	ps.gets += o.hits + o.misses
	if !b.traced {
		return
	}
	t := &b.tr
	t.cells++
	wait := ct.start.Sub(ct.submit)
	t.queueWait = append(t.queueWait, float64(wait)/1e6)
	t.service = append(t.service, svc*1e3)
	t.keep(span{Name: "cell", Label: c.name, Parent: "pass", Cell: t.cells,
		Start: micros(ct.start.Sub(b.origin)), Dur: svc * 1e6, Wait: micros(wait)})
	for _, s := range ct.spans {
		s.Cell = t.cells
		t.keep(s)
		t.calls[s.Name] = append(t.calls[s.Name], s.Dur/1e3)
	}
}

// checkDigest compares a cell's digest with the one its key must
// produce and returns a failure message, or "".
func (b *bench) checkDigest(c *cell, got string) string {
	key := c.key
	if key == "" {
		key = c.name
	}
	want, ok := b.want[key]
	switch {
	case ok && want != got:
		return fmt.Sprintf("digest %s, want %s", got, want)
	case !ok && b.golden:
		return "no recorded digest for " + key
	case !ok:
		b.want[key] = got
	}
	return ""
}

// timeStep times a step of the pass that runs outside any cell.
func (r *passRun) timeStep(name string, fn func()) {
	b := r.b
	if !b.traced {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.tr.keep(span{Name: name, Parent: "pass", Start: micros(t0.Sub(b.origin)), Dur: micros(d)})
	b.tr.calls[name] = append(b.tr.calls[name], float64(d)/1e6)
}

// pass runs the plan's fixed work once.
func (b *bench) pass() passStats {
	r := &passRun{b: b}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	b.plan.pass(r)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.ps.wall = wall.Seconds()
	r.ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.ps.gcCycles = m1.NumGC - m0.NumGC
	if b.traced {
		b.tr.keep(span{Name: "pass", Parent: b.w.name, Start: micros(t0.Sub(b.origin)), Dur: micros(wall)})
	}
	return r.ps
}

const (
	// minPasses keeps a median meaningful however long one pass is.
	minPasses = 3
	// minTracedCells leaves ten cells beyond the p90 percentiles of a
	// traced run.
	minTracedCells = 100
)

// phase repeats passes for about seconds: never fewer than minPasses
// (traced, never fewer than minTracedCells cells), and stopping rather
// than overshooting by more than half a pass. A phase three times over
// its length stops regardless.
func (b *bench) phase(seconds float64, traced bool) []passStats {
	b.traced = traced
	var out []passStats
	total, cells := 0.0, 0
	for {
		ps := b.pass()
		out = append(out, ps)
		total += ps.wall
		cells += ps.cells
		done := len(out) >= minPasses && total+ps.wall/2 >= seconds && (!traced || cells >= minTracedCells)
		if done || total >= 3*seconds {
			return out
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs. It is reported only
// where at least ten samples lie beyond it; otherwise ok is false and
// the value 0.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-p) < 10 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(n)))-1], true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
