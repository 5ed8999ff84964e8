package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/runner"
	"armbar/internal/sim"
)

func record(t *testing.T, capEvents int) *Recorder {
	t.Helper()
	rec := NewRecorder(capEvents)
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 3})
	m.SetTracer(rec)
	data := m.Alloc(1)
	flag := m.Alloc(1)
	m.Spawn(0, func(th *sim.Thread) {
		for i := uint64(1); i <= 20; i++ {
			th.Store(data, i)
			th.Barrier(isa.DMBSt)
			th.Store(flag, i)
			th.Nops(10)
		}
	})
	m.Spawn(32, func(th *sim.Thread) {
		for i := uint64(1); i <= 20; i++ {
			for th.Load(flag) < i {
				th.Nops(4)
			}
			th.Barrier(isa.DMBLd)
			th.Load(data)
		}
	})
	m.Run()
	return rec
}

func TestRecorderCapturesAllKinds(t *testing.T) {
	rec := record(t, 0)
	s := rec.Summarize()
	for _, k := range []sim.TraceKind{sim.TraceLoad, sim.TraceStore, sim.TraceCommit,
		sim.TraceBarrier, sim.TraceWork} {
		if s.PerKind[k].Count == 0 {
			t.Errorf("kind %v never recorded", k)
		}
	}
	if s.PerKind[sim.TraceStore].Count != s.PerKind[sim.TraceCommit].Count {
		t.Errorf("every store must commit: %d stores vs %d commits",
			s.PerKind[sim.TraceStore].Count, s.PerKind[sim.TraceCommit].Count)
	}
	if len(s.PerThread) != 2 {
		t.Errorf("want 2 threads in summary, got %d", len(s.PerThread))
	}
	if !strings.Contains(s.String(), "per-thread") {
		t.Error("summary text incomplete")
	}
}

func TestRecorderCap(t *testing.T) {
	rec := record(t, 10)
	if len(rec.Events()) != 10 {
		t.Fatalf("cap not honored: %d events", len(rec.Events()))
	}
	if rec.Dropped() == 0 {
		t.Fatal("expected drops beyond the cap")
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	rec := record(t, 0)
	var buf bytes.Buffer
	if err := rec.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(rec.Events()) {
		t.Fatalf("event count mismatch: %d vs %d", len(doc.TraceEvents), len(rec.Events()))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur <= 0 {
			t.Fatalf("bad event %+v", ev)
		}
	}
}

func TestHotLinesFindPingPong(t *testing.T) {
	rec := record(t, 0)
	hot := rec.HotLines(2)
	if len(hot) != 2 {
		t.Fatalf("want 2 hot lines, got %d", len(hot))
	}
	if hot[0].Commits < 20 {
		t.Errorf("hottest line should see the 20 data commits, got %d", hot[0].Commits)
	}
	if hot[0].Commits < hot[1].Commits {
		t.Error("hot lines must be sorted by commits")
	}
}

func TestTracingIsOptionalAndHarmless(t *testing.T) {
	// The same run with and without a tracer must produce identical
	// virtual times.
	run := func(tr sim.Tracer) float64 {
		m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 9})
		if tr != nil {
			m.SetTracer(tr)
		}
		a := m.Alloc(1)
		m.Spawn(0, func(th *sim.Thread) {
			for i := uint64(0); i < 50; i++ {
				th.Store(a, i)
				th.Barrier(isa.DMBFull)
			}
		})
		return m.Run()
	}
	if run(nil) != run(NewRecorder(0)) {
		t.Fatal("tracing changed simulation results")
	}
}

func TestRingKeepsNewestEvents(t *testing.T) {
	rec := NewRecorder(10)
	for i := 0; i < 15; i++ {
		rec.Event(sim.TraceEvent{Kind: sim.TraceWork, Thread: 0,
			Start: float64(i), End: float64(i) + 1})
	}
	evs := rec.Events()
	if len(evs) != 10 {
		t.Fatalf("retained %d events, want 10", len(evs))
	}
	if rec.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want 5", rec.Dropped())
	}
	for i, ev := range evs {
		if want := float64(5 + i); ev.Start != want {
			t.Fatalf("event %d starts at %g, want %g — ring must keep the newest in order",
				i, ev.Start, want)
		}
	}
}

func TestSummaryReportsDropped(t *testing.T) {
	rec := record(t, 10)
	s := rec.Summarize()
	if s.Dropped == 0 || s.Dropped != rec.Dropped() {
		t.Fatalf("Summary.Dropped = %d, recorder dropped %d", s.Dropped, rec.Dropped())
	}
	if !strings.Contains(s.String(), "dropped:") {
		t.Fatalf("summary text must surface the drop count:\n%s", s.String())
	}
	if strings.Contains(record(t, 0).Summarize().String(), "dropped:") {
		t.Fatal("an uncapped recording must not report drops")
	}
}

// TestChromeGoldenJSON freezes the exporter's byte-exact output for a
// tiny deterministic recording: three hand-fed events covering a
// detailed op, an arg-less barrier, and the zero-duration commit
// floor.
func TestChromeGoldenJSON(t *testing.T) {
	rec := NewRecorder(0)
	rec.Event(sim.TraceEvent{Thread: 0, Kind: sim.TraceLoad, Addr: 0x40,
		Start: 0, End: 2, Detail: "miss"})
	rec.Event(sim.TraceEvent{Thread: 1, Kind: sim.TraceBarrier,
		Start: 2.5, End: 10, Detail: "DMB full"})
	rec.Event(sim.TraceEvent{Thread: 0, Kind: sim.TraceCommit, Addr: 0x40,
		Start: 3, End: 3})
	var buf bytes.Buffer
	if err := rec.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `{"traceEvents":[` +
		`{"name":"load:miss","cat":"load","ph":"X","ts":0,"dur":2,"pid":0,"tid":0,"args":{"addr":"0x40","line":"1"}},` +
		`{"name":"barrier:DMB full","cat":"barrier","ph":"X","ts":2.5,"dur":7.5,"pid":0,"tid":1},` +
		`{"name":"commit","cat":"commit","ph":"X","ts":3,"dur":0.01,"pid":0,"tid":0,"args":{"addr":"0x40","line":"1"}}` +
		`]}` + "\n"
	if got := buf.String(); got != golden {
		t.Fatalf("chrome export drifted from golden:\ngot:  %s\nwant: %s", got, golden)
	}
}

func TestCollectorMergesMachines(t *testing.T) {
	c := NewCollector(0, 2)
	tr1 := c.NewTracer()
	tr2 := c.NewTracer()
	if tr3 := c.NewTracer(); tr3 != nil {
		t.Fatal("collector must stop handing out tracers past its machine budget")
	}
	if c.Machines() != 2 || c.Skipped() != 1 {
		t.Fatalf("machines/skipped = %d/%d, want 2/1", c.Machines(), c.Skipped())
	}
	tr1.Event(sim.TraceEvent{Thread: 0, Kind: sim.TraceWork, Start: 0, End: 1})
	tr2.Event(sim.TraceEvent{Thread: 0, Kind: sim.TraceWork, Start: 5, End: 6})
	var buf bytes.Buffer
	if err := c.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid int     `json:"pid"`
			Ts  float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("merged %d events, want 2", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Pid != 0 || doc.TraceEvents[1].Pid != 1 {
		t.Fatalf("pids must identify machines: %+v", doc.TraceEvents)
	}
}

// TestCollectorFromPoolWorkers builds machines on four pool workers
// under the process-wide tracer factory, as a -par ≥ 2 run with
// -trace-out does: the first 8 of 16 machines get the budget's
// recorders, the other 8 run untraced, and the merged trace holds one
// pid per traced machine. make race runs it under the race detector.
func TestCollectorFromPoolWorkers(t *testing.T) {
	col := NewCollector(64, 8)
	sim.SetMachineTracerFactory(col.NewTracer)
	defer sim.SetMachineTracerFactory(nil)
	p := runner.New(4)
	defer p.Close()
	runner.Map(p, 16, func(i int) float64 {
		m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: int64(i)})
		a := m.Alloc(1)
		m.Spawn(0, func(th *sim.Thread) {
			th.Store(a, 1)
			th.Barrier(isa.DMBFull)
		})
		m.Spawn(32, func(th *sim.Thread) { th.Load(a) })
		return m.Run()
	})
	if col.Machines() != 8 || col.Skipped() != 8 {
		t.Fatalf("machines/skipped = %d/%d, want 8/8", col.Machines(), col.Skipped())
	}
	var buf bytes.Buffer
	if err := col.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid int `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.Pid] = true
	}
	if len(pids) != 8 {
		t.Fatalf("trace holds %d machines, want 8", len(pids))
	}
}

func TestDroppedByKind(t *testing.T) {
	// Fill a 4-slot ring with loads, then push them out with barriers
	// and one store: the drop breakdown must name what was lost, not
	// what displaced it.
	rec := NewRecorder(4)
	for i := 0; i < 4; i++ {
		rec.Event(sim.TraceEvent{Kind: sim.TraceLoad, Start: float64(i), End: float64(i) + 1})
	}
	if rec.DroppedByKind() != nil {
		t.Fatal("nothing dropped yet, breakdown must be nil")
	}
	for i := 0; i < 3; i++ {
		rec.Event(sim.TraceEvent{Kind: sim.TraceBarrier, Start: float64(10 + i), End: float64(11 + i)})
	}
	rec.Event(sim.TraceEvent{Kind: sim.TraceStore, Start: 20, End: 21})

	by := rec.DroppedByKind()
	if by[sim.TraceLoad] != 4 || by[sim.TraceBarrier] != 0 || len(by) != 1 {
		t.Fatalf("DroppedByKind = %v, want load:4 only", by)
	}
	s := rec.Summarize()
	if s.DroppedByKind[sim.TraceLoad] != 4 {
		t.Fatalf("Summary.DroppedByKind = %v", s.DroppedByKind)
	}
	if out := s.String(); !strings.Contains(out, "load 4") {
		t.Fatalf("summary text must break drops down by kind:\n%s", out)
	}

	// Keep pushing: the next overwrite displaces the oldest barrier, so
	// the breakdown now spans two kinds.
	rec.Event(sim.TraceEvent{Kind: sim.TraceWork, Start: 30, End: 31})
	by = rec.DroppedByKind()
	if by[sim.TraceBarrier] != 1 || by[sim.TraceLoad] != 4 {
		t.Fatalf("after displacing a barrier: %v", by)
	}
	if sum := by[sim.TraceLoad] + by[sim.TraceBarrier]; sum != rec.Dropped() {
		t.Fatalf("per-kind drops sum to %d, total %d", sum, rec.Dropped())
	}
}
