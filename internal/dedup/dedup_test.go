package dedup

import (
	"testing"

	"armbar/internal/platform"
)

func run(t *testing.T, buf Buffer, w Workload, cross bool) Result {
	t.Helper()
	r := Run(Config{
		Plat:      platform.Kunpeng916(),
		Buffer:    buf,
		W:         w,
		Seed:      23,
		CrossNode: cross,
	})
	return r
}

func small() Workload { return Workload{Name: "Small", Chunks: 400, Work: 60} }

func TestPipelineCorrectAllBuffers(t *testing.T) {
	for _, b := range []Buffer{Q, RB, RBP} {
		for _, cross := range []bool{false, true} {
			r := run(t, b, small(), cross)
			if !r.Valid {
				t.Errorf("%v (cross=%v): output checksum mismatch (unique=%d)", b, cross, r.Unique)
			}
		}
	}
}

func TestDedupActuallyDeduplicates(t *testing.T) {
	r := run(t, RBP, small(), false)
	if r.Unique >= r.Chunks {
		t.Fatalf("dedup had no effect: %d unique of %d", r.Unique, r.Chunks)
	}
	if r.Unique < r.Chunks/2 {
		t.Fatalf("dedup dropped too much: %d unique of %d", r.Unique, r.Chunks)
	}
}

func TestFig6dPilotBeatsQueue(t *testing.T) {
	// Figure 6d: RB-P achieves ~10% over the lock-based queue; plain RB
	// may even lose to Q (it adds contention on the counters).
	for _, w := range []Workload{small()} {
		q := run(t, Q, w, false).Throughput()
		rbp := run(t, RBP, w, false).Throughput()
		if rbp < 1.05*q {
			t.Errorf("%s: RB-P (%g) should beat Q (%g) by a visible margin", w.Name, rbp, q)
		}
	}
}

func TestFig6dRingMicrobenchSpeedups(t *testing.T) {
	// §4.5: applying Pilot to the ring buffer gives sizeable speedups
	// same-node and larger cross-node.
	w := small()
	same := run(t, RBP, w, false).Throughput() / run(t, RB, w, false).Throughput()
	cross := run(t, RBP, w, true).Throughput() / run(t, RB, w, true).Throughput()
	if same < 1.1 {
		t.Errorf("same-node RB-P/RB = %.2fx, want > 1.1x", same)
	}
	if cross < same {
		t.Errorf("cross-node gain (%.2fx) should exceed same-node (%.2fx)", cross, same)
	}
}

func TestWorkloadsScale(t *testing.T) {
	ws := Workloads()
	if len(ws) != 3 {
		t.Fatalf("want 3 workloads, got %d", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Chunks <= ws[i-1].Chunks {
			t.Errorf("workload %s should be larger than %s", ws[i].Name, ws[i-1].Name)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := run(t, RBP, small(), true)
	b := run(t, RBP, small(), true)
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %g vs %g", a.Cycles, b.Cycles)
	}
}
