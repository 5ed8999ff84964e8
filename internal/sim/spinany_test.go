package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"armbar/internal/topo"
)

// Tests of the multi-probe spin-wait (Thread.SpinAny and SpinSweep):
// random probe sets served by the op against the hand-written sweep
// loop it replaces, and the op's cycle attribution.

// probeWait is one wait of a waiter's plan. Probe addresses are word
// indices into the run's words until runProbeWaits resolves them.
type probeWait struct {
	probes []Probe
	pause  int
	once   bool // one sweep (SpinSweep) rather than a loop (SpinAny)
}

// probeStore is one store of the writer's plan: nops of padding, then
// the word's next value, as a store-release if release is set.
type probeStore struct {
	nops    int
	word    int
	release bool
}

// probePlan is one random case: a writer's stores to the probed words
// and two waiters' waits, each waiter also storing to its own word
// (the last two words) before every wait, so probes of that word are
// served by store-to-load forwarding or the waiter's own copy.
type probePlan struct {
	stores []probeStore
	waits  [2][]probeWait
}

// probeWords is how many words a plan probes: four shared words, two
// per line (a Pilot word's data and flag share one line), then each
// waiter's own word.
const probeWords = 6

// newProbePlan draws a case: 1-4 probes per wait over every word,
// relaxed or acquire, EQ, NE or GE, pause 0 or not, looping or one
// sweep. Each looping wait has at least one probe that the final
// memory satisfies, so every wait ends.
func newProbePlan(r *rand.Rand) *probePlan {
	p := &probePlan{}
	var final [probeWords]uint64
	for i := 0; i < 40; i++ {
		s := probeStore{nops: r.Intn(80), word: r.Intn(4), release: r.Intn(6) == 0}
		p.stores = append(p.stores, s)
		final[s.word]++
	}
	for w := range p.waits {
		own := 4 + w
		for k := 0; k < 8; k++ {
			final[own] = uint64(k + 1) // the value the waiter stores before wait k
			wt := probeWait{pause: []int{0, 1, 4, 8}[r.Intn(4)], once: r.Intn(3) == 0}
			n := 1 + r.Intn(4)
			holds := false
			for i := 0; i < n; i++ {
				word := r.Intn(4)
				if r.Intn(7) == 0 {
					word = own
				}
				pr := Probe{Addr: uint64(word), Cmp: SpinCmp(r.Intn(3)), Acquire: r.Intn(2) == 0}
				pr.Val = uint64(r.Intn(int(final[word]) + 2))
				holds = holds || pr.Cmp.holds(final[word], pr.Val)
				wt.probes = append(wt.probes, pr)
			}
			if !wt.once && !holds {
				last := &wt.probes[n-1]
				last.Cmp, last.Val = SpinGE, final[last.Addr]
			}
			p.waits[w] = append(p.waits[w], wt)
		}
	}
	return p
}

// waitResult is what one completed wait returned, and when.
type waitResult struct {
	thread, index int
	value         uint64
	clock         float64
}

// sweepLoop is the hand-written loop a multi-probe wait replaces: poll
// the probes in order, return the first that holds, otherwise pause
// and sweep again (or, for one sweep, return -1).
func sweepLoop(th *Thread, probes []Probe, pause int, once bool) (int, uint64) {
	for {
		for i, p := range probes {
			var x uint64
			if p.Acquire {
				x = th.LoadAcquire(p.Addr)
			} else {
				x = th.Load(p.Addr)
			}
			if p.Cmp == SpinEQ && x == p.Val || p.Cmp == SpinNE && x != p.Val || p.Cmp == SpinGE && x >= p.Val {
				return i, x
			}
		}
		th.Nops(pause)
		if once {
			return -1, 0
		}
	}
}

// runProbeWaits runs plan with every wait served by the op (engSpinAny)
// or by sweepLoop (engLoop) and returns the full observation, with
// every wait's result and clock and every thread's final clock.
func runProbeWaits(t *testing.T, mode Mode, seed int64, plan *probePlan, eng engine) diffRun {
	t.Helper()
	m := newTestMachine(mode, seed)
	tr := &recTracer{}
	m.SetTracer(tr)
	var words [probeWords]uint64
	for i := 0; i < 4; i += 2 {
		words[i] = m.Alloc(1)
		words[i+1] = words[i] + 8
	}
	words[4], words[5] = m.Alloc(1), m.Alloc(1)
	var run diffRun
	m.Spawn(0, func(th *Thread) {
		var next [probeWords]uint64
		for _, s := range plan.stores {
			th.Nops(s.nops)
			next[s.word]++
			if s.release {
				th.StoreRelease(words[s.word], next[s.word])
			} else {
				th.Store(words[s.word], next[s.word])
			}
		}
	})
	for w := range plan.waits {
		w := w
		// The op reads its table in place, so each wait's probes are
		// resolved into a table of their own.
		tables := make([][]Probe, len(plan.waits[w]))
		for k, wt := range plan.waits[w] {
			tables[k] = make([]Probe, len(wt.probes))
			for i, p := range wt.probes {
				p.Addr = words[p.Addr]
				tables[k][i] = p
			}
		}
		m.Spawn(topo.CoreID(4+12*w), func(th *Thread) {
			for k, wt := range plan.waits[w] {
				th.Store(words[4+w], uint64(k+1))
				var i int
				var v uint64
				switch {
				case eng == engLoop:
					i, v = sweepLoop(th, tables[k], wt.pause, wt.once)
				case wt.once:
					i, v = th.SpinSweep(tables[k], wt.pause)
				default:
					i, v = th.SpinAny(tables[k], wt.pause)
				}
				run.woke = append(run.woke, th.ID())
				run.waits = append(run.waits, waitResult{th.ID(), i, v, th.Now()})
			}
		})
	}
	run.elapsed = m.Run()
	run.stats = m.Stats()
	run.events = tr.events
	for _, a := range words {
		run.final = append(run.final, m.Directory().Committed(a))
	}
	for _, th := range m.threads {
		run.clocks = append(run.clocks, th.now)
	}
	return run
}

// probeCases is how many random plans each mode and seed runs.
const probeCases = 12

// TestSpinAnyDifferential proves that SpinAny and SpinSweep issue
// exactly the ops of the hand-written sweep loop: on random probe sets,
// in both memory modes, at two seeds, every wait returns the same index
// and value at the same clock, and the traced event sequence, the
// stats, the final memory, every thread's clock and the wake order are
// identical. The plans must also cover what the claim rests on: waits
// ended by each probe position, one sweeps that found nothing, and
// waits that swept their table more than once.
func TestSpinAnyDifferential(t *testing.T) {
	var byIndex [4]int
	missed, resweeps := 0, 0
	for c := 0; c < probeCases; c++ {
		plan := newProbePlan(rand.New(rand.NewSource(int64(c))))
		probes := 0
		for w := range plan.waits {
			for _, wt := range plan.waits[w] {
				probes += len(wt.probes)
			}
		}
		for _, mode := range []Mode{WMM, TSO} {
			for _, seed := range []int64{42, 7} {
				where := fmt.Sprintf("probe case %d mode %v seed %d", c, mode, seed)
				ref := runProbeWaits(t, mode, seed, plan, engLoop)
				got := runProbeWaits(t, mode, seed, plan, engSpinAny)
				compareRuns(t, where, engSpinAny, ref, got)
				for _, r := range got.waits {
					if r.index < 0 {
						missed++
					} else {
						byIndex[r.index]++
					}
				}
				polls := 0
				for _, e := range got.events {
					if e.Kind == TraceLoad && e.Thread != 0 {
						polls++
					}
				}
				if polls > probes {
					resweeps++
				}
			}
		}
	}
	for i, n := range byIndex {
		if n == 0 {
			t.Errorf("no wait ended at probe %d", i)
		}
	}
	if missed == 0 {
		t.Error("no one-sweep wait found nothing")
	}
	if resweeps == 0 {
		t.Error("no run swept a probe table more than once")
	}
}
