package locks

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// acquisitionOrder runs `threads` clients each taking the lock `per`
// times, recording the global acquisition sequence by client.
func acquisitionOrder(t *testing.T, mk func(m *sim.Machine) Lock, threads, per int) []int {
	t.Helper()
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 19})
	var order []int
	l := mk(m)
	for i := 0; i < threads; i++ {
		i := i
		m.Spawn(topo.CoreID(i*4%63), func(th *sim.Thread) {
			for op := 0; op < per; op++ {
				l.Exec(th, i, func(tt *sim.Thread, _ uint64) uint64 {
					order = append(order, i)
					tt.Nops(10)
					return 0
				}, 0)
				th.Nops(30)
			}
		})
	}
	m.Run()
	return order
}

// maxConsecutiveRepeats finds the longest run of one client acquiring
// back-to-back — a starvation indicator for unfair locks.
func maxConsecutiveRepeats(order []int) int {
	best, cur := 1, 1
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			cur++
			if cur > best {
				best = cur
			}
		} else {
			cur = 1
		}
	}
	return best
}

// spreadBound computes the maximum lead any client has over the
// laggard at any prefix of the acquisition order.
func spreadBound(order []int, threads int) int {
	counts := make([]int, threads)
	worst := 0
	for _, c := range order {
		counts[c]++
		max, min := counts[0], counts[0]
		for _, n := range counts[1:] {
			if n > max {
				max = n
			}
			if n < min {
				min = n
			}
		}
		if max-min > worst {
			worst = max - min
		}
	}
	return worst
}

func TestTicketLockIsFIFOFair(t *testing.T) {
	const threads, per = 8, 20
	order := acquisitionOrder(t, func(m *sim.Machine) Lock {
		return NewTicket(m, isa.DMBSt)
	}, threads, per)
	if len(order) != threads*per {
		t.Fatalf("acquisitions = %d, want %d", len(order), threads*per)
	}
	// Ticket FIFO: once every thread is queued, no thread can lap
	// another by more than a small bound.
	if s := spreadBound(order, threads); s > threads {
		t.Errorf("ticket lock spread %d exceeds FIFO bound %d", s, threads)
	}
}

func TestQueueLocksBounded(t *testing.T) {
	const threads, per = 8, 20
	for name, mk := range map[string]func(m *sim.Machine) Lock{
		"MCS": func(m *sim.Machine) Lock { return NewMCS(m, threads, isa.DMBSt) },
		"CLH": func(m *sim.Machine) Lock { return NewCLH(m, threads, isa.DMBSt) },
	} {
		order := acquisitionOrder(t, mk, threads, per)
		if len(order) != threads*per {
			t.Fatalf("%s: acquisitions = %d, want %d", name, len(order), threads*per)
		}
		if s := spreadBound(order, threads); s > threads+2 {
			t.Errorf("%s: spread %d exceeds queue-lock bound", name, s)
		}
	}
}

func TestCombinersServeEveryoneEachSweep(t *testing.T) {
	// Combining locks are not FIFO, but no client may starve: bounded
	// consecutive repeats and bounded spread.
	const threads, per = 8, 20
	for name, mk := range map[string]func(m *sim.Machine) Lock{
		"DSynch": func(m *sim.Machine) Lock { return NewDSMSynch(m, threads, false, [2]isa.Barrier{}) },
		"FC":     func(m *sim.Machine) Lock { return NewFC(m, threads, false, 0) },
	} {
		order := acquisitionOrder(t, mk, threads, per)
		if len(order) != threads*per {
			t.Fatalf("%s: acquisitions = %d, want %d", name, len(order), threads*per)
		}
		if r := maxConsecutiveRepeats(order); r > 3 {
			t.Errorf("%s: one client acquired %d times back-to-back", name, r)
		}
		if s := spreadBound(order, threads); s > 3*threads {
			t.Errorf("%s: spread %d suggests starvation", name, s)
		}
	}
}
