package explore

import (
	"armbar/internal/isa"
	"armbar/internal/topo"
)

// The classic litmus suite as straight-line shapes. Signal waits are
// plain loads whose value joins the outcome, so forbidden predicates
// condition on the observed value instead of spinning; ops marked Spin
// let the simulator sampler wait for the signal (the paper's Table 1
// consumer spins on the flag). Slot kinds are the barriers the paper
// places in each shape; tests swap in other kinds by copying a shape
// and editing its Slots.

func load(addr, obs int) SOp { return SOp{Code: SLoad, Addr: addr, Obs: obs} }
func warm(addr int) SOp      { return SOp{Code: SLoad, Addr: addr, Obs: -1} }
func store(addr int, v uint64) SOp {
	return SOp{Code: SStore, Addr: addr, Val: v, Obs: -1}
}
func spinLoad(addr, obs int, v uint64) SOp {
	return SOp{Code: SLoad, Addr: addr, Obs: obs, Val: v, Spin: true}
}
func swap(addr int, v uint64, obs int) SOp {
	return SOp{Code: SSwap, Addr: addr, Val: v, Obs: obs}
}

// MP is message passing: the producer publishes data then a flag, the
// consumer (with a warmed data copy) reads the flag then data. The
// anomaly is seeing the flag set but stale data.
func MP() *Shape {
	return &Shape{
		Name:      "MP",
		Doc:       "message passing: flag set but data stale",
		Cores:     []topo.CoreID{0, 4},
		Lines:     2,
		LineNames: []string{"data", "flag"},
		Threads: [][]SOp{
			{store(0, 23), store(1, 1)},
			{warm(0), spinLoad(1, 0, 1), load(0, 1)},
		},
		Slots: []Slot{
			{Thread: 0, At: 1, Bar: isa.DMBSt, Label: "push"},
			{Thread: 1, At: 2, Bar: isa.DMBLd, Label: "pull"},
		},
		Regs:      []string{"flag", "local"},
		Forbidden: func(r, _ []uint64) bool { return r[0] == 1 && r[1] != 23 },
	}
}

// SB is store buffering: both threads store their own flag then load
// the other's; both loads reading the initial value needs each load to
// bypass the thread's own pending store.
func SB() *Shape {
	return &Shape{
		Name:      "SB",
		Doc:       "store buffering: both loads see the initial values",
		Cores:     []topo.CoreID{0, 4},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{store(0, 1), load(1, 0)},
			{store(1, 1), load(0, 1)},
		},
		Slots: []Slot{
			{Thread: 0, At: 1, Bar: isa.DMBFull, Label: "t0"},
			{Thread: 1, At: 1, Bar: isa.DMBFull, Label: "t1"},
		},
		Regs:      []string{"r0", "r1"},
		Forbidden: func(r, _ []uint64) bool { return r[0] == 0 && r[1] == 0 },
	}
}

// S is the S shape: T0 stores x=2 then y=1; T1 reads y and stores
// x=1. Forbidden: T1 saw y=1 yet x finishes 2.
func S() *Shape {
	return &Shape{
		Name:      "S",
		Doc:       "S: read of y=1 yet the dependent x=1 loses to x=2",
		Cores:     []topo.CoreID{0, 32},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{store(0, 2), store(1, 1)},
			{load(1, 0), store(0, 1)},
		},
		Slots: []Slot{
			{Thread: 0, At: 1, Bar: isa.DMBSt, Label: "t0"},
			{Thread: 1, At: 1, Bar: isa.CtrlDep, Label: "t1"},
		},
		Regs:      []string{"r"},
		Finals:    []int{0},
		FinalTags: []string{"x"},
		Forbidden: func(r, f []uint64) bool { return r[0] == 1 && f[0] == 2 },
	}
}

// R is the R shape: T0 stores x=1 then y=1; T1 stores y=2 then reads
// x. Forbidden: y finishes 2 (T1's store coherence-after T0's) with
// T1 reading x=0.
func R() *Shape {
	return &Shape{
		Name:      "R",
		Doc:       "R: y finishes 2 yet the ordered read of x misses x=1",
		Cores:     []topo.CoreID{0, 32},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{store(0, 1), store(1, 1)},
			{store(1, 2), load(0, 0)},
		},
		Slots: []Slot{
			{Thread: 0, At: 1, Bar: isa.DMBSt, Label: "t0"},
			{Thread: 1, At: 1, Bar: isa.DMBFull, Label: "t1"},
		},
		Regs:      []string{"r"},
		Finals:    []int{1},
		FinalTags: []string{"y"},
		Forbidden: func(r, f []uint64) bool { return r[0] == 0 && f[1] == 2 },
	}
}

// TwoPlusTwoW is 2+2W: both threads store to both lines in opposite
// orders; forbidden is both lines ending with their first writer's
// value.
func TwoPlusTwoW() *Shape {
	return &Shape{
		Name:      "2+2W",
		Doc:       "2+2W: both lines finish with their first writer's value",
		Cores:     []topo.CoreID{0, 32},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{store(0, 1), store(1, 2)},
			{store(1, 1), store(0, 2)},
		},
		Slots: []Slot{
			{Thread: 0, At: 1, Bar: isa.DMBSt, Label: "t0"},
			{Thread: 1, At: 1, Bar: isa.DMBSt, Label: "t1"},
		},
		Finals:    []int{0, 1},
		FinalTags: []string{"x", "y"},
		Forbidden: func(_, f []uint64) bool { return f[0] == 1 && f[1] == 1 },
	}
}

// LB is load buffering: each thread loads the other's line then
// stores its own. Both loads observing the other's later store is
// forbidden with or without the dependency slots: stores never commit
// before their issue and loads bind no later than issue.
func LB() *Shape {
	return &Shape{
		Name:      "LB",
		Doc:       "load buffering: both loads see the other thread's later store",
		Cores:     []topo.CoreID{0, 4},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{load(1, 0), store(0, 1)},
			{load(0, 1), store(1, 1)},
		},
		Slots: []Slot{
			{Thread: 0, At: 1, Bar: isa.DataDep, Label: "t0"},
			{Thread: 1, At: 1, Bar: isa.DataDep, Label: "t1"},
		},
		Regs:      []string{"r0", "r1"},
		Forbidden: func(r, _ []uint64) bool { return r[0] == 1 && r[1] == 1 },
	}
}

// WRC is write-to-read causality: T0 stores x; T1 reads x and stores
// y; T2 reads y then x. Forbidden: T1 saw x=1 and T2 saw y=1 but
// x=0 — causality broken on a multi-copy-atomic machine.
func WRC() *Shape {
	return &Shape{
		Name:      "WRC",
		Doc:       "WRC: causality chain x=1 -> y=1 observed, then stale x=0",
		Cores:     []topo.CoreID{0, 4, 32},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{store(0, 1)},
			{load(0, 0), store(1, 1)},
			{warm(0), load(1, 1), load(0, 2)},
		},
		Slots: []Slot{
			{Thread: 1, At: 1, Bar: isa.AddrDep, Label: "t1"},
			{Thread: 2, At: 2, Bar: isa.DMBLd, Label: "t2"},
		},
		Regs: []string{"t1x", "t2y", "t2x"},
		Forbidden: func(r, _ []uint64) bool {
			return r[0] == 1 && r[1] == 1 && r[2] == 0
		},
	}
}

// CoRR is per-location read coherence: two program-ordered loads of
// one line must not observe a remote store's value then the older
// value. Without the address dependency the second load may still use
// the stale view the first load raced past.
func CoRR() *Shape {
	return &Shape{
		Name:      "CoRR",
		Doc:       "CoRR: same-line loads observe x=1 then the older x=0",
		Cores:     []topo.CoreID{0, 4},
		Lines:     1,
		LineNames: []string{"x"},
		Threads: [][]SOp{
			{store(0, 1)},
			{load(0, 0), load(0, 1)},
		},
		Slots: []Slot{
			{Thread: 1, At: 1, Bar: isa.AddrDep, Label: "dep"},
		},
		Regs:      []string{"r1", "r2"},
		Forbidden: func(r, _ []uint64) bool { return r[0] == 1 && r[1] == 0 },
	}
}

// CoWW is per-location write coherence: one thread stores twice to
// one line; the final value must be the second store even with
// out-of-order drain.
func CoWW() *Shape {
	return &Shape{
		Name:      "CoWW",
		Doc:       "CoWW: same-line stores drain out of order",
		Cores:     []topo.CoreID{0},
		Lines:     1,
		LineNames: []string{"x"},
		Threads: [][]SOp{
			{store(0, 1), store(0, 2)},
		},
		Finals:    []int{0},
		FinalTags: []string{"x"},
		Forbidden: func(_, f []uint64) bool { return f[0] != 2 },
	}
}

// SBRMW is store buffering with atomic swaps: the swap drains the
// buffer and synchronizes the stale view, so both-zeros is forbidden
// with no barrier slots at all.
func SBRMW() *Shape {
	return &Shape{
		Name:      "SB+RMW",
		Doc:       "SB with atomic swaps: both loads see the initial values",
		Cores:     []topo.CoreID{0, 4},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{swap(0, 1, -1), load(1, 0)},
			{swap(1, 1, -1), load(0, 1)},
		},
		Regs:      []string{"r0", "r1"},
		Forbidden: func(r, _ []uint64) bool { return r[0] == 0 && r[1] == 0 },
	}
}

// Chan is the paper's naive one-way channel round (Figure 6a): the
// producer checks the consumer-ready count, publishes the payload,
// then raises the flag; the consumer (holding a warmed payload copy)
// reads the flag then the payload. Three barriers guard it: "avail"
// after the availability load, "publish" between payload and flag,
// "consume" between flag and payload. The stale-read anomaly is the
// flag observed set while the payload still reads 0.
func Chan() *Shape {
	return &Shape{
		Name:      "chan",
		Doc:       "one-way channel: flag observed set, payload stale",
		Cores:     []topo.CoreID{0, 4},
		Lines:     3,
		LineNames: []string{"ready", "data", "flag"},
		Init:      []uint64{1, 0, 0},
		Threads: [][]SOp{
			{load(0, 0), store(1, 23), store(2, 1)},
			{warm(1), spinLoad(2, 1, 1), load(1, 2)},
		},
		Slots: []Slot{
			{Thread: 0, At: 1, Bar: isa.DMBLd, Label: "avail"},
			{Thread: 0, At: 2, Bar: isa.DMBSt, Label: "publish"},
			{Thread: 1, At: 2, Bar: isa.DMBLd, Label: "consume"},
		},
		Regs:      []string{"ready", "flag", "local"},
		Forbidden: func(r, _ []uint64) bool { return r[1] == 1 && r[2] != 23 },
	}
}

// Pilot is the transformed channel: availability signal and payload
// piggybacked into one single-copy-atomic word, so one store and one
// load replace the whole fenced sequence. The forbidden outcome —
// observing a value that is neither the old word nor the new one —
// is unreachable with no barriers at all.
func Pilot() *Shape {
	const old, msg = 5, 23
	return &Shape{
		Name:      "pilot",
		Doc:       "pilot word: torn read of the piggybacked signal+payload",
		Cores:     []topo.CoreID{0, 4},
		Lines:     1,
		LineNames: []string{"word"},
		Init:      []uint64{old},
		Threads: [][]SOp{
			{store(0, msg)},
			{warm(0), load(0, 0)},
		},
		Regs:      []string{"word"},
		Forbidden: func(r, _ []uint64) bool { return r[0] != old && r[0] != msg },
	}
}

// IRIW is independent reads of independent writes: two writers store
// x and y, two readers read them in opposite orders. Forbidden: the
// readers disagree on the order of the writes, which a multi-copy
// atomic machine (ARMv8, and the simulator: a store reaches every
// other core at one commit) rules out once each reader's loads are
// ordered. It stays out of All(), whose shapes fix the fencemin figure
// and the fence benchmark's cells, and absmodel has no clauses for it.
func IRIW() *Shape {
	return &Shape{
		Name:      "IRIW",
		Doc:       "IRIW: the readers see the x and y writes in opposite orders",
		Cores:     []topo.CoreID{0, 32, 4, 36},
		Lines:     2,
		LineNames: []string{"x", "y"},
		Threads: [][]SOp{
			{store(0, 1)},
			{store(1, 1)},
			{load(0, 0), load(1, 1)},
			{load(1, 2), load(0, 3)},
		},
		Slots: []Slot{
			{Thread: 2, At: 1, Bar: isa.DMBLd, Label: "t2"},
			{Thread: 3, At: 1, Bar: isa.DMBLd, Label: "t3"},
		},
		Regs: []string{"r1", "r2", "r3", "r4"},
		Forbidden: func(r, _ []uint64) bool {
			return r[0] == 1 && r[1] == 0 && r[2] == 1 && r[3] == 0
		},
	}
}

// Classic returns the classic suite in its fixed gate order.
func Classic() []*Shape {
	return []*Shape{MP(), SB(), S(), R(), TwoPlusTwoW(), LB(), WRC(), CoRR(), CoWW(), SBRMW()}
}

// All returns every shape: the classic suite plus the channel pair
// PilotCheck reasons over.
func All() []*Shape {
	return append(Classic(), Chan(), Pilot())
}

// ByName returns the named shape, or nil.
func ByName(name string) *Shape {
	for _, s := range All() {
		if s.Name == name {
			return s
		}
	}
	return nil
}
