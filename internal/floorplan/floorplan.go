// Package floorplan reproduces the paper's BOTS floorplan experiment
// (§5.4, Figure 8d): a branch-and-bound search for an optimal cell
// placement, parallelized across simulated threads that share a global
// best bound behind a lock. The lock is *not* the bottleneck — most
// time goes into exploring the tree — so applying Pilot to the
// delegation lock buys only a few percent, which is precisely the
// paper's point for this benchmark.
//
// The search: cells with fixed dimensions are packed in a fixed order
// into a strip of given width, choosing an orientation (original or
// rotated) per cell; the objective is the minimum strip height. Each
// decision node costs simulated cycles; subtrees are pruned against
// the shared best bound, which threads read optimistically and update
// under the lock.
package floorplan

import (
	"armbar/internal/isa"
	"armbar/internal/locks"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

// Cell is one rectangle to place.
type Cell struct{ W, H int }

// Input is a named problem instance.
type Input struct {
	Name  string
	Strip int // strip width
	Cells []Cell
}

// Inputs mirrors the paper's input.5 / input.15 / input.20 sizes with
// synthetic cell sets of growing depth.
func Inputs() []Input {
	gen := func(name string, n, strip int) Input {
		cells := make([]Cell, n)
		for i := range cells {
			cells[i] = Cell{W: 2 + (i*7)%5, H: 1 + (i*5)%4}
		}
		return Input{Name: name, Strip: strip, Cells: cells}
	}
	return []Input{
		gen("input.5", 12, 8),
		gen("input.15", 15, 8),
		gen("input.20", 17, 8),
	}
}

// Config describes one run.
type Config struct {
	Plat    *platform.Platform
	Kind    locks.Kind // lock guarding the shared bound
	In      Input
	Threads int
	Seed    int64
	// NodeWork is the simulated cost (nops) of expanding one node.
	NodeWork int
}

// Result is one run's outcome.
type Result struct {
	Config  Config
	Cycles  float64
	Elapsed float64
	Best    int
	Valid   bool // Best matches the sequential reference
	Nodes   int  // total expanded nodes
	Stats   sim.Stats
}

// place computes the strip height after packing cells[0..k] with the
// given orientation mask using a shelf heuristic; deterministic and
// cheap, it stands in for the real floorplanner's geometry.
func packHeight(in Input, mask uint32, k int) int {
	x, shelfH, total := 0, 0, 0
	for i := 0; i <= k; i++ {
		w, h := in.Cells[i].W, in.Cells[i].H
		if mask&(1<<i) != 0 {
			w, h = h, w
		}
		if x+w > in.Strip {
			total += shelfH
			x, shelfH = 0, 0
		}
		x += w
		if h > shelfH {
			shelfH = h
		}
	}
	return total + shelfH
}

// Reference solves the instance sequentially (exhaustive with the same
// pruning) and returns the optimal height.
func Reference(in Input) int {
	best := 1 << 30
	var walk func(i int, mask uint32)
	walk = func(i int, mask uint32) {
		if packHeight(in, mask, i-1) >= best && i > 0 {
			return
		}
		if i == len(in.Cells) {
			if h := packHeight(in, mask, i-1); h < best {
				best = h
			}
			return
		}
		walk(i+1, mask)
		walk(i+1, mask|(1<<i))
	}
	walk(0, 0)
	return best
}

// Run executes the parallel branch-and-bound on the simulator.
func Run(cfg Config) Result {
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if cfg.NodeWork == 0 {
		cfg.NodeWork = 12
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	cores, serverCore := cfg.Plat.Sys.InterleaveCores(cfg.Threads)
	cfg.Threads = len(cores)

	bound := m.Alloc(1) // shared best bound, read optimistically
	m.SetInitial(bound, 1<<30)

	var lock locks.Lock
	var server *locks.Server
	switch cfg.Kind {
	case locks.Ticket:
		lock = locks.NewTicket(m, isa.DMBSt)
	case locks.FFWD, locks.FFWDPilot:
		fl := locks.NewFFWD(m, cfg.Threads, cfg.Kind == locks.FFWDPilot, [2]isa.Barrier{})
		server = fl.Server()
		lock = fl
	case locks.DSMSynch, locks.DSMSynchPilot:
		lock = locks.NewDSMSynch(m, cfg.Threads, cfg.Kind == locks.DSMSynchPilot, [2]isa.Barrier{})
	default:
		panic("floorplan: unknown lock kind")
	}

	// The critical section: lower the shared bound if the candidate
	// improves it; return the (possibly unchanged) bound.
	updateCS := func(t *sim.Thread, candidate uint64) uint64 {
		cur := t.Load(bound)
		if candidate < cur {
			t.Store(bound, candidate)
			return candidate
		}
		return cur
	}

	// Work is split by the top splitBits orientation decisions: thread
	// i explores the prefixes congruent to i modulo Threads.
	splitBits := 0
	for 1<<splitBits < 4*cfg.Threads && splitBits < len(cfg.In.Cells)-1 {
		splitBits++
	}
	nodeCount := 0
	remaining := int64(cfg.Threads)
	in := cfg.In

	for ti := 0; ti < cfg.Threads; ti++ {
		ti := ti
		m.Spawn(cores[ti], func(t *sim.Thread) {
			nodes := 0
			var walk func(i int, mask uint32)
			walk = func(i int, mask uint32) {
				nodes++
				t.Nops(cfg.NodeWork)
				if i > 0 {
					// Optimistic bound read: a stale value only costs
					// extra exploration, never correctness.
					if uint64(packHeight(in, mask, i-1)) >= t.Load(bound) {
						return
					}
				}
				if i == len(in.Cells) {
					h := uint64(packHeight(in, mask, i-1))
					if h < t.Load(bound) {
						lock.Exec(t, ti, updateCS, h)
					}
					return
				}
				walk(i+1, mask)
				walk(i+1, mask|(1<<i))
			}
			// Enumerate assigned prefixes, then search below each.
			for prefix := ti; prefix < 1<<splitBits; prefix += cfg.Threads {
				var walkRest func(i int, mask uint32)
				walkRest = walk
				walkRest(splitBits, uint32(prefix))
			}
			nodeCount += nodes
			remaining--
		})
	}
	if server != nil {
		m.Spawn(serverCore, func(t *sim.Thread) { server.Run(t, &remaining) })
	}

	cycles := m.Run()
	best := int(m.Directory().Committed(bound))
	return Result{
		Config:  cfg,
		Cycles:  cycles,
		Elapsed: m.Seconds(cycles),
		Best:    best,
		Valid:   best == Reference(in),
		Nodes:   nodeCount,
		Stats:   m.Stats(),
	}
}
