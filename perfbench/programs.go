package main

import (
	"fmt"

	"armbar/internal/absmodel"
	"armbar/internal/barrier"
	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// absBinding is one two-thread placement of the abstracted model, with
// the two-store paddings Figure 3 uses for it.
type absBinding struct {
	label string
	plat  *platform.Platform
	cores [2]topo.CoreID
	nops  [2]int
}

// absBindings are the five Figure-6 placements: Kunpeng916 same node
// and cross nodes, the Kirin960/970 big clusters and the Raspberry Pi.
func absBindings() []absBinding {
	kp := platform.Kunpeng916()
	n0, n1 := kp.Sys.NodeCores(0), kp.Sys.NodeCores(1)
	k960, k970, rpi := platform.Kirin960(), platform.Kirin970(), platform.RaspberryPi4()
	b960, b970 := k960.Sys.CoresOfClass(topo.Big), k970.Sys.CoresOfClass(topo.Big)
	return []absBinding{
		{"kp-same", kp, [2]topo.CoreID{n0[0], n0[4]}, [2]int{50, 500}},
		{"kp-cross", kp, [2]topo.CoreID{n0[0], n1[0]}, [2]int{300, 700}},
		{"kirin960", k960, [2]topo.CoreID{b960[0], b960[1]}, [2]int{10, 60}},
		{"kirin970", k970, [2]topo.CoreID{b970[0], b970[1]}, [2]int{10, 60}},
		{"rpi4", rpi, [2]topo.CoreID{0, 1}, [2]int{10, 60}},
	}
}

// programsCells runs the compiled engine: the five barrier algorithms
// at 256 and 64 cores (pairwise only at 64, as the barrierzoo figure
// runs it), the Figure 2/3/5 variant grids of the abstracted model over
// the five bindings at the quick iteration count (2 threads each), and
// the Algorithm-1 assembly path of the a64 cross-check.
func programsCells(seed int64) []cell {
	var cells []cell
	for _, a := range barrier.Algos() {
		for _, n := range []int{256, 64} {
			if a == barrier.Pairwise && n > 64 {
				continue
			}
			cells = append(cells, barrierCell(a, n, seed))
		}
	}
	grids := []struct {
		pattern  absmodel.MemPattern
		variants []absmodel.Variant
		nops     func(b absBinding) [2]int
	}{
		{absmodel.NoMem, absmodel.Figure2Variants(), func(absBinding) [2]int { return [2]int{10, 50} }},
		{absmodel.TwoStores, absmodel.Figure3Variants(), func(b absBinding) [2]int { return b.nops }},
		{absmodel.LoadStore, absmodel.Figure5Variants(), func(absBinding) [2]int { return [2]int{300, 500} }},
	}
	for _, b := range absBindings() {
		for _, g := range grids {
			for _, v := range g.variants {
				for _, n := range g.nops(b) {
					cfg := absmodel.Config{Plat: b.plat, Cores: b.cores, Pattern: g.pattern,
						Variant: v, Nops: n, Iters: 300, Seed: seed}
					name := fmt.Sprintf("absmodel/%s/%s/%s/%d", b.label, g.pattern, v.Name(), n)
					cells = append(cells, cell{name: name, group: "absmodel/" + g.pattern.String(),
						run: func(*cellCtx) outcome { return absOutcome(absmodel.Run(cfg), cfg) }})
				}
			}
		}
	}
	kp := absBindings()[0]
	for _, v := range []absmodel.Variant{
		{Barrier: isa.None},
		{Barrier: isa.DMBFull, Loc: absmodel.Loc1},
		{Barrier: isa.DMBFull, Loc: absmodel.Loc2},
		{Barrier: isa.DMBSt, Loc: absmodel.Loc1},
		{Barrier: isa.DSBFull, Loc: absmodel.Loc1},
		{Barrier: isa.STLR},
	} {
		cfg := absmodel.Config{Plat: kp.plat, Cores: kp.cores, Pattern: absmodel.TwoStores,
			Variant: v, Nops: 60, Iters: 400, Seed: seed}
		cells = append(cells, cell{name: "a64/" + v.Name(), group: "a64", run: func(*cellCtx) outcome {
			r, err := absmodel.RunA64(cfg)
			if err != nil {
				return outcome{err: err.Error()}
			}
			return absOutcome(r, cfg)
		}})
	}
	return cells
}

// absOutcome checks an abstracted-model run: both threads must finish
// every loop in positive simulated time.
func absOutcome(r absmodel.Result, cfg absmodel.Config) outcome {
	ok := r.Loops == 2*cfg.Iters && r.Cycles > 0
	o := simOutcome(r.Cycles, ok, r.Stats, 2)
	if !ok {
		o.err = fmt.Sprintf("loops=%d cycles=%v", r.Loops, r.Cycles)
	}
	return o
}

// barrierCell times the three steps of one barrier-zoo run separately:
// program construction, machine spawn (which builds the programs again
// internally) and the simulation itself.
func barrierCell(a barrier.Algo, n int, seed int64) cell {
	return cell{name: fmt.Sprintf("barrier/%s/%d", a, n), group: "barrier", run: func(cc *cellCtx) outcome {
		cfg := barrier.Config{Plat: platform.MustScaleOut(n), Threads: n, Rounds: 2, Seed: seed}
		var err error
		cc.time("barrier.Programs", func() { _, err = barrier.Programs(a, cfg) })
		if err != nil {
			return outcome{err: err.Error()}
		}
		var m *sim.Machine
		cc.time("barrier.Spawn", func() { m, err = barrier.Spawn(a, cfg) })
		if err != nil {
			return outcome{err: err.Error()}
		}
		var cycles float64
		cc.time("sim.Machine.Run", func() { cycles = m.Run() })
		return simOutcome(cycles, cycles > 0, m.Stats(), n)
	}}
}

// programsReplay are the experiments a programs pass also regenerates,
// once cold and 100 times warm, as replay does. They add under a tenth
// to the pass, so the result cache, the cells' decoding and rendering
// are measured on a workload that BENCHMARK.json gates.
var programsReplay = []string{"table1", "tso", "fig5"}

func preparePrograms(e *env) (*plan, error) {
	cells := programsCells(e.seed)
	replay, err := replayPass(e, programsReplay, 4)
	if err != nil {
		return nil, err
	}
	return &plan{pass: func(r *passRun) {
		r.run(cells)
		replay(r)
	}}, nil
}
