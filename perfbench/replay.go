package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"armbar/internal/cellcache"
	"armbar/internal/figures"
)

// replayExperiments are the light registry experiments replay
// regenerates, longest first: each simulates in about a tenth of a
// second or less cold at every seed, together they cover the absmodel,
// pc, litmus, floorplan, a64 and explore generators, and table2/table3
// render without any cell. fencefuzz is left out because its cold cost
// depends on the seed's corpus (0.14 s to 3 s), and fig3 because its
// cold run alone would outweigh every warm regeneration.
var replayExperiments = []string{
	"fencemin", "a64", "fig2", "fig6a", "seqlock", "fig8d", "fig6b", "table1",
	"tso", "fig5", "table2", "table3",
}

// A replay pass regenerates every experiment once cold, then warmCells
// × warmBatch times warm. A warm regeneration of every experiment takes
// about 2.5 ms and the cold one about 0.5 s, so the warm ones are two
// thirds of a pass. One warm regeneration takes 0.1 ms or less, about
// what the pool and the output check spend on a cell, so a warm cell
// regenerates its experiment warmBatch times.
const (
	warmCells = 16
	warmBatch = 25
)

func prepareReplay(e *env) (*plan, error) {
	pass, err := replayPass(e, replayExperiments, warmCells)
	if err != nil {
		return nil, err
	}
	return &plan{pass: pass}, nil
}

// replayPass returns a pass that regenerates the named experiments once
// cold into a fresh cache, then warm from it in warm cells of warmBatch
// regenerations each. It opens (and closes) one cache first, so the
// code-version hash of the simulation sources is computed in set-up, as
// every armbar process computes it before its first cell.
func replayPass(e *env, names []string, warm int) (func(r *passRun), error) {
	var exps []figures.Experiment
	for _, name := range names {
		exp, ok := figures.ByName(name)
		if !ok {
			return nil, fmt.Errorf("replay: unknown experiment %q", name)
		}
		exps = append(exps, exp)
	}
	probe := filepath.Join(e.workdir, fmt.Sprintf("cache-setup-%d", os.Getpid()))
	cellcache.Open(probe).Close()
	if err := os.RemoveAll(probe); err != nil {
		return nil, err
	}
	n := 0
	return func(r *passRun) {
		n++
		dir := filepath.Join(e.workdir, fmt.Sprintf("cache-%d-%d", os.Getpid(), n))
		defer os.RemoveAll(dir)
		cold := cellcache.Open(dir)
		r.run(replayCells(exps, cold, e.seed, 1))
		r.ps.cacheBytes = cold.Stats().Bytes
		cold.Close()
		// Reopen, so the warm regenerations read what the cold ones
		// persisted.
		var wc *cellcache.Cache
		r.timeStep("cellcache.Open", func() { wc = cellcache.Open(dir) })
		defer wc.Close()
		var cells []cell
		for k := 0; k < warm; k++ {
			cells = append(cells, replayCells(exps, wc, e.seed, warmBatch)...)
		}
		r.run(cells)
	}, nil
}

// replayCells returns one cell per experiment that regenerates it n
// times, inline on the worker that runs it, through a cache wrapper
// that times every Get and Put. The digest is over the rendered text,
// so a warm regeneration must reproduce the cold one byte for byte.
func replayCells(exps []figures.Experiment, c *cellcache.Cache, seed int64, n int) []cell {
	cells := make([]cell, len(exps))
	for i, exp := range exps {
		cells[i] = cell{name: "replay/" + exp.Name, group: exp.Name, key: exp.Name,
			run: func(cc *cellCtx) outcome {
				tc := &timedCache{c: c, cc: cc}
				var o outcome
				for k := 0; k < n; k++ {
					var out bytes.Buffer
					cc.time("figures.RunInstrumented", func() {
						tables, _ := figures.RunInstrumented(exp, figures.Options{Quick: true, Seed: seed, Cache: tc}, nil)
						cc.time("report.Render", func() {
							for _, t := range tables {
								out.WriteString(t.String())
							}
						})
					})
					sum := sha256.Sum256(out.Bytes())
					d := hex.EncodeToString(sum[:8])
					if k == 0 {
						o.digest = d
					} else if d != o.digest && o.err == "" {
						o.err = fmt.Sprintf("regeneration %d rendered other bytes than the first", k+1)
					}
				}
				o.hits, o.misses = tc.hits, tc.misses
				return o
			}}
	}
	return cells
}

// timedCache is the runner.CellCache the replay cells hand to figures:
// it forwards to the shared cache, counts hits and misses, and times
// each call as a sub-span of the cell.
type timedCache struct {
	c            *cellcache.Cache
	cc           *cellCtx
	hits, misses int
}

func (t *timedCache) Get(scope string, idx int) (data []byte, ok bool) {
	t.cc.time("cellcache.Get", func() { data, ok = t.c.Get(scope, idx) })
	if ok {
		t.hits++
	} else {
		t.misses++
	}
	return data, ok
}

func (t *timedCache) Put(scope string, idx int, data []byte) {
	t.cc.time("cellcache.Put", func() { t.c.Put(scope, idx, data) })
}
