package figures

import (
	"time"

	"armbar/internal/report"
	"armbar/internal/sim"
)

// ExperimentRun is the observability record of one generated
// experiment — the per-experiment entry of cmd/armbar's run manifest.
type ExperimentRun struct {
	Name        string  `json:"name"`
	Tables      int     `json:"tables"`
	WallSeconds float64 `json:"wall_seconds"`
	OutputBytes int     `json:"output_bytes"`           // rendered CSV bytes, format-independent
	Cells       int     `json:"cells"`                  // simulation cells run through the pool (0 when inline)
	CacheHits   int     `json:"cache_hits,omitempty"`   // cells served from the result cache
	CacheMisses int     `json:"cache_misses,omitempty"` // cells simulated (and then stored)

	// ProfileCycles is the experiment's cycle-attribution rollup
	// (cause name -> simulated cycles), and Sim the summed counters of
	// its machines; both are present when RunInstrumented is given a
	// profile collector. Cells within one experiment run concurrently,
	// so the per-experiment delta is the finest attribution unit
	// available; cached cells never simulate and contribute nothing (a
	// fully warm experiment profiles empty). Sim omits the two
	// high-water marks, which a delta cannot recover.
	ProfileCycles map[string]float64 `json:"profile_cycles,omitempty"`
	Sim           *sim.Stats         `json:"sim,omitempty"`
}

// cellCacheCounts is the slice of the cache the instrumentation needs:
// lifetime hit/miss totals whose deltas attribute cache behavior to
// one experiment (internal/cellcache implements it).
type cellCacheCounts interface {
	Counts() (hits, misses uint64)
}

// RunInstrumented generates exp and measures it: wall time, rendered
// output size (CSV bytes, so the measure is independent of the display
// format), and how many pool cells the experiment consumed. When pc is
// non-nil — the collector installed with sim.SetGlobalProfile — the
// record also carries this experiment's share of it. The generated
// tables are returned unchanged — instrumentation never alters
// experiment output.
func RunInstrumented(exp Experiment, o Options, pc *sim.ProfileCollector) ([]*report.Table, ExperimentRun) {
	o = o.Scoped(exp.Name)
	var hits0, misses0 uint64
	counts, hasCache := o.Cache.(cellCacheCounts)
	if hasCache {
		hits0, misses0 = counts.Counts()
	}
	cellsBefore := o.Pool.TasksDone()
	// Experiments run sequentially (cmd/armbar's loop), so two
	// snapshots of the cumulative collector bracket exactly this
	// experiment's machines.
	var prof0 sim.Profile
	if pc != nil {
		prof0 = pc.Snapshot()
	}
	start := time.Now() //armvet:ignore determvet — wall-time measurement lands in the manifest, never in tables
	tables := exp.Gen(o)
	run := ExperimentRun{
		Name:        exp.Name,
		Tables:      len(tables),
		WallSeconds: time.Since(start).Seconds(), //armvet:ignore determvet — manifest-only wall time
		Cells:       int(o.Pool.TasksDone() - cellsBefore),
	}
	if hasCache {
		hits1, misses1 := counts.Counts()
		run.CacheHits = int(hits1 - hits0)
		run.CacheMisses = int(misses1 - misses0)
	}
	if pc != nil {
		prof1 := pc.Snapshot()
		delta := prof1.Sub(prof0)
		run.ProfileCycles = delta.CyclesByCause()
		run.Sim = &delta.Stats
	}
	for _, t := range tables {
		run.OutputBytes += len(t.CSV())
	}
	return tables, run
}
