package figures

import (
	"time"

	"armbar/internal/metrics"
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
	// (cause name -> simulated cycles), present when a global
	// sim.ProfileCollector is installed. Cells within one experiment
	// run concurrently, so the per-experiment delta is the finest
	// attribution unit available; cached cells never simulate and
	// contribute nothing (a fully warm experiment profiles empty).
	ProfileCycles map[string]float64 `json:"profile_cycles,omitempty"`
}

// cellCacheCounts is the slice of the cache the instrumentation needs:
// lifetime hit/miss totals whose deltas attribute cache behavior to
// one experiment (internal/cellcache implements it).
type cellCacheCounts interface {
	Counts() (hits, misses uint64)
}

// RunInstrumented generates exp and measures it: wall time, rendered
// output size (CSV bytes, so the measure is independent of the display
// format), and how many pool cells the experiment consumed. When reg
// is non-nil the measurements are also recorded as metrics; a nil reg
// only fills the returned record. The generated tables are returned
// unchanged — instrumentation never alters experiment output.
func RunInstrumented(exp Experiment, o Options, reg *metrics.Registry) ([]*report.Table, ExperimentRun) {
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
	pc := sim.GlobalProfile()
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
	}
	for _, t := range tables {
		run.OutputBytes += len(t.CSV())
	}
	if reg != nil {
		reg.Counter("figures_experiments_total").Inc()
		reg.Counter("figures_tables_total").Add(uint64(run.Tables))
		reg.Counter("figures_output_bytes_total").Add(uint64(run.OutputBytes))
		reg.Counter("figures_cells_total").Add(uint64(run.Cells))
		reg.Gauge(metrics.Labeled("figures_wall_seconds", "exp", exp.Name)).Set(run.WallSeconds)
		reg.Gauge(metrics.Labeled("figures_output_bytes", "exp", exp.Name)).Set(float64(run.OutputBytes))
		reg.Gauge(metrics.Labeled("figures_cells", "exp", exp.Name)).Set(float64(run.Cells))
	}
	return tables, run
}
