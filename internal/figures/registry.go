package figures

import (
	"sort"

	"armbar/internal/report"
)

// Experiment is one entry of the canonical experiment registry: the
// name cmd/armbar accepts, the generator, and the number of tables it
// emits. The registry is the single source of truth — the CLI, the
// root benchmarks, and the determinism tests all iterate it, so a new
// figure only has to be added here.
type Experiment struct {
	Name   string
	Tables int // tables the generator emits (CSV files written per run)
	Gen    func(Options) []*report.Table
}

// one adapts a single-table generator to the registry signature.
func one(f func(Options) *report.Table) func(Options) []*report.Table {
	return func(o Options) []*report.Table { return []*report.Table{f(o)} }
}

// registry is the canonical experiment list, in the paper's order
// followed by the extensions. Keep Tables in sync with the generator.
var registry = []Experiment{
	{"table1", 1, one(Table1)},
	{"table2", 1, one(Table2)},
	{"table3", 1, one(Table3)},
	{"fig2", 4, Fig2},
	{"fig3", 5, Fig3},
	{"fig4", 1, one(Fig4)},
	{"fig5", 1, one(Fig5)},
	{"fig6a", 1, one(Fig6a)},
	{"fig6b", 1, one(Fig6b)},
	{"fig6c", 1, one(Fig6c)},
	{"fig6d", 1, one(Fig6d)},
	{"fig7a", 1, one(Fig7a)},
	{"fig7b", 1, one(Fig7b)},
	{"fig7c", 1, one(Fig7c)},
	{"fig8a", 1, one(Fig8a)},
	{"fig8b", 1, one(Fig8b)},
	{"fig8c", 1, one(Fig8c)},
	{"fig8d", 1, one(Fig8d)},
	{"inplace", 1, one(InPlaceLocks)},
	{"mpmc", 1, one(MPMCFanIn)},
	{"tso", 1, one(TSOPorting)},
	{"seqlock", 1, one(SeqlockVsPilot)},
	{"a64", 1, one(A64CrossCheck)},
	{"ablation", 5, ablationTables},
	{"barrierzoo", 1, one(BarrierZoo)},
	{"fencemin", 1, one(FenceMin)},
	{"fencefuzz", 1, one(FenceFuzz)},
}

// ablationTables fans the five ablation sweeps out as independent
// whole-table cells — each sweep travels as a report.Wire (exported
// fields, so it gob-encodes), making the sweeps cached and
// parallelized like any other cell.
func ablationTables(o Options) []*report.Table {
	gens := []func(Options) *report.Table{
		AnomalyVsJitter,
		AnomalyVsInvalidationDelay,
		TippingVsMissLatency,
		PilotGainVsStoreBuffer,
		BarrierCostVsSyncTxn,
	}
	wires := cellMap(o, len(gens), func(i int) report.Wire { return gens[i](o).Wire() })
	out := make([]*report.Table, len(wires))
	for i, w := range wires {
		out[i] = report.FromWire(w)
	}
	return out
}

// Registry returns the canonical experiment list in presentation
// order (the order `armbar all` regenerates them).
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByName looks an experiment up by its CLI name.
func ByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns every experiment name in alphabetical order (for
// usage strings).
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}
