// Package ablation studies how the simulator's own design parameters
// shape the reproduced results — the knobs DESIGN.md calls out. Each
// function sweeps one cost-model parameter and reports the headline
// metric it controls, so a reader can see which conclusions are robust
// to calibration and which are driven by a specific constant.
package ablation

import (
	"fmt"

	"armbar/internal/absmodel"
	"armbar/internal/explore"
	"armbar/internal/isa"
	"armbar/internal/pc"
	"armbar/internal/platform"
	"armbar/internal/report"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

// Options mirrors figures.Options on a smaller scale.
type Options struct {
	Quick bool
	Seed  int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func (o Options) runs(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// AnomalyVsJitter sweeps the store-drain jitter and reports the
// message-passing anomaly rate: the litmus behavior (Table 1) exists
// *because* of non-FIFO drain, and vanishes as the jitter goes to zero
// only in combination with the invalidation window.
func AnomalyVsJitter(o Options) *report.Table {
	runs := o.runs(2000, 400)
	t := report.New("Ablation: MP anomaly rate vs drain jitter",
		"DrainJitter (cycles)", "anomalies", "rate")
	for _, j := range []float64{0, 10, 25, 50, 100, 200} {
		p := platform.Kunpeng916()
		p.Cost.DrainJitter = j
		res := explore.Sample(p, explore.MP(), 0, sim.WMM, runs, o.seed())
		bad := res.Count["flag=1 local=0"]
		t.Row(j, bad, float64(bad)/float64(runs))
	}
	t.Note = "non-FIFO drain is the dominant WMM mechanism here: with zero jitter the two equal-cost stores commit in issue order and the anomaly disappears"
	return t
}

// AnomalyVsInvalidationDelay sweeps the stale-read window.
func AnomalyVsInvalidationDelay(o Options) *report.Table {
	runs := o.runs(2000, 400)
	t := report.New("Ablation: MP anomaly rate vs invalidation-processing window",
		"InvalidationDelay (cycles)", "anomalies", "rate")
	for _, d := range []float64{0, 10, 20, 40, 80, 160} {
		p := platform.Kunpeng916()
		p.Cost.InvalidationDelay = d
		res := explore.Sample(p, explore.MP(), 0, sim.WMM, runs, o.seed())
		bad := res.Count["flag=1 local=0"]
		t.Row(d, bad, float64(bad)/float64(runs))
	}
	return t
}

// TippingVsMissLatency sweeps the cross-node miss latency and reports
// where the Figure-4 tipping point lands: the paper's "700 nops" is a
// direct readout of the cross-node snoop time.
func TippingVsMissLatency(o Options) *report.Table {
	t := report.New("Ablation: tipping point vs cross-node miss latency",
		"MissCrossNode (cycles)", "tipping nops", "full-1 : full-2")
	for _, miss := range []float64{120, 180, 230, 320, 450} {
		p := platform.Kunpeng916()
		p.Cost.MissCrossNode = miss
		cross := [2]topo.CoreID{p.Sys.NodeCores(0)[0], p.Sys.NodeCores(1)[0]}
		n, ratio := absmodel.TippingPoint(p, cross, 0.95, o.seed())
		t.Row(miss, n, ratio)
	}
	t.Note = "the tipping padding tracks the snoop latency; the ½ ratio is invariant (Obs 2)"
	return t
}

// PilotGainVsStoreBuffer sweeps the store-buffer depth: the publication
// fence hurts by serializing commits, which only throttles the producer
// once the buffer is too shallow to absorb the backlog.
func PilotGainVsStoreBuffer(o Options) *report.Table {
	msgs := o.runs(1500, 400)
	t := report.New("Ablation: producer-consumer Pilot gain vs store-buffer entries",
		"StoreBufferEntries", "DMBld-DMBst (Mmsg/s)", "Pilot (Mmsg/s)", "gain")
	for _, entries := range []int{2, 4, 8, 16, 24, 48} {
		p := platform.Kunpeng916()
		p.Cost.StoreBufferEntries = entries
		prod := p.Sys.NodeCores(0)[0]
		cons := p.Sys.NodeCores(1)[0]
		best := pc.Run(pc.Config{Plat: p, Producer: prod, Consumer: cons,
			Mode: pc.Classic, Combo: pc.Combo{Avail: isa.DMBLd, Publish: isa.DMBSt},
			Messages: msgs, Seed: o.seed()}).Throughput()
		pil := pc.Run(pc.Config{Plat: p, Producer: prod, Consumer: cons,
			Mode: pc.Pilot, Messages: msgs, Seed: o.seed()}).Throughput()
		t.Row(entries, best/1e6, pil/1e6, fmt.Sprintf("%.2fx", pil/best))
	}
	return t
}

// BarrierCostVsSyncTxn sweeps the DSB domain-boundary cost and reports
// the Figure-2 DSB:no-barrier gap — the one number Obs 1 hangs on.
func BarrierCostVsSyncTxn(o Options) *report.Table {
	iters := o.runs(1500, 400)
	t := report.New("Ablation: intrinsic DSB gap vs SyncTxn",
		"SyncTxn (cycles)", "No Barrier (Mloops/s)", "DSB full (Mloops/s)", "gap")
	for _, txn := range []float64{60, 120, 240, 480, 960} {
		p := platform.Kunpeng916()
		p.Cost.SyncTxn = txn
		cores := [2]topo.CoreID{p.Sys.NodeCores(0)[0], p.Sys.NodeCores(0)[4]}
		none := absmodel.Run(absmodel.Config{Plat: p, Cores: cores, Pattern: absmodel.NoMem,
			Variant: absmodel.Variant{Barrier: isa.None}, Nops: 30, Iters: iters, Seed: o.seed()}).Throughput()
		dsb := absmodel.Run(absmodel.Config{Plat: p, Cores: cores, Pattern: absmodel.NoMem,
			Variant: absmodel.Variant{Barrier: isa.DSBFull, Loc: absmodel.Loc2}, Nops: 30,
			Iters: iters, Seed: o.seed()}).Throughput()
		t.Row(txn, none/1e6, dsb/1e6, fmt.Sprintf("%.1fx", none/dsb))
	}
	return t
}

// All returns every ablation table.
func All(o Options) []*report.Table {
	return []*report.Table{
		AnomalyVsJitter(o),
		AnomalyVsInvalidationDelay(o),
		TippingVsMissLatency(o),
		PilotGainVsStoreBuffer(o),
		BarrierCostVsSyncTxn(o),
	}
}
