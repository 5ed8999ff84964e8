package locks

import (
	"testing"

	"armbar/internal/isa"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

func bench(t *testing.T, cfg BenchConfig) BenchResult {
	t.Helper()
	if cfg.Plat == nil {
		cfg.Plat = platform.Kunpeng916()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	return Bench(cfg)
}

func TestTicketMutualExclusion(t *testing.T) {
	r := bench(t, BenchConfig{Kind: Ticket, Threads: 12, Ops: 120, Globals: 2})
	if !r.Valid {
		t.Fatal("ticket lock lost updates: mutual exclusion or publication broken")
	}
}

func TestTicketUnlockBarrierRemovalIsUnsafeButFaster(t *testing.T) {
	// Figure 7a: removing the unlock barrier after the RMR yields up to
	// ~23% more throughput on the server when the CS visits global
	// lines. (The paper measures overhead; removal alone is not a safe
	// program, which the validity flag may reflect.)
	normal := bench(t, BenchConfig{Kind: Ticket, Threads: 12, Ops: 120, Globals: 2,
		UnlockBarrier: isa.DMBSt})
	removed := bench(t, BenchConfig{Kind: Ticket, Threads: 12, Ops: 120, Globals: 2,
		UnlockBarrier: isa.AddrDep}) // effectively no publication fence
	if !normal.Valid {
		t.Fatal("normal ticket must be correct")
	}
	gain := removed.Throughput() / normal.Throughput()
	if gain < 1.03 {
		t.Errorf("barrier removal gain %.3fx, want noticeable (>1.03x)", gain)
	}
}

func TestTicketBarrierCostGrowsWithGlobalLines(t *testing.T) {
	// Figure 7a: with zero global lines the unlock barrier does not
	// follow an RMR, so its cost is small; with 2 lines it is evident.
	gainAt := func(globals int) float64 {
		n := bench(t, BenchConfig{Kind: Ticket, Threads: 12, Ops: 120, Globals: globals,
			UnlockBarrier: isa.DMBSt})
		r := bench(t, BenchConfig{Kind: Ticket, Threads: 12, Ops: 120, Globals: globals,
			UnlockBarrier: isa.AddrDep})
		return r.Throughput() / n.Throughput()
	}
	g0, g2 := gainAt(0), gainAt(2)
	if g2 < g0 {
		t.Errorf("removal gain should grow with visited global lines: g0=%.3f g2=%.3f", g0, g2)
	}
}

func TestFFWDCorrectness(t *testing.T) {
	for _, k := range []Kind{FFWD, FFWDPilot} {
		r := bench(t, BenchConfig{Kind: k, Threads: 10, Ops: 100, Globals: 1})
		if !r.Valid {
			t.Errorf("%v: lost updates", k)
		}
	}
}

// TestRunServesEveryFFWDLock has each client alternate Exec between two
// FFWD locks and a ticket lock. Run must spawn a server for each FFWD
// lock and stop them all once the clients return: a missing server, or
// one that never stops, trips the watchdog.
func TestRunServesEveryFFWDLock(t *testing.T) {
	const clients, ops = 6, 30
	p := platform.Kunpeng916()
	m := sim.New(sim.Config{Plat: p, Mode: sim.WMM, Seed: 3, MaxTime: 2e6})
	cores, serverCore := p.Sys.InterleaveCores(clients)
	lks := []Lock{
		NewFFWD(m, clients, false, [2]isa.Barrier{}),
		NewTicket(m, isa.DMBSt),
		NewFFWD(m, clients, true, [2]isa.Barrier{}),
	}
	counters := m.Alloc(len(lks))
	bump := make([]CS, len(lks))
	for k := range lks {
		line := counters + uint64(k)<<6
		bump[k] = func(t *sim.Thread, _ uint64) uint64 {
			c := t.Load(line)
			t.Store(line, c+1)
			return c + 1
		}
	}
	defer func() {
		if e := recover(); e != nil {
			t.Fatalf("simulation aborted: %v", e)
		}
	}()
	Run(m, lks, cores, serverCore, func(t *sim.Thread, i int) {
		for op := 0; op < ops; op++ {
			for k, l := range lks {
				l.Exec(t, i, bump[k], 0)
			}
		}
	})
	for k := range lks {
		if got := m.Directory().Committed(counters + uint64(k)<<6); got != clients*ops {
			t.Errorf("lock %d's counter = %d, want %d", k, got, clients*ops)
		}
	}
}

func TestDSMSynchCorrectness(t *testing.T) {
	for _, k := range []Kind{DSMSynch, DSMSynchPilot} {
		r := bench(t, BenchConfig{Kind: k, Threads: 10, Ops: 100, Globals: 1})
		if !r.Valid {
			t.Errorf("%v: lost updates", k)
		}
	}
}

func TestCSReturnValuesSequential(t *testing.T) {
	// The counter CS returns its post-increment value; under correct
	// mutual exclusion every value 1..total appears exactly once.
	p := platform.Kunpeng916()
	for _, kind := range []Kind{Ticket, FFWD, FFWDPilot, DSMSynch, DSMSynchPilot} {
		cfg := BenchConfig{Plat: p, Kind: kind, Threads: 6, Ops: 50, Seed: 5}
		r := Bench(cfg)
		if !r.Valid {
			t.Errorf("%v: validity check failed", kind)
		}
	}
}

func TestFig7bWeakBarriersBeatFullInDelegation(t *testing.T) {
	// Figure 7b: LDAR-DMBst / DMBld-DMBst outperform DMBfull-DMBst, and
	// LDAR-NoBarrier beats LDAR-DMBst by ~20% (the paper reports +22%).
	run := func(kind Kind, x, y isa.Barrier) float64 {
		return bench(t, BenchConfig{Kind: kind, Threads: 12, Ops: 150, Globals: 0,
			ServeBarriers: [2]isa.Barrier{x, y}}).Throughput()
	}
	full := run(FFWD, isa.DMBFull, isa.DMBSt)
	ldar := run(FFWD, isa.LDAR, isa.DMBSt)
	if ldar < 0.95*full {
		// FFWD batches the Y barrier, so the X choice matters less;
		// require no regression here and check the real effects on the
		// per-request DSMSynch below.
		t.Errorf("LDAR-DMBst (%g) regressed vs DMBfull-DMBst (%g)", ldar, full)
	}
	dsFull := run(DSMSynch, isa.DMBFull, isa.DMBSt)
	dsLdar := run(DSMSynch, isa.LDAR, isa.DMBSt)
	if dsLdar < dsFull {
		t.Errorf("DSMSynch LDAR-DMBst (%g) should beat DMBfull-DMBst (%g)", dsLdar, dsFull)
	}
	dsNoY := run(DSMSynch, isa.LDAR, isa.AddrDep)
	if gain := dsNoY / dsLdar; gain < 1.2 {
		t.Errorf("DSMSynch LDAR-No Barrier is %.2fx LDAR-DMBst, want at least 1.2x", gain)
	}
}

func TestFig7cPilotGainAtHighContention(t *testing.T) {
	// Figure 7c: at high contention (no interval) Pilot improves
	// DSMSynch substantially and FFWD more modestly; at low contention
	// Pilot costs roughly nothing.
	hi := func(k Kind) float64 {
		return bench(t, BenchConfig{Kind: k, Threads: 24, Ops: 80, Interval: 0}).Throughput()
	}
	lo := func(k Kind) float64 {
		return bench(t, BenchConfig{Kind: k, Threads: 24, Ops: 30, Interval: 12800}).Throughput()
	}
	dsGain := hi(DSMSynchPilot) / hi(DSMSynch)
	ffGain := hi(FFWDPilot) / hi(FFWD)
	if dsGain < 1.15 {
		t.Errorf("DSynch-P high-contention gain %.2fx, want substantial (>1.15x)", dsGain)
	}
	if ffGain < 1.02 {
		t.Errorf("FFWD-P high-contention gain %.2fx, want positive", ffGain)
	}
	if ffGain > dsGain {
		t.Errorf("FFWD batches barriers: its Pilot gain (%.2fx) should not exceed DSynch's (%.2fx)",
			ffGain, dsGain)
	}
	loGain := lo(DSMSynchPilot) / lo(DSMSynch)
	if loGain < 0.85 {
		t.Errorf("low contention: Pilot should not cost much (%.2fx)", loGain)
	}
}

func TestTicketWinsAtLowContention(t *testing.T) {
	// Figure 7c right side: the in-place lock overtakes delegation when
	// contention vanishes.
	tk := bench(t, BenchConfig{Kind: Ticket, Threads: 8, Ops: 40, Interval: 128000}).Throughput()
	ds := bench(t, BenchConfig{Kind: DSMSynch, Threads: 8, Ops: 40, Interval: 128000}).Throughput()
	if tk < ds*0.9 {
		t.Errorf("ticket (%g) should be competitive at low contention vs DSynch (%g)", tk, ds)
	}
}

func TestDeterministicBench(t *testing.T) {
	cfg := BenchConfig{Plat: platform.Kunpeng916(), Kind: DSMSynch, Threads: 8, Ops: 60, Seed: 7}
	a, b := Bench(cfg), Bench(cfg)
	if a.Cycles != b.Cycles {
		t.Fatalf("non-deterministic: %g vs %g", a.Cycles, b.Cycles)
	}
}

func TestAllKindsValidInBench(t *testing.T) {
	for _, k := range []Kind{Ticket, TAS, MCS, CLH, FC, FCPilot, FFWD, FFWDPilot,
		DSMSynch, DSMSynchPilot} {
		r := bench(t, BenchConfig{Kind: k, Threads: 8, Ops: 40, Globals: 1})
		if !r.Valid {
			t.Errorf("%v: bench validity failed", k)
		}
	}
}

func TestCombinersBeatInPlaceAtHighContention(t *testing.T) {
	// The extension table's headline: combining locks overtake the
	// in-place family when everyone hammers the same lock.
	tick := bench(t, BenchConfig{Kind: Ticket, Threads: 20, Ops: 60}).Throughput()
	fc := bench(t, BenchConfig{Kind: FC, Threads: 20, Ops: 60}).Throughput()
	if fc < tick {
		t.Errorf("flat combining (%g) should beat ticket (%g) at high contention", fc, tick)
	}
}
