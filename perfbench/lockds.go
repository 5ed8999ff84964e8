package main

import (
	"strings"

	"armbar/internal/ds"
	"armbar/internal/isa"
	"armbar/internal/locks"
	"armbar/internal/pc"
	"armbar/internal/platform"
)

// lockdsCells is a fixed slice of the quick-scale grids of the eight
// heavy experiments (fig7a/7b/7c, fig8a/8b/8c, inplace, mpmc), with 3
// to 13 simulated threads per machine. The slice keeps every
// experiment but leaves out cells over half a second of host time
// (fig7a keeps its 4-thread mobile and Pi cells), so a pass takes under
// two seconds where the full quick grids take minutes, and the pass
// median rather than any single cell sets wall_s. Cells are listed
// longest first so the pool's tail stays short.
func lockdsCells(seed int64) []cell {
	const quickThreads = 12 // figures' quick client count
	lock := func(group, name string, cfg locks.BenchConfig) cell {
		return cell{name: group + "/" + name, group: group, run: func(*cellCtx) outcome {
			cfg := cfg
			cfg.Plat, cfg.Seed = platform.ByName(plat(name)), seed
			r := locks.Bench(cfg)
			return simOutcome(r.Cycles, r.Valid, r.Stats, cfg.Threads+servers(cfg.Kind))
		}}
	}
	dsCell := func(group, name string, cfg ds.Config) cell {
		return cell{name: group + "/" + name, group: group, run: func(*cellCtx) outcome {
			cfg := cfg
			cfg.Plat, cfg.Seed = platform.Kunpeng916(), seed
			r := ds.Run(cfg)
			return simOutcome(r.Cycles, r.Valid, r.Stats, cfg.Threads+servers(cfg.Kind))
		}}
	}
	mpmc := func(name string, cfg pc.MPMCConfig) cell {
		return cell{name: "mpmc/" + name, group: "mpmc", run: func(*cellCtx) outcome {
			cfg := cfg
			cfg.Plat, cfg.Seed = platform.Kunpeng916(), seed
			r := pc.RunMPMC(cfg)
			return simOutcome(r.Cycles, r.Valid, r.Stats, cfg.Producers+1)
		}}
	}
	return []cell{
		dsCell("fig8c", "HashTable/FFWD/2", ds.Config{Kind: locks.FFWD, Struct: ds.HashTable,
			Threads: quickThreads / 2, Rounds: 5, Preload: 512, Buckets: 2}),
		lock("fig7b", "DSynch/LDAR-none", locks.BenchConfig{Kind: locks.DSMSynch, Threads: quickThreads,
			Ops: 60, ServeBarriers: [2]isa.Barrier{isa.LDAR, isa.AddrDep}}),
		dsCell("fig8b", "List/FFWD-P/50", ds.Config{Kind: locks.FFWDPilot, Struct: ds.List,
			Threads: quickThreads / 2, Rounds: 6, Preload: 50}),
		lock("inplace", "TAS/0", locks.BenchConfig{Kind: locks.TAS, Threads: quickThreads, Ops: 40}),
		dsCell("fig8a", "Queue/DSynch-P", ds.Config{Kind: locks.DSMSynchPilot, Struct: ds.Queue,
			Threads: quickThreads, Rounds: 20}),
		lock("fig7c", "FFWD-P/128000", locks.BenchConfig{Kind: locks.FFWDPilot, Threads: quickThreads,
			Ops: 40, Interval: 128000}),
		mpmc("LockedRing/2", pc.MPMCConfig{Producers: 2, Messages: 120, Mode: pc.LockedRing}),
		lock("fig7c", "Ticket/12800", locks.BenchConfig{Kind: locks.Ticket, Threads: quickThreads,
			Ops: 40, Interval: 12800}),
		dsCell("fig8b", "List/DSynch-P/0", ds.Config{Kind: locks.DSMSynchPilot, Struct: ds.List,
			Threads: quickThreads / 2, Rounds: 6}),
		lock("inplace", "MCS/128000", locks.BenchConfig{Kind: locks.MCS, Threads: quickThreads,
			Ops: 40, Interval: 128000}),
		lock("fig7a", "Kirin960/Ticket/g2/DMBst", locks.BenchConfig{Kind: locks.Ticket, Threads: 4,
			Ops: 80, Globals: 2, UnlockBarrier: isa.DMBSt}),
		lock("fig7a", "Raspberry Pi 4/Ticket/g2/ADDR", locks.BenchConfig{Kind: locks.Ticket, Threads: 4,
			Ops: 80, Globals: 2, UnlockBarrier: isa.AddrDep}),
		dsCell("fig8c", "HashTable/Ticket/32", ds.Config{Kind: locks.Ticket, Struct: ds.HashTable,
			Threads: quickThreads / 2, Rounds: 5, Preload: 512, Buckets: 32}),
	}
}

// plat is the platform a lock cell names before its first slash, the
// server model for every cell that names none.
func plat(name string) string {
	if p, _, ok := strings.Cut(name, "/"); ok && platform.ByName(p) != nil {
		return p
	}
	return "Kunpeng916"
}

// servers is the number of dedicated server threads a lock kind adds.
func servers(k locks.Kind) int {
	if k == locks.FFWD || k == locks.FFWDPilot {
		return 1
	}
	return 0
}

func prepareLockds(e *env) (*plan, error) {
	cells := lockdsCells(e.seed)
	return &plan{pass: func(r *passRun) { r.run(cells) }}, nil
}
