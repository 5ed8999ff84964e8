package absmodel

import (
	"fmt"
	"strings"

	"armbar/internal/a64"
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// RunA64 executes the two-store abstracted model from the paper's
// actual Algorithm-1 assembly (built by Algorithm1Source), interpreted
// by package a64 on closure threads, instead of the micro-op program
// Run compiles — a cross-validation path: both forms must agree on
// every variant's throughput within small tolerance.
func RunA64(cfg Config) (Result, error) {
	if cfg.Pattern != TwoStores {
		return Result{}, fmt.Errorf("absmodel: RunA64 supports the two-store pattern only")
	}
	if cfg.Iters == 0 {
		cfg.Iters = 1500
	}
	if cfg.Lines == 0 {
		cfg.Lines = 16
	}
	src := Algorithm1Source(cfg.Variant, cfg.Nops)
	prog, err := a64.Parse(src)
	if err != nil {
		return Result{}, err
	}
	m := sim.New(sim.Config{Plat: cfg.Plat, Mode: sim.WMM, Seed: cfg.Seed})
	arrA := m.Alloc(cfg.Lines)
	arrB := m.Alloc(cfg.Lines)
	var execErr error
	for i := 0; i < 2; i++ {
		m.Spawn(cfg.Cores[i], func(t *sim.Thread) {
			iters := cfg.Iters
			for iters > 0 {
				batch := cfg.Lines
				if batch > iters {
					batch = iters
				}
				var regs a64.Regs
				regs[0] = arrA - 64 // the loop pre-increments
				regs[1] = arrB - 64
				regs[2] = 1
				regs[5] = uint64(batch)
				if _, _, err := prog.Exec(t, regs, 0); err != nil && execErr == nil {
					execErr = err
				}
				iters -= batch
			}
		})
	}
	cycles := m.Run()
	if execErr != nil {
		return Result{}, execErr
	}
	return Result{
		Config:  cfg,
		Cycles:  cycles,
		Loops:   2 * cfg.Iters,
		Stats:   m.Stats(),
		Elapsed: m.Seconds(cycles),
	}, nil
}

// Algorithm1Source renders the paper's Algorithm-1 listing for the
// two-store pattern with the chosen barrier variant and nop padding.
// Registers: x0/x1 walk the two arrays, x2 counts, x5 holds BUFSIZE.
func Algorithm1Source(v Variant, nops int) string {
	var b strings.Builder
	b.WriteString("loop:\n")
	b.WriteString("\tadd x0, x0, #64\n")
	b.WriteString("\tadd x1, x1, #64\n")
	b.WriteString("\tstr x3, [x0]\n")
	if ins := barrierInsn(v.Barrier); ins != "" && v.Loc == Loc1 {
		b.WriteString("\t" + ins + "\n")
	}
	for i := 0; i < nops; i++ {
		b.WriteString("\tnop\n")
	}
	if ins := barrierInsn(v.Barrier); ins != "" && v.Loc == Loc2 {
		b.WriteString("\t" + ins + "\n")
	}
	if v.Barrier == isa.STLR {
		b.WriteString("\tstlr x4, [x1]\n")
	} else {
		b.WriteString("\tstr x4, [x1]\n")
	}
	b.WriteString("\tadd x2, x2, #1\n")
	b.WriteString("\tcmp x2, x5\n")
	b.WriteString("\tble loop\n")
	return b.String()
}

// barrierInsn renders the standalone barrier mnemonic ("" for operand
// barriers and None).
func barrierInsn(b isa.Barrier) string {
	switch b {
	case isa.DMBFull:
		return "dmb ish"
	case isa.DMBSt:
		return "dmb ishst"
	case isa.DMBLd:
		return "dmb ishld"
	case isa.DSBFull:
		return "dsb ish"
	case isa.DSBSt:
		return "dsb ishst"
	case isa.DSBLd:
		return "dsb ishld"
	case isa.ISB:
		return "isb"
	default:
		return ""
	}
}
