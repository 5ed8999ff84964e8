// Package progpkg is the progvet fixture: hand-written prog.Op
// literals with in-range targets, bounded loop counters, and
// fixed-address spins pass; out-of-range targets, forward loop
// targets, ring-addressed spins, over-depth counters, and degenerate
// SpinGE waits are flagged. It uses the real prog package so the
// bounds come from the production constants.
package progpkg

import "armbar/internal/prog"

func goodProgram() []prog.Op {
	return []prog.Op{
		{Code: prog.Store, Addr: 64, Val: 1},
		{Code: prog.SpinEQ, Addr: 128, Val: 1},
		{Code: prog.Load, Addr: 64},
		{Code: prog.LoopEnd, Target: 0, Count: 8, Dep: 7},
		{Code: prog.Jump, Target: 5}, // == len: a jump past the last op is legal
	}
}

func goodRingLoad() []prog.Op {
	// Address rings are fine on plain memory ops — only spins must
	// watch a fixed location.
	return []prog.Op{
		{Code: prog.Load, AMode: prog.AddrTable, Addr: 0, Dep: 0},
		{Code: prog.LoopEnd, Target: 0, Count: 4},
	}
}

func goodBuilder(b *prog.Builder) {
	b.SpinGE(prog.Abs(64), 5, 0)
	b.SpinEQ(prog.Abs(64), 0, 0) // equality against 0 is a real wait
}

func badTargets() []prog.Op {
	return []prog.Op{
		{Code: prog.Jump, Target: 3},  // want `jump target 3 out of range \[0,2\]`
		{Code: prog.Jump, Target: -1}, // want `jump target -1 out of range \[0,2\]`
	}
}

func badLoops() []prog.Op {
	return []prog.Op{
		{Code: prog.LoopEnd, Target: 1, Count: 2}, // want `loop target 1 does not point backward from op 0`
		{Code: prog.Load, Addr: 64, Dep: 8},       // want `loop counter 8 out of range \[0,8\)`
	}
}

func badRingSpin() []prog.Op {
	return []prog.Op{
		{Code: prog.SpinGE, AMode: prog.AddrTable, Addr: 0, Val: 3}, // want `SpinGE through an address ring`
	}
}

func badBuilder(b *prog.Builder) {
	b.SpinGE(prog.Abs(64), 0, 0) // want `SpinGE threshold 0 is always satisfied`
}
