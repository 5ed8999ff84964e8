// Package prog defines the simulator's one op representation: the
// micro-op. A compiled program (sim.SpawnProgram) is a flat []Op
// lowered from a fixed op sequence (an abstracted-model loop, a
// barrier-zoo round, a sampled litmus shape), and each call a closure
// thread makes on its sim.Thread handle stages one Op as the thread's
// one-op program. Every operand is pre-resolved at build time —
// addresses to absolute values or per-iteration address tables, nop
// counts to cycle latencies, barrier names to isa values — so the
// executor in package sim serves both kinds of thread through one
// per-opcode function table with no per-op decoding or switch.
//
// Machine-visible codes (loads, stores, barriers, work, atomics,
// spin-waits) are the sim.Thread operations a closure thread calls,
// one to one, so a program presents the exact operation sequence a
// closure making those calls would. Control flow is expressed only
// through free codes (Jump, LoopEnd) that the executor folds into pc
// updates between machine ops.
package prog

import (
	"fmt"
	"math"

	"armbar/internal/isa"
)

// Code is a micro-op opcode.
type Code uint8

const (
	// Machine-visible ops: each dispatches exactly one simulated
	// operation, identical to the corresponding Thread method.
	Load      Code = iota // relaxed load
	LoadAcq               // LDAR
	LoadAcqPC             // LDAPR
	Store                 // relaxed store (into the store buffer)
	StoreRel              // STLR
	Barrier               // standalone order-preserving instruction
	Work                  // local computation, Cycles long
	FetchAdd              // LSE atomic add (LDADDAL), returns old
	Swap                  // LSE atomic swap (SWPAL), returns old
	CAS                   // LSE compare-and-swap (CASAL), returns old
	SpinEQ                // poll until the value == Val, pausing Cyc between polls
	SpinNE                // poll until the value != Val, pausing Cyc between polls
	SpinGE                // poll until the value >= Val, pausing Cyc between polls
	SpinAny               // poll a staged probe table until one probe holds, pausing Cyc between sweeps
	SpinSweep             // poll a staged probe table once, then pause Cyc if no probe held

	// Free control codes: pure pc/counter updates, no simulated time,
	// no dispatch — they correspond to Go-level control flow in a
	// closure thread's body.
	Jump    // pc = Target
	LoopEnd // counters[Dep]++; pc = Target while count not reached

	numCodes
)

// NumCodes is the size an executor's dispatch table must have.
const NumCodes = int(numCodes)

// IsControl reports whether the code is free control flow (no machine
// dispatch).
func (c Code) IsControl() bool { return c == Jump || c == LoopEnd }

var codeNames = [NumCodes]string{
	"load", "loadacq", "loadacqpc", "store", "storerel", "barrier",
	"work", "fetchadd", "swap", "cas", "spin_eq", "spin_ne", "spin_ge",
	"spin_any", "spin_sweep", "jump", "loopend",
}

func (c Code) String() string {
	if int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("Code(%d)", int(c))
}

// AddrMode selects how a memory op's address is produced.
type AddrMode uint8

const (
	// AddrImm uses Op.Addr directly.
	AddrImm AddrMode = iota
	// AddrTable indexes Program.Tables[Op.Addr] by the Dep-th loop
	// counter modulo the table length (the abstracted models' walk over
	// a ring of cache lines).
	AddrTable
)

// ValMode selects how a store/atomic value is produced.
type ValMode uint8

const (
	// ValImm uses Op.Val directly.
	ValImm ValMode = iota
	// ValCounter uses the Dep-th loop counter (the abstracted models
	// store the iteration index).
	ValCounter
)

// MaxLoopDepth bounds loop nesting so executors can keep counters in a
// fixed-size array with no per-run allocation.
const MaxLoopDepth = 8

// MaxOps bounds a program's flat op count. Loops express repetition
// through trip counts, so any legitimate program stays tiny; a body
// exceeding this was almost certainly built by unrolling, which
// defeats the flat program's cache-density premise.
const MaxOps = 1 << 16

// Op is one micro-op. The flat value layout (no pointers, no
// interfaces) keeps programs cache-dense and lets the executor take
// everything it needs from one 64-byte record.
//
// A spin-wait (SpinEQ/SpinNE/SpinGE) is one op: it polls Addr, with an
// acquiring load if Bar is isa.LDAR and a relaxed one if Bar is None,
// and pauses Cyc cycles after each poll that fails the condition. The
// executor advances past it only at its satisfying poll.
//
// SpinAny and SpinSweep are the multi-probe spin-waits of a closure
// thread (sim.Thread.SpinAny and SpinSweep): their probes (address,
// poll flavor, condition and value each) sit in a table the call
// stages with the executor, and the op carries only the pause in Cyc.
// A Program has no probe tables, so Validate rejects both codes; a
// program waits on one address per spin op.
type Op struct {
	Code  Code
	AMode AddrMode
	VMode ValMode
	Dep   uint8       // loop-counter index for AddrTable/ValCounter/LoopEnd
	Bar   isa.Barrier // Barrier: the instruction; spin: the poll flavor
	Addr  uint64      // absolute address, or table index under AddrTable
	Val   uint64      // immediate value / CAS expected / spin target value
	Val2  uint64      // CAS replacement
	Cyc   float64     // Work duration / spin pause, in cycles (pre-scaled at build time)

	Target int32 // Jump/LoopEnd destination
	Count  int64 // LoopEnd total trip count
}

// Program is a compiled thread body.
type Program struct {
	Ops    []Op
	Tables [][]uint64 // pre-resolved per-iteration address rings
	Depth  int        // loop counter slots used (≤ MaxLoopDepth)
}

// Validate checks structural well-formedness: every target in range,
// table references valid, loop depths within bounds, barrier operands
// legal, durations and pauses finite. Executors may assume a validated
// program needs no per-op checking.
func (p *Program) Validate() error {
	if len(p.Ops) > MaxOps {
		return fmt.Errorf("prog: %d ops exceeds MaxOps %d (use loops, not unrolling)", len(p.Ops), MaxOps)
	}
	n := int32(len(p.Ops))
	for i := range p.Ops {
		op := &p.Ops[i]
		bad := func(format string, args ...any) error {
			return fmt.Errorf("prog: op %d (%v): %s", i, op.Code, fmt.Sprintf(format, args...))
		}
		switch op.Code {
		case Load, LoadAcq, LoadAcqPC, Store, StoreRel, FetchAdd, Swap, CAS:
			if err := p.checkOperand(op); err != nil {
				return bad("%v", err)
			}
		case SpinEQ, SpinNE, SpinGE:
			if err := p.checkOperand(op); err != nil {
				return bad("%v", err)
			}
			if op.Bar != isa.None && op.Bar != isa.LDAR {
				return bad("poll flavor %v is neither relaxed (None) nor acquire (LDAR)", op.Bar)
			}
			if !(op.Cyc >= 0) || math.IsInf(op.Cyc, 1) {
				return bad("pause %g is not finite and >= 0", op.Cyc)
			}
		case SpinAny, SpinSweep:
			return bad("probe-table spin-waits are staged by closure threads only")
		case Barrier:
			switch op.Bar {
			case isa.DMBFull, isa.DMBSt, isa.DMBLd, isa.DSBFull, isa.DSBSt, isa.DSBLd, isa.ISB,
				isa.DataDep, isa.AddrDep, isa.CtrlDep, isa.CtrlISB:
			case isa.None:
				return bad("barrier None must be elided at build time")
			default:
				return bad("%v is not a standalone barrier", op.Bar)
			}
		case Work:
			if !(op.Cyc > 0) || math.IsInf(op.Cyc, 1) {
				return bad("duration %g is not finite and positive", op.Cyc)
			}
		case Jump:
			// Target == n jumps past the last op (a zero-trip loop at the
			// program's end).
			if op.Target < 0 || op.Target > n {
				return bad("target %d out of range [0,%d]", op.Target, n)
			}
		case LoopEnd:
			if op.Target < 0 || op.Target > int32(i) {
				return bad("backward target %d out of range [0,%d]", op.Target, i)
			}
			if op.Count <= 0 {
				return bad("non-positive trip count %d", op.Count)
			}
			if int(op.Dep) >= MaxLoopDepth {
				return bad("loop depth %d exceeds MaxLoopDepth", op.Dep)
			}
		default:
			return bad("unknown code")
		}
	}
	if p.Depth > MaxLoopDepth {
		return fmt.Errorf("prog: depth %d exceeds MaxLoopDepth %d", p.Depth, MaxLoopDepth)
	}
	return nil
}

func (p *Program) checkOperand(op *Op) error {
	switch op.AMode {
	case AddrImm:
	case AddrTable:
		ti := int(op.Addr)
		if ti < 0 || ti >= len(p.Tables) {
			return fmt.Errorf("table %d out of range [0,%d)", ti, len(p.Tables))
		}
		if len(p.Tables[ti]) == 0 {
			return fmt.Errorf("table %d is empty", ti)
		}
		if int(op.Dep) >= MaxLoopDepth {
			return fmt.Errorf("addr counter %d exceeds MaxLoopDepth", op.Dep)
		}
	default:
		return fmt.Errorf("unknown addr mode %d", op.AMode)
	}
	switch op.VMode {
	case ValImm:
	case ValCounter:
		if int(op.Dep) >= MaxLoopDepth {
			return fmt.Errorf("value counter %d exceeds MaxLoopDepth", op.Dep)
		}
	default:
		return fmt.Errorf("unknown value mode %d", op.VMode)
	}
	return nil
}
