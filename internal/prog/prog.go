// Package prog defines precompiled micro-op programs, the form every
// fixed op sequence runs in on the simulator (sim.SpawnProgram). A
// program is a flat []Op lowered from such a sequence (an
// abstracted-model loop, a barrier-zoo round, a scenario thread spec):
// every operand is pre-resolved at build time —
// addresses to absolute values or per-iteration address tables, nop
// counts to cycle latencies, barrier names to isa values — so the
// executor in package sim dispatches through a per-opcode function
// table with no per-op decoding, switch, or request staging.
//
// Machine-visible codes (loads, stores, barriers, work, atomics, spin
// loads) map 1:1 to the sim.Thread operations a closure thread calls:
// a program presents the exact operation sequence a closure making
// those calls would, so control flow is expressed only through free
// codes (Jump, LoopEnd) that the executor folds into pc updates
// between machine ops. That 1:1 mapping is what lets sim's
// differential tests hold a program and its closure transcription
// byte-identical.
package prog

import (
	"fmt"

	"armbar/internal/isa"
)

// Code is a micro-op opcode.
type Code uint8

const (
	// Machine-visible ops: each dispatches exactly one simulated
	// operation, identical to the corresponding Thread method.
	Load      Code = iota // relaxed load
	LoadAcq                // LDAR
	LoadAcqPC              // LDAPR
	Store                  // relaxed store (into the store buffer)
	StoreRel               // STLR
	Barrier                // standalone order-preserving instruction
	Work                   // local computation, Cycles long
	FetchAdd               // LSE atomic add, returns old (discarded)
	Swap                   // LSE atomic swap
	CAS                    // LSE compare-and-swap
	SpinEQ                 // relaxed load; fall through until value == Val, then jump to Target
	SpinNE                 // relaxed load; fall through until value != Val, then jump to Target
	SpinGE                 // relaxed load; fall through until value >= Val, then jump to Target

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
	"jump", "loopend",
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
// everything it needs from one 64-byte-ish record.
type Op struct {
	Code  Code
	AMode AddrMode
	VMode ValMode
	Dep   uint8       // loop-counter index for AddrTable/ValCounter/LoopEnd
	Bar   isa.Barrier // Barrier code only
	Addr  uint64      // absolute address, or table index under AddrTable
	Val   uint64      // immediate value / CAS expected / spin target value
	Val2  uint64      // CAS replacement
	Cyc   float64     // Work duration in cycles (pre-scaled at build time)

	Target int32 // Jump/LoopEnd destination; SpinEQ/SpinNE exit pc
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
// legal. Executors may assume a validated program needs no per-op
// checking.
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
			if op.Target < 0 || op.Target > n {
				return bad("exit target %d out of range [0,%d]", op.Target, n)
			}
		case Barrier:
			switch op.Bar {
			case isa.None:
				return bad("barrier None must be elided at build time")
			case isa.LDAR, isa.LDAPR, isa.STLR:
				return bad("operand barrier %v is not standalone", op.Bar)
			}
		case Work:
			if op.Cyc <= 0 {
				return bad("non-positive duration %g", op.Cyc)
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

// Len returns the number of micro-ops.
func (p *Program) Len() int { return len(p.Ops) }

// MachineOps returns how many machine-visible ops one full execution
// dispatches (loop trip counts multiplied out; spins counted once,
// since their dynamic count is data-dependent). Useful for sanity
// checks and sizing.
func (p *Program) MachineOps() int64 {
	var total int64
	var mult int64 = 1
	// Walk with a stack of loop multipliers: ops between a loop's start
	// (its LoopEnd target) and the LoopEnd run Count times per outer
	// trip. Builder-produced loops nest properly.
	type span struct {
		start int32
		mult  int64
	}
	var stack []span
	// Pre-scan LoopEnds to know loop starts.
	starts := map[int32]int64{}
	for i := range p.Ops {
		if p.Ops[i].Code == LoopEnd {
			starts[p.Ops[i].Target] = p.Ops[i].Count
		}
	}
	for i := range p.Ops {
		if c, ok := starts[int32(i)]; ok {
			stack = append(stack, span{start: int32(i), mult: mult})
			mult *= c
		}
		op := &p.Ops[i]
		if !op.Code.IsControl() {
			total += mult
		}
		if op.Code == LoopEnd && len(stack) > 0 {
			mult = stack[len(stack)-1].mult
			stack = stack[:len(stack)-1]
		}
	}
	return total
}
