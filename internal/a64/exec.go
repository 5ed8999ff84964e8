package a64

import (
	"fmt"

	"armbar/internal/isa"
	"armbar/internal/sim"
)

// Regs is the register file handed to Exec: index 0-30 are x0-x30;
// index 31 reads as zero (xzr) and discards writes.
type Regs [32]uint64

// Exec runs the program on a simulated thread, starting from the given
// register file, until it falls off the end or executes maxInstrs
// instructions (0 = 10 million, a runaway guard). It returns the final
// registers and the number of instructions executed.
func (p *Program) Exec(t *sim.Thread, regs Regs, maxInstrs int) (Regs, int, error) {
	if maxInstrs <= 0 {
		maxInstrs = 10_000_000
	}
	var nzSet bool // last cmp result: negative / zero flags
	var cmpNeg, cmpZero bool
	get := func(r int) uint64 {
		if r == 31 {
			return 0
		}
		return regs[r]
	}
	set := func(r int, v uint64) {
		if r != 31 {
			regs[r] = v
		}
	}

	pc := 0
	executed := 0
	for pc < len(p.instrs) {
		if executed >= maxInstrs {
			return regs, executed, fmt.Errorf("a64: instruction budget exhausted at pc %d (%s)",
				pc, p.src[pc])
		}
		executed++
		ins := p.instrs[pc]
		next := pc + 1
		switch ins.op {
		case opNop:
			t.Nops(1)
		case opMovImm:
			set(ins.rd, uint64(ins.imm))
			t.Nops(1)
		case opMovReg:
			set(ins.rd, get(ins.rn))
			t.Nops(1)
		case opAddImm:
			set(ins.rd, get(ins.rn)+uint64(ins.imm))
			t.Nops(1)
		case opAddReg:
			set(ins.rd, get(ins.rn)+get(ins.rm))
			t.Nops(1)
		case opSubImm:
			set(ins.rd, get(ins.rn)-uint64(ins.imm))
			t.Nops(1)
		case opSubReg:
			set(ins.rd, get(ins.rn)-get(ins.rm))
			t.Nops(1)
		case opEor:
			set(ins.rd, get(ins.rn)^get(ins.rm))
			t.Nops(1)
		case opCmpImm:
			d := int64(get(ins.rd)) - ins.imm
			nzSet, cmpNeg, cmpZero = true, d < 0, d == 0
			t.Nops(1)
		case opCmpReg:
			d := int64(get(ins.rd)) - int64(get(ins.rn))
			nzSet, cmpNeg, cmpZero = true, d < 0, d == 0
			t.Nops(1)
		case opLdr:
			set(ins.rd, t.Load(get(ins.rn)+uint64(ins.imm)))
		case opLdar:
			set(ins.rd, t.LoadAcquire(get(ins.rn)+uint64(ins.imm)))
		case opLdapr:
			set(ins.rd, t.LoadAcquirePC(get(ins.rn)+uint64(ins.imm)))
		case opStr:
			t.Store(get(ins.rn)+uint64(ins.imm), get(ins.rd))
		case opStlr:
			t.StoreRelease(get(ins.rn)+uint64(ins.imm), get(ins.rd))
		case opDmb, opDsb:
			t.Barrier(ins.barrier)
		case opIsb:
			t.Barrier(isa.ISB)
		case opB:
			next = ins.target
		case opBeq, opBne, opBle, opBlt, opBge, opBgt:
			if !nzSet {
				return regs, executed, fmt.Errorf("a64: conditional branch before cmp at pc %d (%s)",
					pc, p.src[pc])
			}
			if taken(ins.op, cmpNeg, cmpZero) {
				next = ins.target
			}
		case opCbz:
			t.Nops(1)
			if get(ins.rd) == 0 {
				next = ins.target
			}
		case opCbnz:
			t.Nops(1)
			if get(ins.rd) != 0 {
				next = ins.target
			}
		}
		pc = next
	}
	return regs, executed, nil
}

// taken reports whether a conditional branch is taken under the last
// cmp's negative and zero flags.
func taken(op opcode, neg, zero bool) bool {
	switch op {
	case opBeq:
		return zero
	case opBne:
		return !zero
	case opBle:
		return neg || zero
	case opBlt:
		return neg
	case opBge:
		return !neg
	}
	return !neg && !zero // opBgt
}
