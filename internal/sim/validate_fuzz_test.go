package sim

import (
	"math"
	"testing"

	"armbar/internal/isa"
	"armbar/internal/prog"
)

// fuzzLines is how many cache lines a fuzzed program's immediate
// addresses and address tables map onto.
const fuzzLines = 4

// fuzzCycles are the durations and pauses a fuzzed op can carry: legal
// ones, and each kind of value Validate must reject.
var fuzzCycles = [...]float64{0, 1, 2.5, 0.25, -1, math.NaN(), math.Inf(1), math.Inf(-1)}

// decodeProgram reads data as a micro-op program over fuzzLines lines
// starting at base. Byte 0 picks Depth (bits 1-7; bit 0 is the fuzz
// target's memory mode), byte 1 the address tables (count in bits 0-1,
// lengths above), and each following 8 bytes one op:
//
//	code, modes (AMode bits 0-1, VMode bits 2-3, Dep bits 4-7),
//	Bar (signed), address, value, Cyc index, Target (signed), Count (signed)
//
// Every field can take values Validate must reject, but an immediate
// address always lands on one of the allocated lines.
func decodeProgram(data []byte, base uint64) *prog.Program {
	const maxOps = 64
	line := func(b byte) uint64 { return base + uint64(b)%(fuzzLines*8)*8 }
	var head [2]byte
	copy(head[:], data)
	p := &prog.Program{Depth: int(head[0]>>1) % (prog.MaxLoopDepth + 2)}
	for i := 0; i < int(head[1]&3); i++ {
		tab := make([]uint64, int(head[1]>>(2+2*i))&3)
		for k := range tab {
			tab[k] = line(byte(7*i + 3*k))
		}
		p.Tables = append(p.Tables, tab)
	}
	for ops := data[min(len(data), 2):]; len(ops) >= 8 && len(p.Ops) < maxOps; ops = ops[8:] {
		op := prog.Op{
			Code:   prog.Code(ops[0] % byte(prog.NumCodes+1)),
			AMode:  prog.AddrMode(ops[1] & 3),
			VMode:  prog.ValMode(ops[1] >> 2 & 3),
			Dep:    ops[1] >> 4,
			Bar:    isa.Barrier(int8(ops[2])),
			Addr:   line(ops[3]),
			Val:    uint64(ops[4]),
			Val2:   uint64(ops[4] >> 4),
			Cyc:    fuzzCycles[int(ops[5])%len(fuzzCycles)],
			Target: int32(int8(ops[6])),
			Count:  int64(int8(ops[7])),
		}
		if op.AMode == prog.AddrTable {
			op.Addr = uint64(ops[3] % 4) // a table index, possibly out of range
		}
		p.Ops = append(p.Ops, op)
	}
	return p
}

// straightLine reports whether p has no control or spin op, so it runs
// to completion in at most len(p.Ops) served ops plus retries.
func straightLine(p *prog.Program) bool {
	for i := range p.Ops {
		switch p.Ops[i].Code {
		case prog.Jump, prog.LoopEnd, prog.SpinEQ, prog.SpinNE, prog.SpinGE:
			return false
		}
	}
	return true
}

// FuzzValidate holds prog.Validate to its promise that executors may
// assume a validated program needs no per-op checking: Validate never
// panics, and every straight-line program it accepts runs under
// SpawnProgram without a panic.
func FuzzValidate(f *testing.F) {
	op := func(code prog.Code, modes, bar, addr, val, cyc, target, count byte) []byte {
		return []byte{byte(code), modes, bar, addr, val, cyc, target, count}
	}
	seed := func(head []byte, ops ...[]byte) []byte {
		for _, o := range ops {
			head = append(head, o...)
		}
		return head
	}
	// Every machine-visible code, straight-line, in both modes.
	all := [][]byte{
		op(prog.Load, 0, 0, 1, 0, 0, 0, 0),
		op(prog.LoadAcq, 0, 0, 9, 0, 0, 0, 0),
		op(prog.LoadAcqPC, 0, 0, 17, 0, 0, 0, 0),
		op(prog.Store, 0, 0, 1, 7, 0, 0, 0),
		op(prog.StoreRel, 0, 0, 9, 3, 0, 0, 0),
		op(prog.Barrier, 0, byte(isa.DMBFull), 0, 0, 0, 0, 0),
		op(prog.Barrier, 0, byte(isa.DSBSt), 0, 0, 0, 0, 0),
		op(prog.Barrier, 0, byte(isa.CtrlISB), 0, 0, 0, 0, 0),
		op(prog.Work, 0, 0, 0, 0, 2, 0, 0),
		op(prog.FetchAdd, 0, 0, 1, 1, 0, 0, 0),
		op(prog.Swap, 0, 0, 1, 9, 0, 0, 0),
		op(prog.CAS, 0, 0, 1, 0x9b, 0, 0, 0),
	}
	f.Add(seed([]byte{0, 0}, all...))
	f.Add(seed([]byte{1, 0}, all...))
	// Address tables and counter values.
	f.Add(seed([]byte{2, 0x15},
		op(prog.Store, byte(prog.AddrTable)|byte(prog.ValCounter)<<2, 0, 0, 0, 0, 0, 0),
		op(prog.Load, byte(prog.AddrTable), 0, 1, 0, 0, 0, 0)))
	f.Add(seed([]byte{0, 0x01}, op(prog.Load, byte(prog.AddrTable), 0, 0, 0, 0, 0, 0))) // empty table
	// The holes Validate closes: a non-standalone barrier, non-finite
	// durations, and bad spin pauses and poll flavors.
	f.Add(seed([]byte{0, 0}, op(prog.Barrier, 0, 99, 0, 0, 0, 0, 0)))
	f.Add(seed([]byte{0, 0}, op(prog.Barrier, 0, byte(isa.STLR), 0, 0, 0, 0, 0)))
	f.Add(seed([]byte{0, 0}, op(prog.Work, 0, 0, 0, 0, 5, 0, 0), op(prog.Load, 0, 0, 1, 0, 0, 0, 0)))
	f.Add(seed([]byte{0, 0}, op(prog.Work, 0, 0, 0, 0, 6, 0, 0), op(prog.Load, 0, 0, 1, 0, 0, 0, 0)))
	f.Add(seed([]byte{0, 0}, op(prog.SpinEQ, 0, byte(isa.DMBLd), 1, 0, 0, 0, 0)))
	f.Add(seed([]byte{0, 0}, op(prog.SpinGE, 0, byte(isa.LDAR), 1, 0, 5, 0, 0)))
	// Control flow: validated but not run.
	f.Add(seed([]byte{2, 0},
		op(prog.Load, 0, 0, 1, 0, 0, 0, 0),
		op(prog.LoopEnd, 0, 0, 0, 0, 0, 0, 4),
		op(prog.Jump, 0, 0, 0, 0, 0, 3, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		mode := WMM
		if len(data) > 0 && data[0]&1 == 1 {
			mode = TSO
		}
		m := newTestMachine(mode, 1)
		p := decodeProgram(data, m.Alloc(fuzzLines))
		if p.Validate() != nil || !straightLine(p) {
			return
		}
		m.SpawnProgram(0, p)
		m.SpawnProgram(4, p)
		m.Run()
	})
}
