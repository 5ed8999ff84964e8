// Package a64 implements a small AArch64 assembly subset — enough to
// run the paper's Algorithm-1 listings and litmus snippets verbatim on
// the simulator. Programs are parsed from text into instruction lists
// and executed against a sim.Thread, with registers x0-x30, NZ flags,
// labels and conditional branches.
//
// Supported instructions:
//
//	mov xD, #imm         | mov xD, xN
//	add/sub xD, xN, #imm | add/sub xD, xN, xM
//	eor xD, xN, xM
//	cmp xN, #imm         | cmp xN, xM
//	ldr xD, [xN]         | ldr xD, [xN, #imm]
//	str xS, [xN]         | str xS, [xN, #imm]
//	ldar xD, [xN]        | ldapr xD, [xN]
//	stlr xS, [xN]
//	ldaddal xS, xT, [xN] — xT = old *xN; *xN += xS
//	swpal xS, xT, [xN]   — xT = old *xN; *xN = xS
//	casal xS, xT, [xN]   — xS = old *xN; *xN = xT if old == xS
//	dmb ish|ishst|ishld  — the paper's DMB full / st / ld
//	dsb ish|ishst|ishld
//	isb                  | isb sy
//	nop                  | nop #N
//	b label | beq | bne | ble | blt | bge | bgt
//	cbz xN, label | cbnz xN, label
//
// The atomics are the LSE acquire-release forms, the ones the
// simulator implements: every earlier store drains before one runs,
// and no later load reads older than it. Their plain, acquire-only and
// release-only spellings (ldadd, swpa, casl, ...) are rejected by
// name. An immediate #imm is an int64 or a 64-bit pattern
// (#0xffffffffffffffff is -1). "nop #N" is a pseudo-form, not an A64
// instruction: N nops issued as one op, the padding of the paper's
// loops.
//
// The memory operands address simulated memory directly: load an
// allocated address into a register with mov (via Exec's initial
// register file) and dereference it.
package a64

import (
	"fmt"
	"strconv"
	"strings"

	"armbar/internal/isa"
)

// opcode enumerates the executable operations.
type opcode int

const (
	opMovImm opcode = iota
	opMovReg
	opAddImm
	opAddReg
	opSubImm
	opSubReg
	opEor
	opCmpImm
	opCmpReg
	opLdr
	opStr
	opLdar
	opLdapr
	opStlr
	opLdaddal
	opSwpal
	opCasal
	opDmb
	opDsb
	opIsb
	opNop
	opB
	opBeq
	opBne
	opBle
	opBlt
	opBge
	opBgt
	opCbz
	opCbnz
)

// instr is one decoded instruction.
type instr struct {
	op      opcode
	rd      int         // destination / compared / source register
	rn      int         // base / first operand register
	rm      int         // second operand register
	imm     int64       // immediate, memory offset or nop count
	barrier isa.Barrier // dmb/dsb option
	target  int         // branch target instruction index
	label   string      // unresolved target (parse time)
	line    int         // source line for diagnostics
}

// Program is a parsed instruction sequence.
type Program struct {
	instrs []instr
	labels map[string]int
	src    []string
}

// NumInstrs reports the instruction count.
func (p *Program) NumInstrs() int { return len(p.instrs) }

// Parse assembles the source text.
func Parse(src string) (*Program, error) { return ParseWithSymbols(src, nil) }

// ParseWithSymbols assembles source that may reference named addresses
// with the "mov xN, =symbol" pseudo-instruction.
func ParseWithSymbols(src string, symbols map[string]uint64) (*Program, error) {
	p := &Program{labels: map[string]int{}}
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels: "name:" possibly followed by an instruction.
		for {
			if i := strings.Index(line, ":"); i >= 0 && !strings.ContainsAny(line[:i], " \t,[") {
				label := strings.TrimSpace(line[:i])
				if _, dup := p.labels[label]; dup {
					return nil, fmt.Errorf("a64: line %d: duplicate label %q", ln+1, label)
				}
				p.labels[label] = len(p.instrs)
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		ins, err := parseInstr(line, ln+1, symbols)
		if err != nil {
			return nil, err
		}
		p.instrs = append(p.instrs, ins)
		p.src = append(p.src, line)
	}
	// Resolve branch targets.
	for i := range p.instrs {
		if p.instrs[i].label == "" {
			continue
		}
		t, ok := p.labels[p.instrs[i].label]
		if !ok {
			return nil, fmt.Errorf("a64: line %d: undefined label %q",
				p.instrs[i].line, p.instrs[i].label)
		}
		p.instrs[i].target = t
	}
	return p, nil
}

// parseInstr decodes one instruction line.
func parseInstr(line string, ln int, symbols map[string]uint64) (instr, error) {
	fields := strings.Fields(strings.ReplaceAll(line, ",", " , "))
	mnemonic := strings.ToLower(fields[0])
	args := splitArgs(strings.TrimSpace(line[len(fields[0]):]))
	ins := instr{line: ln}
	fail := func(msg string) (instr, error) {
		return ins, fmt.Errorf("a64: line %d: %s in %q", ln, msg, line)
	}

	switch mnemonic {
	case "nop":
		ins.op, ins.imm = opNop, 1
		if len(args) > 0 {
			n, ok := immOf(args[0])
			if len(args) != 1 || !ok || n <= 0 {
				return fail("nop takes no operand or one #N, N > 0")
			}
			ins.imm = n
		}
	case "isb":
		if len(args) > 1 || len(args) == 1 && strings.ToLower(args[0]) != "sy" {
			return fail("isb takes no operand or sy")
		}
		ins.op = opIsb
	case "dmb", "dsb":
		if len(args) != 1 {
			return fail("dmb/dsb needs an option")
		}
		var b isa.Barrier
		switch strings.ToLower(args[0]) {
		case "ish", "sy":
			b = isa.DMBFull
		case "ishst", "st":
			b = isa.DMBSt
		case "ishld", "ld":
			b = isa.DMBLd
		default:
			return fail("unknown barrier option")
		}
		if mnemonic == "dsb" {
			switch b {
			case isa.DMBFull:
				b = isa.DSBFull
			case isa.DMBSt:
				b = isa.DSBSt
			case isa.DMBLd:
				b = isa.DSBLd
			}
			ins.op = opDsb
		} else {
			ins.op = opDmb
		}
		ins.barrier = b
	case "mov":
		if len(args) != 2 {
			return fail("mov needs 2 operands")
		}
		ins.rd = mustReg(args[0])
		if sym, ok := strings.CutPrefix(strings.TrimSpace(args[1]), "="); ok {
			addr, known := symbols[strings.TrimSpace(sym)]
			if !known {
				return fail("unknown symbol =" + sym)
			}
			ins.op, ins.imm = opMovImm, int64(addr)
		} else if imm, isImm, err := immOperand(args[1]); err != nil {
			return fail(err.Error())
		} else if isImm {
			ins.op, ins.imm = opMovImm, imm
		} else {
			ins.op, ins.rn = opMovReg, mustReg(args[1])
		}
	case "add", "sub":
		if len(args) != 3 {
			return fail("add/sub needs 3 operands")
		}
		ins.rd, ins.rn = mustReg(args[0]), mustReg(args[1])
		imm, isImm, err := immOperand(args[2])
		if err != nil {
			return fail(err.Error())
		}
		if isImm {
			ins.imm = imm
			if mnemonic == "add" {
				ins.op = opAddImm
			} else {
				ins.op = opSubImm
			}
		} else {
			ins.rm = mustReg(args[2])
			if mnemonic == "add" {
				ins.op = opAddReg
			} else {
				ins.op = opSubReg
			}
		}
	case "eor":
		if len(args) != 3 {
			return fail("eor needs 3 operands")
		}
		ins.op = opEor
		ins.rd, ins.rn, ins.rm = mustReg(args[0]), mustReg(args[1]), mustReg(args[2])
	case "cmp":
		if len(args) != 2 {
			return fail("cmp needs 2 operands")
		}
		ins.rd = mustReg(args[0])
		if imm, isImm, err := immOperand(args[1]); err != nil {
			return fail(err.Error())
		} else if isImm {
			ins.op, ins.imm = opCmpImm, imm
		} else {
			ins.op, ins.rn = opCmpReg, mustReg(args[1])
		}
	case "ldr", "ldar", "ldapr":
		if len(args) != 2 {
			return fail("load needs 2 operands")
		}
		ins.rd = mustReg(args[0])
		rn, off, err := memOperand(args[1])
		if err != nil {
			return fail(err.Error())
		}
		ins.rn, ins.imm = rn, off
		switch mnemonic {
		case "ldr":
			ins.op = opLdr
		case "ldar":
			ins.op = opLdar
		default:
			ins.op = opLdapr
		}
	case "str", "stlr":
		if len(args) != 2 {
			return fail("store needs 2 operands")
		}
		ins.rd = mustReg(args[0])
		rn, off, err := memOperand(args[1])
		if err != nil {
			return fail(err.Error())
		}
		ins.rn, ins.imm = rn, off
		if mnemonic == "str" {
			ins.op = opStr
		} else {
			ins.op = opStlr
		}
	case "ldaddal", "swpal", "casal":
		if len(args) != 3 {
			return fail(mnemonic + " needs xS, xT, [xN]")
		}
		ins.rd, ins.rm = mustReg(args[0]), mustReg(args[1])
		rn, off, err := memOperand(args[2])
		if err != nil {
			return fail(err.Error())
		}
		if off != 0 {
			return fail("atomics take [xN] with no offset")
		}
		ins.rn = rn
		switch mnemonic {
		case "ldaddal":
			ins.op = opLdaddal
		case "swpal":
			ins.op = opSwpal
		default:
			ins.op = opCasal
		}
	case "ldadd", "ldadda", "ldaddl", "swp", "swpa", "swpl", "cas", "casa", "casl":
		base := strings.TrimSuffix(strings.TrimSuffix(mnemonic, "l"), "a")
		return fail("the simulator's atomics are acquire-release; write " + base + "al")
	case "b", "beq", "bne", "ble", "blt", "bge", "bgt":
		if len(args) != 1 {
			return fail("branch needs a label")
		}
		ins.label = args[0]
		switch mnemonic {
		case "b":
			ins.op = opB
		case "beq":
			ins.op = opBeq
		case "bne":
			ins.op = opBne
		case "ble":
			ins.op = opBle
		case "blt":
			ins.op = opBlt
		case "bge":
			ins.op = opBge
		default:
			ins.op = opBgt
		}
	case "cbz", "cbnz":
		if len(args) != 2 {
			return fail("cbz/cbnz needs register, label")
		}
		ins.rd = mustReg(args[0])
		ins.label = args[1]
		if mnemonic == "cbz" {
			ins.op = opCbz
		} else {
			ins.op = opCbnz
		}
	default:
		return fail("unknown mnemonic")
	}
	if bad := badReg(ins); bad != "" {
		return fail(bad)
	}
	return ins, nil
}

// splitArgs splits "x0, [x1, #8]" into {"x0", "[x1, #8]"}.
func splitArgs(s string) []string {
	var out []string
	depth := 0
	cur := strings.Builder{}
	for _, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(cur.String()))
				cur.Reset()
				continue
			}
		}
		cur.WriteRune(r)
	}
	if t := strings.TrimSpace(cur.String()); t != "" {
		out = append(out, t)
	}
	return out
}

// mustReg parses x0-x30 / xzr; -1 marks a parse failure (validated by
// badReg afterwards).
func mustReg(s string) int {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "xzr" {
		return 31
	}
	if !strings.HasPrefix(s, "x") {
		return -1
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 30 {
		return -1
	}
	return n
}

// badReg reports an invalid register field for the decoded form.
func badReg(ins instr) string {
	check := func(r int) bool { return r >= 0 && r <= 31 }
	if !check(ins.rd) || !check(ins.rn) || !check(ins.rm) {
		return "bad register"
	}
	return ""
}

// immOf parses "#123" or a plain integer: an int64, or else a uint64
// bit pattern, so #0xffffffffffffffff is -1.
func immOf(s string) (int64, bool) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "#")
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, true
	}
	v, err := strconv.ParseUint(s, 0, 64)
	return int64(v), err == nil
}

// immOperand parses the last operand of mov, add, sub and cmp, which
// is an immediate or a register. isImm is false for a register; an
// operand that starts with # and is no integer is an error, not a
// register.
func immOperand(s string) (imm int64, isImm bool, err error) {
	if v, ok := immOf(s); ok {
		return v, true, nil
	}
	if strings.HasPrefix(strings.TrimSpace(s), "#") {
		return 0, false, fmt.Errorf("bad immediate %q", strings.TrimSpace(s))
	}
	return 0, false, nil
}

// memOperand parses "[xN]" or "[xN, #off]".
func memOperand(s string) (reg int, off int64, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	parts := strings.SplitN(inner, ",", 2)
	reg = mustReg(parts[0])
	if reg < 0 {
		return 0, 0, fmt.Errorf("bad base register in %q", s)
	}
	if len(parts) == 2 {
		v, ok := immOf(parts[1])
		if !ok {
			return 0, 0, fmt.Errorf("bad offset in %q", s)
		}
		off = v
	}
	return reg, off, nil
}
