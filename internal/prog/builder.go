package prog

import (
	"fmt"

	"armbar/internal/isa"
)

// Operand is a memory op's address, resolved at build time.
type Operand struct {
	mode AddrMode
	addr uint64 // absolute address or table index
	dep  uint8
}

// Abs addresses memory at a fixed address.
func Abs(addr uint64) Operand { return Operand{mode: AddrImm, addr: addr} }

// Ring addresses memory through the registered address table,
// indexed by loop counter dep modulo the table length.
func Ring(table int, dep int) Operand {
	return Operand{mode: AddrTable, addr: uint64(table), dep: uint8(dep)}
}

// Value is a store/atomic operand value, resolved at build time.
type Value struct {
	mode ValMode
	v    uint64
	dep  uint8
}

// Imm is a literal value.
func Imm(v uint64) Value { return Value{mode: ValImm, v: v} }

// Counter is the current value of loop counter dep (the iteration
// index).
func Counter(dep int) Value { return Value{mode: ValCounter, dep: uint8(dep)} }

// Builder assembles a Program. Methods append micro-ops in order;
// Loop/EndLoop bracket counted loops (properly nested, up to
// MaxLoopDepth deep). The zero Builder is not ready: use NewBuilder,
// which captures the platform's issue width so Nops lowers to cycles
// at build time.
type Builder struct {
	p          Program
	issueWidth float64
	loopStack  []loopFrame
	err        error
}

type loopFrame struct {
	start   int32
	count   int64
	dep     uint8
	skipIdx int32 // Jump emitted for a zero-trip loop, patched at EndLoop; -1 otherwise
}

// NewBuilder returns a builder for a platform whose pipeline issues
// issueWidth instructions per cycle (platform.CostModel.IssueWidth).
func NewBuilder(issueWidth float64) *Builder {
	if issueWidth <= 0 {
		issueWidth = 1
	}
	return &Builder{issueWidth: issueWidth}
}

// Table registers a pre-resolved address ring and returns its index
// for Ring operands.
func (b *Builder) Table(addrs []uint64) int {
	b.p.Tables = append(b.p.Tables, addrs)
	return len(b.p.Tables) - 1
}

func (b *Builder) emit(op Op) {
	b.p.Ops = append(b.p.Ops, op)
}

func (b *Builder) mem(code Code, o Operand, v Value) {
	b.emit(Op{Code: code, AMode: o.mode, VMode: v.mode, Dep: b.memDep(o, v),
		Addr: o.addr, Val: v.v})
}

// memDep merges the operand and value counter references; they must
// agree when both index a counter (one Dep field per op — the lowered
// workloads always use the innermost counter for both).
func (b *Builder) memDep(o Operand, v Value) uint8 {
	od, vd := o.mode == AddrTable, v.mode == ValCounter
	if od && vd && o.dep != v.dep {
		b.fail("address counter %d and value counter %d differ in one op", o.dep, v.dep)
	}
	if od {
		return o.dep
	}
	return v.dep
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("prog: %s", fmt.Sprintf(format, args...))
	}
}

// Load appends a relaxed load.
func (b *Builder) Load(o Operand) { b.mem(Load, o, Imm(0)) }

// LoadAcquire appends an LDAR.
func (b *Builder) LoadAcquire(o Operand) { b.mem(LoadAcq, o, Imm(0)) }

// LoadAcquirePC appends an LDAPR.
func (b *Builder) LoadAcquirePC(o Operand) { b.mem(LoadAcqPC, o, Imm(0)) }

// Store appends a relaxed store of v.
func (b *Builder) Store(o Operand, v Value) { b.mem(Store, o, v) }

// StoreRelease appends an STLR of v.
func (b *Builder) StoreRelease(o Operand, v Value) { b.mem(StoreRel, o, v) }

// FetchAdd appends an atomic add of v (result discarded).
func (b *Builder) FetchAdd(o Operand, v Value) { b.mem(FetchAdd, o, v) }

// Swap appends an atomic swap to v (result discarded).
func (b *Builder) Swap(o Operand, v Value) { b.mem(Swap, o, v) }

// CompareAndSwap appends an atomic CAS from old to new (result
// discarded).
func (b *Builder) CompareAndSwap(o Operand, old, new uint64) {
	b.emit(Op{Code: CAS, AMode: o.mode, Dep: o.dep, Addr: o.addr, Val: old, Val2: new})
}

// Barrier appends a standalone order-preserving instruction. None is
// elided, matching Thread.Barrier's early return; operand barriers are
// a build error.
func (b *Builder) Barrier(bar isa.Barrier) {
	if bar == isa.None {
		return
	}
	if bar == isa.LDAR || bar == isa.LDAPR || bar == isa.STLR {
		b.fail("operand barrier %v is not standalone", bar)
		return
	}
	b.emit(Op{Code: Barrier, Bar: bar})
}

// Nops appends n trivial ALU instructions, pre-scaled by the issue
// width. n <= 0 emits nothing, matching Thread.Nops.
func (b *Builder) Nops(n int) {
	if n <= 0 {
		return
	}
	b.emit(Op{Code: Work, Cyc: float64(n) / b.issueWidth})
}

// Work appends cycles of purely local computation. cycles <= 0 emits
// nothing, matching Thread.Work.
func (b *Builder) Work(cycles float64) {
	if cycles <= 0 {
		return
	}
	b.emit(Op{Code: Work, Cyc: cycles})
}

// SpinEQ appends a spin-wait that polls o with relaxed loads until the
// value equals v, running padNops of padding between polls. It is one
// op, the lowering of
//
//	for t.Load(a) != v { t.Nops(padNops) }
func (b *Builder) SpinEQ(o Operand, v uint64, padNops int) { b.spin(SpinEQ, o, v, padNops) }

// SpinNE appends a spin-wait until the value differs from v.
func (b *Builder) SpinNE(o Operand, v uint64, padNops int) { b.spin(SpinNE, o, v, padNops) }

// SpinGE appends a spin-wait until the value reaches v. This
// is the epoch-safe wait the barrier algorithms use: a monotone
// counter or epoch flag may be advanced past v by other threads
// before a slow spinner polls again, so waiting for >= v never hangs
// where an exact-match spin would.
func (b *Builder) SpinGE(o Operand, v uint64, padNops int) { b.spin(SpinGE, o, v, padNops) }

// spin emits the wait; the pad lowers to cycles as Nops does.
func (b *Builder) spin(code Code, o Operand, v uint64, padNops int) {
	op := Op{Code: code, AMode: o.mode, Dep: o.dep, Addr: o.addr, Val: v}
	if padNops > 0 {
		op.Cyc = float64(padNops) / b.issueWidth
	}
	b.emit(op)
}

// Loop opens a counted loop of n iterations — the lowering of
// `for i := 0; i < n; i++`, including n <= 0 running the body zero
// times. The loop body observes the iteration index through
// Counter(dep)/Ring(_, dep), where dep is the returned counter slot.
// Loops nest; EndLoop closes the innermost.
func (b *Builder) Loop(n int) (dep int) {
	d := len(b.loopStack)
	if d >= MaxLoopDepth {
		b.fail("loop nesting exceeds MaxLoopDepth %d", MaxLoopDepth)
	}
	f := loopFrame{count: int64(n), dep: uint8(d), skipIdx: -1}
	if n <= 0 {
		// Zero-trip loop: jump over the body (target patched at EndLoop).
		f.skipIdx = int32(len(b.p.Ops))
		b.emit(Op{Code: Jump})
	}
	f.start = int32(len(b.p.Ops))
	b.loopStack = append(b.loopStack, f)
	return d
}

// EndLoop closes the innermost open loop. A body that emitted no
// machine-visible op gets no backedge: iterating it takes no simulated
// time, and the executor would see a cycle of free control ops.
func (b *Builder) EndLoop() {
	if len(b.loopStack) == 0 {
		b.fail("EndLoop without Loop")
		return
	}
	f := b.loopStack[len(b.loopStack)-1]
	b.loopStack = b.loopStack[:len(b.loopStack)-1]
	switch {
	case f.skipIdx >= 0:
		b.p.Ops[f.skipIdx].Target = int32(len(b.p.Ops))
	case f.count > 1 && hasMachineOp(b.p.Ops[f.start:]):
		b.emit(Op{Code: LoopEnd, Dep: f.dep, Target: f.start, Count: f.count})
	}
	if int(f.dep)+1 > b.p.Depth {
		b.p.Depth = int(f.dep) + 1
	}
}

func hasMachineOp(ops []Op) bool {
	for _, op := range ops {
		if !op.Code.IsControl() {
			return true
		}
	}
	return false
}

// Build validates and returns the program. The builder must not be
// reused afterwards.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.loopStack) != 0 {
		return nil, fmt.Errorf("prog: %d unclosed loops", len(b.loopStack))
	}
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	return &b.p, nil
}

// MustBuild is Build for statically correct lowerings (the in-tree
// compilers): it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
