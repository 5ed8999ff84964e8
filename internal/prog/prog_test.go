package prog

import (
	"math"
	"reflect"
	"testing"

	"armbar/internal/isa"
)

// codes lists a program's opcodes in order.
func codes(p *Program) []Code {
	out := make([]Code, len(p.Ops))
	for i := range p.Ops {
		out[i] = p.Ops[i].Code
	}
	return out
}

func TestBuilderStraightLine(t *testing.T) {
	b := NewBuilder(2)
	b.Load(Abs(64))
	b.Nops(4) // 4 instructions at issue width 2 -> 2 cycles
	b.Store(Abs(128), Imm(7))
	b.Barrier(isa.DMBFull)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := codes(p), []Code{Load, Work, Store, Barrier}; !reflect.DeepEqual(got, want) {
		t.Fatalf("codes = %v, want %v", got, want)
	}
	if p.Ops[1].Cyc != 2 {
		t.Fatalf("Nops lowering: %+v", p.Ops[1])
	}
	if p.Ops[0].Addr != 64 || p.Ops[2].Addr != 128 || p.Ops[2].Val != 7 || p.Ops[3].Bar != isa.DMBFull {
		t.Fatalf("operands: %+v", p.Ops)
	}
}

func TestBuilderElidesNoneAndZero(t *testing.T) {
	b := NewBuilder(1)
	b.Barrier(isa.None)
	b.Nops(0)
	b.Nops(-3)
	b.Work(0)
	b.Load(Abs(64))
	p := b.MustBuild()
	if len(p.Ops) != 1 {
		t.Fatalf("None/zero ops must be elided; len = %d", len(p.Ops))
	}
}

func TestBuilderLoop(t *testing.T) {
	b := NewBuilder(1)
	dep := b.Loop(10)
	b.Store(Abs(64), Counter(dep))
	b.EndLoop()
	p := b.MustBuild()
	if got, want := codes(p), []Code{Store, LoopEnd}; !reflect.DeepEqual(got, want) {
		t.Fatalf("loop lowering: %+v", p.Ops)
	}
	if le := p.Ops[1]; le.Count != 10 || le.Target != 0 || int(le.Dep) != dep {
		t.Fatalf("backedge: %+v", le)
	}
	if p.Ops[0].VMode != ValCounter || int(p.Ops[0].Dep) != dep {
		t.Fatalf("counter operand: %+v", p.Ops[0])
	}
	if p.Depth != 1 {
		t.Fatalf("depth = %d", p.Depth)
	}
}

func TestBuilderNestedLoops(t *testing.T) {
	b := NewBuilder(1)
	outer := b.Loop(3)
	b.Load(Abs(64))
	inner := b.Loop(5)
	b.Store(Abs(128), Counter(inner))
	b.EndLoop()
	b.EndLoop()
	if outer == inner {
		t.Fatal("nested loops must get distinct counters")
	}
	p := b.MustBuild()
	if p.Depth != 2 {
		t.Fatalf("depth = %d, want 2", p.Depth)
	}
	// [load][store][loopend inner -> 1][loopend outer -> 0]
	if got, want := codes(p), []Code{Load, Store, LoopEnd, LoopEnd}; !reflect.DeepEqual(got, want) {
		t.Fatalf("nested lowering: %+v", p.Ops)
	}
	if in := p.Ops[2]; in.Count != 5 || in.Target != 1 || int(in.Dep) != inner {
		t.Fatalf("inner backedge: %+v", in)
	}
	if out := p.Ops[3]; out.Count != 3 || out.Target != 0 || int(out.Dep) != outer {
		t.Fatalf("outer backedge: %+v", out)
	}
}

func TestBuilderZeroTripLoop(t *testing.T) {
	b := NewBuilder(1)
	b.Load(Abs(64))
	b.Loop(0)
	b.Store(Abs(128), Imm(1))
	b.EndLoop()
	p := b.MustBuild()
	// Jump over the body: [load][jump->3][store]
	if p.Ops[1].Code != Jump || p.Ops[1].Target != 3 {
		t.Fatalf("zero-trip lowering: %+v", p.Ops)
	}
}

func TestBuilderSingleTripLoopEmitsNoLoopEnd(t *testing.T) {
	b := NewBuilder(1)
	b.Loop(1)
	b.Load(Abs(64))
	b.EndLoop()
	p := b.MustBuild()
	if len(p.Ops) != 1 {
		t.Fatalf("single-trip loop must be free: %+v", p.Ops)
	}
}

func TestBuilderEmptyLoopEmitsNoLoopEnd(t *testing.T) {
	// A body with no machine op (nothing, or only an elided None
	// barrier): a backedge would be a cycle of free control ops.
	b := NewBuilder(1)
	b.Loop(5)
	b.EndLoop()
	b.Loop(5)
	b.Barrier(isa.None)
	b.EndLoop()
	p := b.MustBuild()
	if len(p.Ops) != 0 {
		t.Fatalf("empty loops must emit nothing: %+v", p.Ops)
	}
}

func TestBuilderRing(t *testing.T) {
	b := NewBuilder(1)
	tab := b.Table([]uint64{64, 128, 192})
	dep := b.Loop(7)
	b.Load(Ring(tab, dep))
	b.EndLoop()
	p := b.MustBuild()
	if p.Ops[0].AMode != AddrTable || p.Ops[0].Addr != uint64(tab) {
		t.Fatalf("ring operand: %+v", p.Ops[0])
	}
}

func TestBuilderSpin(t *testing.T) {
	b := NewBuilder(2)
	b.SpinEQ(Abs(64), 1, 4)
	b.SpinNE(Abs(64), 0, 0)
	b.SpinGE(Abs(128), 3, 1)
	b.Store(Abs(128), Imm(9))
	p := b.MustBuild()
	// One op per wait, relaxed polls, the pad pre-scaled like Nops and
	// no exit target: [spin_eq][spin_ne][spin_ge][store]
	want := []Op{
		{Code: SpinEQ, Addr: 64, Val: 1, Cyc: 2},
		{Code: SpinNE, Addr: 64, Val: 0},
		{Code: SpinGE, Addr: 128, Val: 3, Cyc: 0.5},
		{Code: Store, Addr: 128, Val: 9},
	}
	if !reflect.DeepEqual(p.Ops, want) {
		t.Fatalf("spin lowering:\n got %+v\nwant %+v", p.Ops, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := map[string]func(b *Builder){
		"operand barrier": func(b *Builder) { b.Barrier(isa.LDAR) },
		"unclosed loop":   func(b *Builder) { b.Loop(2); b.Load(Abs(64)) },
		"stray endloop":   func(b *Builder) { b.EndLoop() },
		"counter clash": func(b *Builder) {
			t0 := b.Table([]uint64{64})
			d0 := b.Loop(2)
			d1 := b.Loop(2)
			_ = d1
			b.Store(Operand{mode: AddrTable, addr: uint64(t0), dep: uint8(d0)}, Counter(d1))
			b.EndLoop()
			b.EndLoop()
		},
	}
	for name, f := range cases {
		b := NewBuilder(1)
		f(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := map[string]Program{
		"jump out of range": {Ops: []Op{{Code: Jump, Target: 5}}},
		"none barrier":      {Ops: []Op{{Code: Barrier, Bar: isa.None}}},
		"bad table":         {Ops: []Op{{Code: Load, AMode: AddrTable, Addr: 3}}},
		"empty table":       {Ops: []Op{{Code: Load, AMode: AddrTable, Addr: 0}}, Tables: [][]uint64{{}}},
		"zero count loop":   {Ops: []Op{{Code: Load}, {Code: LoopEnd, Target: 0, Count: 0}}},
		"forward loopend":   {Ops: []Op{{Code: LoopEnd, Target: 1, Count: 2}, {Code: Load}}},
		"zero work":         {Ops: []Op{{Code: Work, Cyc: 0}}},
		"over MaxOps":       {Ops: make([]Op, MaxOps+1)},
		"operand barrier":   {Ops: []Op{{Code: Barrier, Bar: isa.LDAR}}},
		"unknown barrier":   {Ops: []Op{{Code: Barrier, Bar: isa.Barrier(99)}}},
		"negative barrier":  {Ops: []Op{{Code: Barrier, Bar: isa.Barrier(-1)}}},
		"NaN work":          {Ops: []Op{{Code: Work, Cyc: math.NaN()}}},
		"infinite work":     {Ops: []Op{{Code: Work, Cyc: math.Inf(1)}}},
		"NaN spin pause":    {Ops: []Op{{Code: SpinEQ, Addr: 64, Cyc: math.NaN()}}},
		"infinite pause":    {Ops: []Op{{Code: SpinNE, Addr: 64, Cyc: math.Inf(1)}}},
		"negative pause":    {Ops: []Op{{Code: SpinGE, Addr: 64, Val: 1, Cyc: -1}}},
		"release spin poll": {Ops: []Op{{Code: SpinEQ, Addr: 64, Bar: isa.STLR}}},
		"fenced spin poll":  {Ops: []Op{{Code: SpinNE, Addr: 64, Bar: isa.DMBFull}}},
		"RCpc spin poll":    {Ops: []Op{{Code: SpinGE, Addr: 64, Bar: isa.LDAPR}}},
		"probe-table wait":  {Ops: []Op{{Code: SpinAny, Cyc: 1}}},
		"probe-table sweep": {Ops: []Op{{Code: SpinSweep}}},
	}
	for name, p := range cases {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
}
