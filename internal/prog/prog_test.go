package prog

import (
	"testing"

	"armbar/internal/isa"
)

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
	if p.Len() != 4 {
		t.Fatalf("len = %d, want 4", p.Len())
	}
	if p.Ops[1].Code != Work || p.Ops[1].Cyc != 2 {
		t.Fatalf("Nops lowering: %+v", p.Ops[1])
	}
	if p.MachineOps() != 4 {
		t.Fatalf("MachineOps = %d, want 4", p.MachineOps())
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
	if p.Len() != 1 {
		t.Fatalf("None/zero ops must be elided; len = %d", p.Len())
	}
}

func TestBuilderLoop(t *testing.T) {
	b := NewBuilder(1)
	dep := b.Loop(10)
	b.Store(Abs(64), Counter(dep))
	b.EndLoop()
	p := b.MustBuild()
	if p.Len() != 2 || p.Ops[1].Code != LoopEnd || p.Ops[1].Count != 10 {
		t.Fatalf("loop lowering: %+v", p.Ops)
	}
	if p.Depth != 1 {
		t.Fatalf("depth = %d", p.Depth)
	}
	if p.MachineOps() != 10 {
		t.Fatalf("MachineOps = %d, want 10", p.MachineOps())
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
	if got := p.MachineOps(); got != 3*(1+5) {
		t.Fatalf("MachineOps = %d, want 18", got)
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
	if p.Len() != 1 {
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
	if p.Len() != 0 {
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
	b.Store(Abs(128), Imm(9))
	p := b.MustBuild()
	// [spin exit=3][work][jump 0][store]
	if p.Len() != 4 || p.Ops[0].Code != SpinEQ || p.Ops[0].Target != 3 {
		t.Fatalf("spin lowering: %+v", p.Ops)
	}
	if p.Ops[2].Code != Jump || p.Ops[2].Target != 0 {
		t.Fatalf("spin backedge: %+v", p.Ops[2])
	}

	b2 := NewBuilder(2)
	b2.SpinNE(Abs(64), 0, 0)
	p2 := b2.MustBuild()
	if p2.Len() != 2 || p2.Ops[0].Target != 2 || p2.Ops[1].Code != Jump {
		t.Fatalf("padless spin lowering: %+v", p2.Ops)
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
	}
	for name, p := range cases {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", name)
		}
	}
}
