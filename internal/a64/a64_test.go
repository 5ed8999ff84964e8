package a64

import (
	"math"
	"strings"
	"testing"

	"armbar/internal/platform"
	"armbar/internal/sim"
	"armbar/internal/topo"
)

func runOn(t *testing.T, src string, setup func(m *sim.Machine) Regs) (Regs, float64) {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 2})
	regs := setup(m)
	var out Regs
	m.Spawn(0, func(th *sim.Thread) {
		r, _, err := p.Exec(th, regs, 0)
		if err != nil {
			t.Error(err)
		}
		out = r
	})
	cycles := m.Run()
	return out, cycles
}

func TestALUAndBranches(t *testing.T) {
	// Sum 1..10 with a loop.
	src := `
		mov x0, #0      // sum
		mov x1, #1      // i
	loop:
		add x0, x0, x1
		add x1, x1, #1
		cmp x1, #10
		ble loop
	`
	regs, _ := runOn(t, src, func(*sim.Machine) Regs { return Regs{} })
	if regs[0] != 55 {
		t.Fatalf("sum = %d, want 55", regs[0])
	}
	if regs[1] != 11 {
		t.Fatalf("i = %d, want 11", regs[1])
	}
}

func TestMemoryAndXZR(t *testing.T) {
	src := `
		mov x2, #77
		str x2, [x0]
		ldr x3, [x0]
		str x3, [x0, #8]
		ldr x4, [x0, #8]
		eor x5, x4, x4
		mov xzr, #9    // discarded
		ldr x6, [x0]
	`
	var addr uint64
	regs, _ := runOn(t, src, func(m *sim.Machine) Regs {
		addr = m.Alloc(1)
		var r Regs
		r[0] = addr
		return r
	})
	if regs[3] != 77 || regs[4] != 77 || regs[6] != 77 {
		t.Fatalf("memory round trip broke: %v", regs[:8])
	}
	if regs[5] != 0 {
		t.Fatalf("eor self = %d", regs[5])
	}
}

func TestCbzCbnz(t *testing.T) {
	src := `
		mov x0, #3
	dec:
		cbz x0, done
		sub x0, x0, #1
		b dec
	done:
		mov x1, #42
	`
	regs, _ := runOn(t, src, func(*sim.Machine) Regs { return Regs{} })
	if regs[0] != 0 || regs[1] != 42 {
		t.Fatalf("cbz loop: %v", regs[:2])
	}
}

// algorithm1 is the paper's abstracted-model loop (Algorithm 1)
// transcribed: walk two line arrays, store to both with a barrier at
// LOC_1, nops between.
const algorithm1 = `
loop:
	add x0, x0, #64
	add x1, x1, #64
	str x3, [x0]
	dmb ishst      ; BARRIER_LOC_1
	nop
	nop
	nop
	nop
	str x4, [x1]
	add x2, x2, #1
	cmp x2, x5
	ble loop
`

func TestAlgorithm1Verbatim(t *testing.T) {
	p, err := Parse(algorithm1)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 4})
	const iters = 200
	// The loop has no wrap: each iteration stores to the next line of
	// both arrays.
	arrA := m.Alloc(iters)
	arrB := m.Alloc(iters)
	for i := 0; i < 2; i++ {
		core := topo.CoreID(i * 4)
		m.Spawn(core, func(th *sim.Thread) {
			var r Regs
			r[0] = arrA - 64 // pre-decremented; the loop bumps first
			r[1] = arrB - 64
			r[2] = 1
			r[3] = 7
			r[4] = 9
			r[5] = iters
			if _, n, err := p.Exec(th, r, 0); err != nil {
				t.Error(err)
			} else if n < iters*10 {
				t.Errorf("executed only %d instructions", n)
			}
		})
	}
	cycles := m.Run()
	if cycles <= 0 {
		t.Fatal("no cycles")
	}
	if m.Stats().MemTxns == 0 {
		t.Error("the dmb ishst should have issued barrier transactions")
	}
}

func TestBarrierMnemonics(t *testing.T) {
	for _, src := range []string{
		"dmb ish", "dmb ishst", "dmb ishld",
		"dsb ish", "dsb ishst", "dsb ishld", "isb",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestAcquireReleaseMnemonics(t *testing.T) {
	src := `
		mov x1, #5
		stlr x1, [x0]
		ldar x2, [x0]
		ldapr x3, [x0]
	`
	regs, _ := runOn(t, src, func(m *sim.Machine) Regs {
		var r Regs
		r[0] = m.Alloc(1)
		return r
	})
	if regs[2] != 5 || regs[3] != 5 {
		t.Fatalf("acquire loads: %v", regs[:4])
	}
}

// TestAtomics pins the LSE operand order: ldaddal and swpal return the
// old value in xT, casal returns it in xS and swaps only on a match.
func TestAtomics(t *testing.T) {
	src := `
		mov x1, #5
		ldaddal x1, x2, [x0]   // *x0 = 5, x2 = 0
		mov x3, #9
		swpal x3, x4, [x0]     // *x0 = 9, x4 = 5
		mov x5, #7
		mov x6, #11
		casal x5, x6, [x0]     // no match: x5 = 9, *x0 stays 9
		mov x7, #9
		casal x7, x6, [x0]     // match: x7 = 9, *x0 = 11
		ldr x8, [x0]
	`
	regs, _ := runOn(t, src, func(m *sim.Machine) Regs {
		var r Regs
		r[0] = m.Alloc(1)
		return r
	})
	want := map[int]uint64{2: 0, 4: 5, 5: 9, 7: 9, 8: 11}
	for r, v := range want {
		if regs[r] != v {
			t.Errorf("x%d = %d, want %d (regs %v)", r, regs[r], v, regs[:9])
		}
	}
}

// TestNopCount pins "nop #N" as N nops issued as one op: it pads as
// long as N single nops.
func TestNopCount(t *testing.T) {
	_, one := runOn(t, "nop #300\nmov x0, #1", func(*sim.Machine) Regs { return Regs{} })
	_, many := runOn(t, strings.Repeat("nop\n", 300)+"mov x0, #1", func(*sim.Machine) Regs { return Regs{} })
	if one < 100 || math.Abs(one-many) > 1e-6 {
		t.Fatalf("nop #300 ran %v cycles, 300 nops %v; want equal and >= 100 (issue width 3)", one, many)
	}
}

// TestWideImmediates runs the immediates past int64's positive range:
// #0xffffffffffffffff is the 64-bit pattern -1 and
// #0x8000000000000000 is MinInt64, so x1 compares greater than it.
func TestWideImmediates(t *testing.T) {
	src := `
		mov x1, #0xffffffffffffffff
		cmp x1, #0x8000000000000000
		bgt greater
		b done
	greater:
		mov x0, #1
	done:
		isb sy
	`
	regs, _ := runOn(t, src, func(*sim.Machine) Regs { return Regs{} })
	if regs[1] != 0xffffffffffffffff || regs[0] != 1 {
		t.Fatalf("x1 = %#x, x0 = %d; want 0xffffffffffffffff and 1 (x1 > MinInt64)", regs[1], regs[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"nop #0":                       "nop takes no operand or one #N, N > 0",
		"nop x1":                       "nop takes no operand or one #N, N > 0",
		"nop #2, #3":                   "nop takes no operand or one #N, N > 0",
		"ldadd x1, x2, [x0]":           "write ldaddal",
		"swpa x1, x2, [x0]":            "write swpal",
		"casl x1, x2, [x0]":            "write casal",
		"casal x1, [x0]":               "casal needs xS, xT, [xN]",
		"ldaddal x1, x2, [x0, #8]":     "atomics take [xN] with no offset",
		"swpal x1, x99, [x0]":          "bad register",
		"frob x0":                      "unknown mnemonic",
		"mov x99, #1":                  "bad register",
		"dmb":                          "needs an option",
		"dmb osh":                      "unknown barrier option",
		"b nowhere":                    "undefined label",
		"ldr x0, x1":                   "bad memory operand",
		"x: nop\nx: nop":               "duplicate label",
		"add x0, x1":                   "needs 3 operands",
		"ldr x0, [x1, foo]":            "bad offset",
		"add x1, x1, #foo":             "bad immediate",
		"sub x1, x1, #0x1g":            "bad immediate",
		"mov x1, #":                    "bad immediate",
		"cmp x1, #0x10000000000000000": "bad immediate",
		"isb junk":                     "isb takes no operand or sy",
		"isb sy, sy":                   "isb takes no operand or sy",
	}
	for src, want := range cases {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", src, err, want)
		}
	}
}

func TestRunawayGuard(t *testing.T) {
	p, err := Parse("spin: b spin")
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(sim.Config{Plat: platform.RaspberryPi4(), Mode: sim.WMM, Seed: 1})
	m.Spawn(0, func(th *sim.Thread) {
		if _, _, err := p.Exec(th, Regs{}, 1000); err == nil {
			t.Error("infinite loop should exhaust the budget")
		}
	})
	m.Run()
}
