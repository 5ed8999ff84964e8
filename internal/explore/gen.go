package explore

import (
	"fmt"
	"math/rand"
	"strings"

	"armbar/internal/absmodel"
	"armbar/internal/isa"
	"armbar/internal/topo"
)

// This file is the litmus-shape fuzzer's generator: seeded random
// shapes built from the classic hazard skeletons (MP, SB, S, R, 2+2W,
// LB, WRC, CoRR, CoWW, and two RMW variants) with everything around
// the hazard randomized — the values written, the barrier *kind* in
// every slot (drawn from the full DMB/DSB/dependency grammar, not the
// shape's canonical choice), noise operations woven through the
// threads, extra noise lines, and optional noise threads. Each
// generated shape carries its ordering obligations as explicit
// absmodel clauses, so three independent oracles can be run against
// it: the explorer's reachability verdict, the closed-form clause
// prediction, and sim sampling containment (see fuzz.go).
//
// Noise is verdict-neutral by construction, which is what lets the
// clause model stay exact: noise loads are unobserved (the explorer
// gives them no stale branch and they only strengthen later load-side
// barriers), and noise stores target dedicated noise lines that no
// predicate and no observed load ever reads — they occupy store
// buffers and consume drain time but cannot block an eligible hazard
// commit (same drain level, different line) or leak into an outcome.

// GenShape is one generated litmus shape plus its closed-form
// obligations.
type GenShape struct {
	Index   int
	Family  string
	S       *Shape
	Clauses []absmodel.FenceClause
}

// genBars is the slot-barrier grammar: every ordering approach the
// explorer's operational semantics model as a standalone instruction.
// (LDAR/STLR/LDAPR are operand barriers, not slot fillers.)
var genBars = []isa.Barrier{
	isa.DMBFull, isa.DMBSt, isa.DMBLd,
	isa.DSBFull, isa.DSBSt, isa.DSBLd,
	isa.ISB, isa.DataDep, isa.AddrDep, isa.CtrlDep, isa.CtrlISB,
}

// genCores is the core pool for generated threads: two per NUMA node
// so cross-node communication is exercised.
var genCores = []topo.CoreID{0, 4, 32, 36}

// genb accumulates one generated shape.
type genb struct {
	r       *rand.Rand
	lines   int // hazard lines; noise lines follow
	noise   int
	nleft   int // remaining noise-op budget for the whole shape
	threads [][]SOp
	slots   []Slot
	regs    []string
	clauses []absmodel.FenceClause
}

// newGenb caps the noise-op budget per shape: noise multiplies the
// state space (every buffered noise store is one more interleaving
// axis), and an unbounded geometric tail makes a handful of corpus
// entries dominate the whole batch's wall-clock.
func newGenb(r *rand.Rand, hazardLines int) *genb {
	return &genb{r: r, lines: hazardLines, noise: r.Intn(3), nleft: 2 + r.Intn(3)}
}

// vals returns k distinct nonzero values.
func (g *genb) vals(k int) []uint64 {
	out := make([]uint64, 0, k)
	for len(out) < k {
		v := uint64(1 + g.r.Intn(9))
		dup := false
		for _, o := range out {
			dup = dup || o == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// reg allocates an observed register.
func (g *genb) reg(name string) int {
	g.regs = append(g.regs, name)
	return len(g.regs) - 1
}

// thread opens a new thread and returns its builder.
func (g *genb) thread() *tb {
	g.threads = append(g.threads, nil)
	return &tb{g: g, u: len(g.threads) - 1}
}

type tb struct {
	g *genb
	u int
}

// noiseOps emits a geometric burst of verdict-neutral ops: unobserved
// loads of any line, stores to noise lines.
func (t *tb) noiseOps() {
	g := t.g
	for g.nleft > 0 && g.r.Intn(3) == 0 {
		g.nleft--
		if g.noise > 0 && g.r.Intn(2) == 0 {
			line := g.lines + g.r.Intn(g.noise)
			g.threads[t.u] = append(g.threads[t.u], store(line, uint64(1+g.r.Intn(3))))
		} else {
			g.threads[t.u] = append(g.threads[t.u], warm(g.r.Intn(g.lines+g.noise)))
		}
	}
}

// op appends a hazard op, with noise before it.
func (t *tb) op(o SOp) {
	t.noiseOps()
	t.g.threads[t.u] = append(t.g.threads[t.u], o)
}

// slot places a barrier slot of a random kind at the current
// position and returns its index.
func (t *tb) slot(label string) int {
	g := t.g
	bar := genBars[g.r.Intn(len(genBars))]
	g.slots = append(g.slots, Slot{
		Thread: t.u,
		At:     len(g.threads[t.u]),
		Bar:    bar,
		Label:  label,
	})
	return len(g.slots) - 1
}

// need records an ordering obligation on a slot.
func (g *genb) need(slot int, from, to isa.Access) {
	g.clauses = append(g.clauses, absmodel.FenceClause{Slot: slot, From: from, To: to})
}

// finish seals the shape: optional noise thread, trailing noise,
// line names, cores.
func (g *genb) finish(idx int, family string, forbidden func(r, f []uint64) bool, finals []int, finalTags []string) *GenShape {
	for u := range g.threads {
		(&tb{g: g, u: u}).noiseOps()
	}
	if len(g.threads) < len(genCores) && g.r.Intn(3) == 0 {
		t := g.thread()
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			t.noiseOps()
			g.threads[t.u] = append(g.threads[t.u], warm(g.r.Intn(g.lines+g.noise)))
		}
	}
	total := g.lines + g.noise
	names := make([]string, total)
	for i := range names {
		if i < g.lines {
			names[i] = fmt.Sprintf("x%d", i)
		} else {
			names[i] = fmt.Sprintf("n%d", i-g.lines)
		}
	}
	s := &Shape{
		Name:      fmt.Sprintf("fz%d-%s", idx, family),
		Doc:       fmt.Sprintf("generated %s variant (seeded fuzz corpus)", family),
		Cores:     genCores[:len(g.threads)],
		Lines:     total,
		LineNames: names,
		Threads:   g.threads,
		Slots:     g.slots,
		Regs:      g.regs,
		Finals:    finals,
		FinalTags: finalTags,
		Forbidden: forbidden,
	}
	return &GenShape{Index: idx, Family: family, S: s, Clauses: g.clauses}
}

// genFamilies builds one randomized instance of each hazard skeleton.
var genFamilies = []struct {
	name  string
	build func(g *genb, idx int) *GenShape
}{
	{"MP", genMP}, {"SB", genSB}, {"S", genS}, {"R", genR},
	{"2+2W", gen22W}, {"LB", genLB}, {"WRC", genWRC},
	{"CoRR", genCoRR}, {"CoWW", genCoWW},
	{"SB+RMW", genSBRMW}, {"MP+RMW", genMPRMW},
}

// GenOne deterministically generates corpus shape i for the seed: the
// family rotates through the skeletons and every random choice comes
// from a per-index stream, so any shape can be regenerated in
// isolation (the corpus is byte-for-byte reproducible from the seed).
func GenOne(seed int64, i int) *GenShape {
	r := rand.New(rand.NewSource(seed ^ int64(i)*0x5851f42d4c957f2d))
	f := genFamilies[i%len(genFamilies)]
	return f.build(newGenb(r, famLines(f.name)), i)
}

func famLines(family string) int {
	switch family {
	case "CoRR", "CoWW":
		return 1
	default:
		return 2
	}
}

// Families returns the skeleton names in corpus rotation order:
// GenOne(seed, i) instantiates Families()[i % len(Families())].
func Families() []string {
	out := make([]string, len(genFamilies))
	for i, f := range genFamilies {
		out[i] = f.name
	}
	return out
}

// Gen generates the n-shape corpus for the seed.
func Gen(seed int64, n int) []*GenShape {
	out := make([]*GenShape, n)
	for i := range out {
		out[i] = GenOne(seed, i)
	}
	return out
}

// genMP: store data then flag; load flag then data. Forbidden: flag
// observed, data stale.
func genMP(g *genb, idx int) *GenShape {
	v := g.vals(2)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	push := t0.slot("push")
	t0.op(store(1, v[1]))
	t1 := g.thread()
	r0 := g.reg("flag")
	t1.op(load(1, r0))
	pull := t1.slot("pull")
	r1 := g.reg("data")
	t1.op(load(0, r1))
	g.need(push, isa.Store, isa.Store)
	g.need(pull, isa.Load, isa.Load)
	return g.finish(idx, "MP", func(r, _ []uint64) bool {
		return r[r0] == v[1] && r[r1] != v[0]
	}, nil, nil)
}

// genSB: both threads store their own line then load the other's.
// Forbidden: both loads read the initial zero.
func genSB(g *genb, idx int) *GenShape {
	v := g.vals(2)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	s0 := t0.slot("t0")
	r0 := g.reg("r0")
	t0.op(load(1, r0))
	t1 := g.thread()
	t1.op(store(1, v[1]))
	s1 := t1.slot("t1")
	r1 := g.reg("r1")
	t1.op(load(0, r1))
	g.need(s0, isa.Store, isa.Load)
	g.need(s1, isa.Store, isa.Load)
	return g.finish(idx, "SB", func(r, _ []uint64) bool {
		return r[r0] == 0 && r[r1] == 0
	}, nil, nil)
}

// genS: T0 stores x then y; T1 loads y and stores x. Forbidden: y
// observed yet T1's x loses to T0's.
func genS(g *genb, idx int) *GenShape {
	v := g.vals(3)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	s0 := t0.slot("t0")
	t0.op(store(1, v[1]))
	t1 := g.thread()
	r0 := g.reg("r")
	t1.op(load(1, r0))
	t1.slot("t1") // load->store is free; any barrier kind is redundant
	t1.op(store(0, v[2]))
	g.need(s0, isa.Store, isa.Store)
	return g.finish(idx, "S", func(r, f []uint64) bool {
		return r[r0] == v[1] && f[0] == v[0]
	}, []int{0}, []string{"x0"})
}

// genR: T0 stores x then y; T1 stores y then loads x. Forbidden: T1's
// y wins coherence yet its ordered load misses x.
func genR(g *genb, idx int) *GenShape {
	v := g.vals(3)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	s0 := t0.slot("t0")
	t0.op(store(1, v[1]))
	t1 := g.thread()
	t1.op(store(1, v[2]))
	s1 := t1.slot("t1")
	r0 := g.reg("r")
	t1.op(load(0, r0))
	g.need(s0, isa.Store, isa.Store)
	g.need(s1, isa.Store, isa.Load)
	return g.finish(idx, "R", func(r, f []uint64) bool {
		return r[r0] == 0 && f[1] == v[2]
	}, []int{1}, []string{"x1"})
}

// gen22W: both threads store both lines in opposite orders.
// Forbidden: both lines finish with their first writer's value.
func gen22W(g *genb, idx int) *GenShape {
	v := g.vals(4)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	s0 := t0.slot("t0")
	t0.op(store(1, v[1]))
	t1 := g.thread()
	t1.op(store(1, v[2]))
	s1 := t1.slot("t1")
	t1.op(store(0, v[3]))
	g.need(s0, isa.Store, isa.Store)
	g.need(s1, isa.Store, isa.Store)
	return g.finish(idx, "2+2W", func(_, f []uint64) bool {
		return f[0] == v[0] && f[1] == v[2]
	}, []int{0, 1}, []string{"x0", "x1"})
}

// genLB: each thread loads the other's line then stores its own.
// Forbidden under in-order issue however the slots are filled.
func genLB(g *genb, idx int) *GenShape {
	v := g.vals(2)
	t0 := g.thread()
	r0 := g.reg("r0")
	t0.op(load(1, r0))
	t0.slot("t0")
	t0.op(store(0, v[0]))
	t1 := g.thread()
	r1 := g.reg("r1")
	t1.op(load(0, r1))
	t1.slot("t1")
	t1.op(store(1, v[1]))
	return g.finish(idx, "LB", func(r, _ []uint64) bool {
		return r[r0] == v[1] && r[r1] == v[0]
	}, nil, nil)
}

// genWRC: write-to-read causality across three threads. Forbidden:
// the causal chain observed, then stale x.
func genWRC(g *genb, idx int) *GenShape {
	v := g.vals(2)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	t1 := g.thread()
	r0 := g.reg("t1x")
	t1.op(load(0, r0))
	t1.slot("t1") // load->store is free
	t1.op(store(1, v[1]))
	t2 := g.thread()
	r1 := g.reg("t2y")
	t2.op(load(1, r1))
	s1 := t2.slot("t2")
	r2 := g.reg("t2x")
	t2.op(load(0, r2))
	g.need(s1, isa.Load, isa.Load)
	return g.finish(idx, "WRC", func(r, _ []uint64) bool {
		return r[r0] == v[0] && r[r1] == v[1] && r[r2] == 0
	}, nil, nil)
}

// genCoRR: same-line loads must not observe new-then-old.
func genCoRR(g *genb, idx int) *GenShape {
	v := g.vals(1)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	t1 := g.thread()
	r0 := g.reg("r1")
	t1.op(load(0, r0))
	s0 := t1.slot("dep")
	r1 := g.reg("r2")
	t1.op(load(0, r1))
	g.need(s0, isa.Load, isa.Load)
	return g.finish(idx, "CoRR", func(r, _ []uint64) bool {
		return r[r0] == v[0] && r[r1] == 0
	}, nil, nil)
}

// genCoWW: same-line stores drain in order with no barrier at all.
func genCoWW(g *genb, idx int) *GenShape {
	v := g.vals(2)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	t0.slot("t0")
	t0.op(store(0, v[1]))
	t1 := g.thread()
	t1.op(warm(0))
	return g.finish(idx, "CoWW", func(_, f []uint64) bool {
		return f[0] != v[1]
	}, []int{0}, []string{"x0"})
}

// genSBRMW: SB with atomic swaps — the swap drains the buffer and
// synchronizes stale views, so no clause survives.
func genSBRMW(g *genb, idx int) *GenShape {
	v := g.vals(2)
	t0 := g.thread()
	t0.op(swap(0, v[0], -1))
	t0.slot("t0")
	r0 := g.reg("r0")
	t0.op(load(1, r0))
	t1 := g.thread()
	t1.op(swap(1, v[1], -1))
	t1.slot("t1")
	r1 := g.reg("r1")
	t1.op(load(0, r1))
	return g.finish(idx, "SB+RMW", func(r, _ []uint64) bool {
		return r[r0] == 0 && r[r1] == 0
	}, nil, nil)
}

// genMPRMW: MP whose flag publish is an atomic swap — the swap's
// buffer drain supplies the store-store edge for free, leaving only
// the consumer-side clause.
func genMPRMW(g *genb, idx int) *GenShape {
	v := g.vals(2)
	t0 := g.thread()
	t0.op(store(0, v[0]))
	t0.op(swap(1, v[1], -1))
	t1 := g.thread()
	r0 := g.reg("flag")
	t1.op(load(1, r0))
	pull := t1.slot("pull")
	r1 := g.reg("data")
	t1.op(load(0, r1))
	g.need(pull, isa.Load, isa.Load)
	return g.finish(idx, "MP+RMW", func(r, _ []uint64) bool {
		return r[r0] == v[1] && r[r1] != v[0]
	}, nil, nil)
}

// Describe renders the generated shape as a stable textual form —
// this is what the corpus-reproducibility gate compares byte for
// byte, and what a counterexample report prints.
func (gs *GenShape) Describe() string {
	var b strings.Builder
	s := gs.S
	fmt.Fprintf(&b, "%s lines=%d", s.Name, s.Lines)
	if len(s.Init) > 0 {
		fmt.Fprintf(&b, " init=%v", s.Init)
	}
	b.WriteByte('\n')
	for u, tops := range s.Threads {
		fmt.Fprintf(&b, "  T%d:", u)
		for at, op := range tops {
			for si, sl := range s.Slots {
				if sl.Thread == u && sl.At == at {
					fmt.Fprintf(&b, " [%d:%v]", si, sl.Bar)
				}
			}
			b.WriteByte(' ')
			b.WriteString(describeOp(s, op))
		}
		for si, sl := range s.Slots {
			if sl.Thread == u && sl.At == len(tops) {
				fmt.Fprintf(&b, " [%d:%v]", si, sl.Bar)
			}
		}
		b.WriteByte('\n')
	}
	for _, c := range gs.Clauses {
		fmt.Fprintf(&b, "  need slot%d %v->%v\n", c.Slot, c.From, c.To)
	}
	return b.String()
}

func describeOp(s *Shape, op SOp) string {
	name := fmt.Sprintf("line%d", op.Addr)
	if op.Addr < len(s.LineNames) {
		name = s.LineNames[op.Addr]
	}
	switch op.Code {
	case SLoad:
		if op.Obs < 0 {
			return fmt.Sprintf("ld %s (noise)", name)
		}
		return fmt.Sprintf("ld %s->r%d", name, op.Obs)
	case SStore:
		return fmt.Sprintf("st %s=%d", name, op.Val)
	case SSwap:
		return fmt.Sprintf("swap %s=%d", name, op.Val)
	case SBarrier:
		return fmt.Sprintf("bar %v", op.Bar)
	}
	return "?"
}
