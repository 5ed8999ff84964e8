// Package explore holds the repository's litmus shapes (Shape, the
// one litmus IR) and a reorder-bounded state-space explorer for them:
// it runs a straight-line multi-threaded program under an abstract
// operational semantics of the simulator's WMM (per-thread non-FIFO
// store buffers plus bounded-stale load views) or TSO (FIFO buffers,
// no staleness), enumerating every interleaving up to a reorder bound
// via DFS with state hashing and reporting the exact set of reachable
// outcomes.
//
// The abstraction is calibrated against internal/sim, not against the
// architectural ARM model: in-order issue per thread, weak behavior
// only from out-of-order store-buffer drain and from stale load views
// (the union of the simulator's invalidated-copy window and its
// early-binding race on in-flight misses). Every behavior the
// simulator can sample is reachable here; the explorer additionally
// reaches timing corners sampling may miss, so a placement the
// explorer calls safe is safe for every seed. Explore (explore.go)
// proves a barrier placement admits no forbidden outcome or returns
// the first forbidden trace as a witness; on top of it (verify.go),
// Minimize searches the placement lattice for all minimal safe
// placements, ModelAgrees cross-checks the lattice against absmodel's
// closed-form requirements, and PilotCheck machine-checks the paper's
// Pilot barrier-removal transformation. Sample (sample.go) runs the
// same shapes on the simulator; Table 1 is its histogram of MP.
package explore

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"armbar/internal/isa"
	"armbar/internal/topo"
)

// SCode is a straight-line shape micro-op opcode. Shapes deliberately
// exclude control flow: loops and spins make exhaustive exploration
// unbounded, so signal waits are expressed as plain loads whose
// forbidden predicate conditions on the observed value (the sampler
// may re-introduce a spin on ops marked Spin, which only restricts
// the sampled outcome set).
type SCode uint8

const (
	SLoad    SCode = iota // relaxed load
	SStore                // relaxed store (into the store buffer)
	SBarrier              // standalone barrier
	SSwap                 // LSE atomic swap (drains, acts on memory)
)

// SOp is one micro-op of a shape thread.
type SOp struct {
	Code SCode
	Addr int         // line index
	Val  uint64      // store/swap value; sampler spin-exit value
	Bar  isa.Barrier // SBarrier only
	Obs  int         // register receiving a load/swap result; -1 = discarded
	Spin bool        // sampler retries this load until it reads Val
}

// Slot is an optional barrier position in a shape: placement bit i
// inserts Bar before op At of thread Thread (At == len inserts at the
// end).
type Slot struct {
	Thread int
	At     int
	Bar    isa.Barrier
	Label  string
}

// Shape is a litmus program with optional barrier slots — the one
// litmus IR: the explorer enumerates it, the clause oracle judges its
// placements, and Sample runs it on the simulator. Regs names the
// observed registers (indexed by SOp.Obs), Finals names rendered
// final-memory lines; outcomes render registers first, then finals,
// through Shape.Outcome.
type Shape struct {
	Name      string
	Doc       string
	Cores     []topo.CoreID // sampler thread binding; len == threads
	Lines     int
	LineNames []string // witness rendering; len == Lines
	Init      []uint64 // initial line values (nil = zeros)
	Threads   [][]SOp
	Slots     []Slot
	Regs      []string
	Finals    []int    // line indices rendered after the registers
	FinalTags []string // names for Finals
	Forbidden func(regs []uint64, final []uint64) bool
}

// Outcome is one terminal state of a shape rendered as "name=value"
// pairs separated by single spaces, e.g. "r0=1 r1=0".
type Outcome string

// Outcome renders one terminal state: the observed registers, then
// the final values of the Finals lines. It is the one renderer, so
// the explorer's reachable sets and the simulator's sampled
// histograms compare byte for byte.
func (s *Shape) Outcome(regs, final []uint64) Outcome {
	var b strings.Builder
	for i, name := range s.Regs {
		field(&b, name, regs[i])
	}
	for i, line := range s.Finals {
		field(&b, s.FinalTags[i], final[line])
	}
	return Outcome(b.String())
}

func field(b *strings.Builder, name string, v uint64) {
	if b.Len() > 0 {
		b.WriteByte(' ')
	}
	b.WriteString(name)
	b.WriteByte('=')
	b.WriteString(strconv.FormatUint(v, 10))
}

// thread returns thread i's ops with the placed slot barriers
// inserted.
func (s *Shape) thread(i int, pl Placement) []SOp {
	return s.appendThread(nil, i, pl)
}

// appendThread appends thread i's ops, with the placed slot barriers
// inserted, to dst, growing it at most once.
func (s *Shape) appendThread(dst []SOp, i int, pl Placement) []SOp {
	base := s.Threads[i]
	dst = slices.Grow(dst, len(base)+len(s.Slots))
	for at := 0; at <= len(base); at++ {
		for si, sl := range s.Slots {
			if sl.Thread == i && sl.At == at && pl.Has(si) {
				dst = append(dst, SOp{Code: SBarrier, Bar: sl.Bar, Obs: -1})
			}
		}
		if at < len(base) {
			dst = append(dst, base[at])
		}
	}
	return dst
}

// program returns every thread lowered under the placement.
func (s *Shape) program(pl Placement) [][]SOp {
	ops := make([][]SOp, len(s.Threads))
	for i := range s.Threads {
		ops[i] = s.thread(i, pl)
	}
	return ops
}

// Placement is a subset of a shape's slots, bit i = slot i placed.
type Placement uint32

// Naive is the full placement: every slot filled.
func Naive(s *Shape) Placement { return Placement(1)<<len(s.Slots) - 1 }

// Has reports whether slot i is placed.
func (pl Placement) Has(i int) bool { return pl&(1<<i) != 0 }

// Without clears slot i.
func (pl Placement) Without(i int) Placement { return pl &^ (1 << i) }

// SubsetOf reports pl ⊆ other.
func (pl Placement) SubsetOf(other Placement) bool { return pl&^other == 0 }

// Count returns the number of placed slots.
func (pl Placement) Count() int { return bits.OnesCount32(uint32(pl)) }

// Describe renders the placement by slot label, "{}" when empty.
func (pl Placement) Describe(s *Shape) string {
	var names []string
	for i, sl := range s.Slots {
		if pl.Has(i) {
			names = append(names, sl.Label)
		}
	}
	return "{" + strings.Join(names, " ") + "}"
}

// SlotBarriers renders a placement as the per-slot barrier list,
// isa.None where the placement leaves a slot empty — the form the
// absmodel formula oracle consumes.
func SlotBarriers(s *Shape, pl Placement) []isa.Barrier {
	bars := make([]isa.Barrier, len(s.Slots))
	for i, sl := range s.Slots {
		if pl.Has(i) {
			bars[i] = sl.Bar
		} else {
			bars[i] = isa.None
		}
	}
	return bars
}

// SlotSummary renders the shape's slot table, e.g.
// "push:dmb st pull:dmb ld".
func (s *Shape) SlotSummary() string {
	parts := make([]string, len(s.Slots))
	for i, sl := range s.Slots {
		parts[i] = fmt.Sprintf("%s:%v", sl.Label, sl.Bar)
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// sortPlacements orders placements by slot count then numeric value —
// the deterministic rendering order for minimal-placement sets.
func sortPlacements(pls []Placement) {
	sort.Slice(pls, func(i, j int) bool {
		if pls[i].Count() != pls[j].Count() {
			return pls[i].Count() < pls[j].Count()
		}
		return pls[i] < pls[j]
	})
}
