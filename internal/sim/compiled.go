package sim

import (
	"fmt"

	"armbar/internal/isa"
	"armbar/internal/prog"
	"armbar/internal/topo"
)

// This file is the executor, which serves every op of every thread. A
// thread's ops come from one of two sources: a compiled thread
// (SpawnProgram) runs a precompiled micro-op program (package prog),
// and a closure thread stages each call it makes as a one-op program
// (Thread.op). Either way the machine-visible op at pc dispatches
// through the per-opcode function table below, and free control codes
// (jumps, counted-loop backedges) fold into pc updates between
// dispatches. The scheduler (sched.go) calls execStep, through
// Machine.step, once per op served, in global min-(now, id) order, so a
// program and a closure issuing the same ops are served identically
// (TestEngineDifferential holds them bit-for-bit equal).

// SpawnProgram starts a simulated thread pinned to the given core
// executing the compiled program. Like Spawn, it must be called before
// Run. The program must validate; programs built by prog.Builder
// always do.
func (m *Machine) SpawnProgram(core topo.CoreID, p *prog.Program) *Thread {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: SpawnProgram: %v", err))
	}
	t := m.spawn(core)
	t.env = execEnv{ops: p.Ops, tables: p.Tables}
	return t
}

// execEnv is the executor's per-thread state: the flat op array, the
// program counter, the loop counters, the result of the latest load,
// atomic or spin-wait, and whether a spin-wait's next step is the
// pause after a failed poll. It lives in the Thread, in the machine's
// thread arena: running a program allocates nothing.
type execEnv struct {
	ops      []prog.Op
	tables   [][]uint64
	pc       int32
	counters [prog.MaxLoopDepth]int64
	res      uint64
	pausing  bool
}

// addr resolves a memory op's address: an immediate, or an address
// ring indexed by the op's loop counter.
func (e *execEnv) addr(op *prog.Op) uint64 {
	if op.AMode == prog.AddrImm {
		return op.Addr
	}
	tab := e.tables[op.Addr]
	return tab[uint64(e.counters[op.Dep])%uint64(len(tab))]
}

// value resolves a store/atomic value: an immediate or the iteration
// index.
func (e *execEnv) value(op *prog.Op) uint64 {
	if op.VMode == prog.ValImm {
		return op.Val
	}
	return uint64(e.counters[op.Dep])
}

// stepControl folds free control codes (Jump, LoopEnd) into pc and
// counter updates until the program counter rests on a machine-visible
// op or past the end. These correspond to Go-level control flow in a
// closure thread and consume no simulated time. The transition
// bound catches malformed control cycles (a program of only jumps)
// instead of hanging.
func (e *execEnv) stepControl() {
	steps := 0
	for int(e.pc) < len(e.ops) {
		op := &e.ops[e.pc]
		switch op.Code {
		case prog.Jump:
			e.pc = op.Target
		case prog.LoopEnd:
			c := e.counters[op.Dep] + 1
			if c < op.Count {
				e.counters[op.Dep] = c
				e.pc = op.Target
			} else {
				e.counters[op.Dep] = 0
				e.pc++
			}
		default:
			return
		}
		if steps++; steps > len(e.ops) {
			badControlCycle()
		}
	}
}

//go:noinline
func badControlCycle() {
	panic("sim: compiled program loops forever in free control ops")
}

// done reports whether the program has run to completion.
func (e *execEnv) done() bool { return int(e.pc) >= len(e.ops) }

// execStep serves the machine-visible op at pc. An op that could not
// run yet only advances the thread's clock, and the thread retries it
// once it is the run-heap minimum again: this keeps directory mutations
// in global start-time order, which is what makes values read by one
// thread never come from another thread's future. A served op counts
// for noteServed, and once it completes, pc moves past it and any
// following control ops.
func (m *Machine) execStep(t *Thread) {
	e := &t.env
	m.retireStores(t.now)
	m.now = t.now
	op := &e.ops[e.pc]
	if opExec[op.Code](m, t, e, op) {
		m.noteServed(t)
		// Most ops are followed by a machine op, or by nothing (a
		// closure's one-op program): skip the call then.
		if int(e.pc) < len(e.ops) && e.ops[e.pc].Code.IsControl() {
			e.stepControl()
		}
	}
}

// opExec is the executor's dispatch table: the function serving each
// machine-visible opcode, which reports whether it served its op
// (false: it only advanced the clock, and the op retries). The three
// atomics share execRMW and the three spin-waits execSpin, which read
// the flavor from op.Code. Control codes never reach dispatch —
// stepControl folds them — so their slots stay nil.
var opExec = [prog.NumCodes]func(*Machine, *Thread, *execEnv, *prog.Op) bool{
	prog.Load:      execLoad,
	prog.LoadAcq:   execLoadAcq,
	prog.LoadAcqPC: execLoadAcqPC,
	prog.Store:     execStore,
	prog.StoreRel:  execStoreRel,
	prog.Barrier:   execBarrier,
	prog.Work:      execWork,
	prog.FetchAdd:  execRMW,
	prog.Swap:      execRMW,
	prog.CAS:       execRMW,
	prog.SpinEQ:    execSpin,
	prog.SpinNE:    execSpin,
	prog.SpinGE:    execSpin,
}

func execLoad(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	e.res = m.doLoad(t, a, false)
	m.emit(t, TraceLoad, a, start, t.now, "")
	e.pc++
	return true
}

func execLoadAcq(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	e.res = m.doLoad(t, a, true)
	m.emit(t, TraceLoad, a, start, t.now, "acquire")
	e.pc++
	return true
}

func execLoadAcqPC(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	a := e.addr(op)
	e.res = m.doLoad(t, a, true)
	// RCpc: keep the in-flight horizon at the load's issue so later
	// independent misses still overlap it.
	t.prevLoadIssue = start
	m.emit(t, TraceLoad, a, start, t.now, "acquire-pc")
	e.pc++
	return true
}

// storeStall is the shared full-buffer retry: issue stalls until the
// earliest pending commit; the thread re-enters at its new time so
// intervening commits apply in order.
func storeStall(t *Thread) bool {
	if t.buf.Full() {
		if min := t.buf.MinCommit(); min > t.now {
			t.stats.BarrierStalled += min - t.now
			t.advTo(CauseSBDrain, min)
			return true
		}
	}
	return false
}

func execStore(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	if storeStall(t) {
		return false
	}
	start := t.now
	a := e.addr(op)
	m.doStore(t, a, e.value(op), false)
	m.emit(t, TraceStore, a, start, t.now, "")
	e.pc++
	return true
}

func execStoreRel(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	if storeStall(t) {
		return false
	}
	start := t.now
	a := e.addr(op)
	m.doStore(t, a, e.value(op), true)
	m.emit(t, TraceStore, a, start, t.now, "release")
	e.pc++
	return true
}

func execBarrier(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	m.doBarrier(t, op.Bar)
	m.emit(t, TraceBarrier, 0, start, t.now, op.Bar.String())
	e.pc++
	return true
}

func execWork(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	t.advBy(CauseWork, op.Cyc)
	m.emit(t, TraceWork, 0, start, t.now, "")
	e.pc++
	return true
}

// rmwStall is the shared release-half retry: earlier stores must have
// drained before an acquire-release atomic runs.
func rmwStall(t *Thread) bool {
	if need := maxf(t.buf.MaxCommit(), t.storeFloor); need > t.now {
		t.stats.BarrierStalled += need - t.now
		t.advTo(CauseSBDrain, need)
		return true
	}
	return false
}

func execRMW(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	if rmwStall(t) {
		return false
	}
	start := t.now
	a := e.addr(op)
	e.res = m.doRMW(t, op.Code, a, e.value(op), op.Val2)
	m.emit(t, TraceRMW, a, start, t.now, "")
	e.pc++
	return true
}

// execSpin serves the next step of a spin-wait: the pause after a poll
// that failed the condition, or a poll. Only a satisfying poll
// completes the op; each other step is served, and the thread stays on
// the op until it is the run-heap minimum again. Poll cycles attribute
// to CauseSpin instead of their service cause: the spinning flag
// remaps inside the attribution helpers and never touches the
// simulation itself.
func execSpin(m *Machine, t *Thread, e *execEnv, op *prog.Op) bool {
	start := t.now
	if e.pausing {
		e.pausing = false
		t.advBy(CauseWork, op.Cyc)
		m.emit(t, TraceWork, 0, start, t.now, "")
		return true
	}
	a := e.addr(op)
	acquire := op.Bar == isa.LDAR
	t.spinning = true
	v := m.doLoad(t, a, acquire)
	t.spinning = false
	if acquire {
		m.emit(t, TraceLoad, a, start, t.now, "acquire")
	} else {
		m.emit(t, TraceLoad, a, start, t.now, "")
	}
	if SpinCmp(op.Code-prog.SpinEQ).holds(v, op.Val) {
		e.res = v
		e.pc++
	} else {
		e.pausing = op.Cyc > 0
	}
	return true
}
