//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
)

// This file is the scheduler. Only one simulated thread ever runs at a
// time, so the machine needs no lock: the goroutine that calls Run owns
// it, and one driver loop (drive) serves every op in global
// min-(now, id) order from the run heap. Serving an op is the same
// call for every thread (step, then the executor's execStep in
// compiled.go); what differs is where the ops come from.
//
// Compiled threads (SpawnProgram) have no coroutine: the driver steps
// their programs one op at a time. Closure threads (Spawn) run as
// iter.Pull coroutines, and each call a body makes stages one op as
// the thread's one-op program. A running thread serves its own ops
// inline, as plain function calls, for as long as it stays the heap
// minimum, and yields back to the driver only at the entry of an op
// that another thread must serve first. A thread that keeps the
// minimum (every single-thread measurement loop) never switches at
// all. The suspended thread's op stays staged: the driver serves it
// when the thread becomes the minimum and resumes the body only once
// the op completes. Most ops complete at their first service, but a
// spin-wait (SpinUntil) is one op that completes only at its
// satisfying poll, so the driver serves every earlier poll and pause
// with no coroutine switch.
//
// The service order is that of every earlier engine: no op is served
// until every thread has been primed up to its first op, and the next
// op always belongs to the live thread with the smallest (virtual time,
// id). Only a served op moves a clock, so a thread between two ops
// already holds the heap key its next op will have, and a thread whose
// body returns retires (finishThread) before the next op is served.
// Because the driver resumes a body right after the op that completes
// it, the body's Go code between two ops also runs at the same point
// of the service sequence wherever the op was served. The rng draw
// sequence, and with it every simulated number, is unchanged.

// errStopped unwinds a suspended closure thread whose machine is being
// abandoned after a panic (see stopThreads). Only stopThread recovers
// it, so it never escapes the package.
var errStopped = errors.New("sim: thread stopped")

// prime starts every thread not yet primed, in spawn order, up to its
// first op: a closure thread's coroutine runs until that op joins the
// run heap (or the body returns), and a compiled thread folds its
// leading control ops. Nothing is served.
func (m *Machine) prime() {
	for ; m.primed < len(m.threads); m.primed++ {
		t := m.threads[m.primed]
		if t.body != nil {
			t.next, t.stop = iter.Pull(t.run)
			t.next()
			continue
		}
		t.env.stepControl()
		if t.env.done() {
			m.finishThread(t)
		} else {
			m.runq.push(t)
		}
	}
}

// drive primes any remaining threads, then serves ops until every
// thread has finished. Its loop is the only place that picks the next
// thread, and it steps whichever thread is the heap minimum. Once a
// thread's program has run out, a compiled thread is finished, and a
// closure thread (whose staged op just completed) resumes its body,
// which returns here once it finishes or another thread must go first.
func (m *Machine) drive() {
	m.prime()
	for m.runq.len() > 0 {
		t := m.runq.min()
		if !m.step(t) {
			continue
		}
		if t.next != nil {
			t.next()
		} else {
			m.finishThread(t)
		}
	}
}

// dispatch runs the op staged in t.env to completion and returns its
// result. The first op only joins the run heap and suspends: that is
// priming. After that the thread serves its op inline, on its own
// coroutine, for as long as it is the heap minimum. Otherwise it
// suspends, and the driver serves the op from then on and resumes the
// thread once the op has completed.
func (t *Thread) dispatch() uint64 {
	m := t.m
	if t.heapIdx < 0 {
		m.runq.push(t)
	} else {
		for m.runq.min() == t {
			if m.step(t) {
				return t.env.res
			}
		}
	}
	t.suspend()
	return t.env.res
}

// step serves one op of t, the heap minimum, through the executor and
// re-keys the thread. It reports whether t's program has run out: a
// compiled thread's whole program, or the one op a closure thread
// staged. Until then the op retries, or the program continues, once t
// is the minimum again, so commits apply in global time order.
func (m *Machine) step(t *Thread) bool {
	if t.now > m.cfg.MaxTime {
		m.fatalStuck(t)
	}
	m.execStep(t)
	m.runq.fix(t.heapIdx)
	return t.env.done()
}

// suspend hands control back to the driver until it resumes this
// thread with its staged op completed. A false yield means the machine
// is being abandoned after a panic: errStopped unwinds the thread's
// body.
func (t *Thread) suspend() {
	if !t.yield(struct{}{}) {
		panic(errStopped)
	}
}

// finishThread retires a thread whose body returned or whose program
// ran out: it leaves the run heap, and the commits due by its final
// time apply before the next op is served.
func (m *Machine) finishThread(t *Thread) {
	t.finished = true
	if t.heapIdx >= 0 {
		m.runq.remove(t.heapIdx)
	}
	if t.now > m.finish {
		m.finish = t.now
	}
	m.retireStores(t.now)
}

// guarded runs f (priming, or the whole drive) and, if f panics,
// stops every suspended coroutine before the panic continues out of
// Run or Settle with its original value. The panic may come from a
// thread body, from serving an op (the watchdog, a bad barrier value)
// or from a compiled program; either way the failed machine leaves no
// goroutine behind.
func (m *Machine) guarded(f func()) {
	ok := false
	defer func() {
		if !ok {
			m.stopThreads()
		}
	}()
	f()
	ok = true
}

// stopThreads unwinds every closure thread that is still suspended.
func (m *Machine) stopThreads() {
	for _, t := range m.threads {
		if t.stop != nil && !t.finished {
			stopThread(t)
		}
	}
}

// stopThread stops one coroutine: its pending yield returns false,
// suspend raises errStopped, the body unwinds (running its defers), and
// iter.Pull re-raises errStopped here, where it ends.
func stopThread(t *Thread) {
	defer func() {
		if p := recover(); p != nil && p != errStopped {
			panic(p)
		}
	}()
	t.stop()
}

// fatalStuck raises the watchdog report. Building the string and
// boxing it into panic's operand stay out of dispatch and drive, which
// must remain allocation-free.
//
//go:noinline
func (m *Machine) fatalStuck(t *Thread) {
	panic(m.stuckReport(t))
}

// noteServed maintains the dispatch counters from the (deterministic)
// service sequence: consecutive ops by one thread need no handoff,
// while a change of thread implies one (historically a park on one
// side and a wake on the other, hence the name). Deriving the split
// this way keeps Stats independent of how the handoff is implemented.
func (m *Machine) noteServed(t *Thread) {
	if m.lastServed == t {
		m.stats.InlineDispatches++
		return
	}
	m.stats.ParkWakes++
	m.lastServed = t
}

// runHeap is an indexed min-heap of the live threads, keyed on
// (now, id): (time, id) pairs are unique, so the minimum (the next
// thread to serve) is unambiguous.
type runHeap struct{ s []*Thread }

func (h *runHeap) len() int { return len(h.s) }

// min returns the next thread to serve without removing it.
func (h *runHeap) min() *Thread { return h.s[0] }

func runLess(a, b *Thread) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	return a.id < b.id
}

// push inserts t and records its index for later fix/remove.
func (h *runHeap) push(t *Thread) {
	h.s = append(h.s, t)
	t.heapIdx = len(h.s) - 1
	h.up(t.heapIdx)
}

// fix restores heap order around index i after its thread's time moved.
func (h *runHeap) fix(i int) {
	h.down(i)
	h.up(i)
}

// remove deletes the thread at index i.
func (h *runHeap) remove(i int) {
	s := h.s
	n := len(s) - 1
	if i > n || s[i] == nil {
		badRemove(i, n+1)
	}
	if i != n {
		s[i] = s[n]
		s[i].heapIdx = i
	}
	s[n] = nil
	h.s = s[:n]
	if i != n {
		h.fix(i)
	}
}

// badRemove reports an out-of-range heap removal. Separate from
// remove so the hot path carries no fmt machinery or boxing.
//
//go:noinline
func badRemove(i, n int) {
	panic(fmt.Sprintf("sim: runHeap.remove(%d) of %d", i, n))
}

func (h *runHeap) up(i int) {
	s := h.s
	for i > 0 {
		p := (i - 1) / 2
		if !runLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		s[i].heapIdx, s[p].heapIdx = i, p
		i = p
	}
}

func (h *runHeap) down(i int) {
	s := h.s
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && runLess(s[l], s[small]) {
			small = l
		}
		if r < n && runLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			return
		}
		s[i], s[small] = s[small], s[i]
		s[i].heapIdx, s[small].heapIdx = i, small
		i = small
	}
}
