package locks

import (
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// TASLock is a plain test-and-set spinlock (with test-and-test-and-set
// polling), the simplest in-place lock and the worst-scaling one: all
// waiters hammer a single line with RMWs.
type TASLock struct {
	word   uint64
	unlock isa.Barrier
}

// NewTAS allocates a test-and-set lock.
func NewTAS(m *sim.Machine, unlockBarrier isa.Barrier) *TASLock {
	return &TASLock{word: m.Alloc(1), unlock: unlockBarrier}
}

// Lock spins until the word is grabbed.
func (l *TASLock) Lock(t *sim.Thread) {
	for {
		// Test-and-test-and-set: poll read-only first.
		t.SpinUntil(l.word, false, sim.SpinEQ, 0, spinPause)
		if t.CompareAndSwap(l.word, 0, 1) {
			return
		}
		t.Nops(spinPause)
	}
}

// Unlock releases the word after publishing the critical section.
func (l *TASLock) Unlock(t *sim.Thread) {
	if l.unlock != isa.None {
		t.Barrier(l.unlock)
	}
	t.Store(l.word, 0)
}

// Exec implements Lock.
func (l *TASLock) Exec(t *sim.Thread, client int, cs CS, arg uint64) uint64 {
	l.Lock(t)
	ret := cs(t, arg)
	l.Unlock(t)
	return ret
}

// CLHLock is the Craig/Landin-Hagersten queue lock: waiters spin on
// their *predecessor's* node, giving per-waiter local spinning like
// MCS but with an implicit queue. On release a thread recycles its
// predecessor's node as its own next node — the classic CLH trick,
// which works because the predecessor's node is guaranteed free once
// the lock is held.
//
// Node layout: a single word at +0 (1 = held/pending, 0 = released).
type CLHLock struct {
	tail   uint64   // holds the current tail node address
	armed  []uint64 // per client: the node to enqueue next
	pred   []uint64 // per client: predecessor node while holding
	unlock isa.Barrier
}

// NewCLH allocates a CLH lock for nClients. A dummy released node
// seeds the tail.
func NewCLH(m *sim.Machine, nClients int, unlockBarrier isa.Barrier) *CLHLock {
	l := &CLHLock{
		tail:   m.Alloc(1),
		armed:  make([]uint64, nClients),
		pred:   make([]uint64, nClients),
		unlock: unlockBarrier,
	}
	for i := range l.armed {
		l.armed[i] = m.Alloc(1)
	}
	dummy := m.Alloc(1) // starts released (memory zero)
	m.SetInitial(l.tail, dummy)
	return l
}

// Lock enqueues the client's armed node and spins on the predecessor.
func (l *CLHLock) Lock(t *sim.Thread, c int) {
	node := l.armed[c]
	t.Store(node, 1)
	t.Barrier(isa.DMBSt) // the node must read "pending" before it is linked
	pred := t.Swap(l.tail, node)
	l.pred[c] = pred
	t.SpinUntil(pred, true, sim.SpinEQ, 0, spinPause)
}

// Unlock publishes the critical section, releases the own node, and
// recycles the predecessor's node.
func (l *CLHLock) Unlock(t *sim.Thread, c int) {
	if l.unlock != isa.None {
		t.Barrier(l.unlock)
	}
	t.Store(l.armed[c], 0)
	l.armed[c] = l.pred[c]
}

// Exec implements Lock.
func (l *CLHLock) Exec(t *sim.Thread, client int, cs CS, arg uint64) uint64 {
	l.Lock(t, client)
	ret := cs(t, arg)
	l.Unlock(t, client)
	return ret
}
