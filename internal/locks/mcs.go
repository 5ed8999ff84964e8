package locks

import (
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// MCSLock is the queue lock of Mellor-Crummey & Scott, the second
// classic in-place lock the paper cites alongside the ticket lock:
// each waiter spins on its own queue node, so the lock word itself
// never sees contention storms. The unlock path still needs the
// publication barrier before signalling the successor — the same
// Obs-2 barrier-after-RMR pattern as the ticket lock's.
//
// Node layout (one line per client): +0 next, +8 locked.
type MCSLock struct {
	tail   uint64
	nodes  []uint64 // one node per client
	unlock isa.Barrier
}

// NewMCS allocates an MCS lock for nClients on machine m; unlockBarrier
// is the publication barrier in the release path (isa.DMBSt normally).
func NewMCS(m *sim.Machine, nClients int, unlockBarrier isa.Barrier) *MCSLock {
	l := &MCSLock{tail: m.Alloc(1), unlock: unlockBarrier, nodes: make([]uint64, nClients)}
	for i := range l.nodes {
		l.nodes[i] = m.Alloc(1)
	}
	return l
}

// Lock acquires the lock for client c on thread t.
func (l *MCSLock) Lock(t *sim.Thread, c int) {
	node := l.nodes[c]
	t.Store(node+0, 0) // next = nil
	t.Store(node+8, 1) // locked
	pred := t.Swap(l.tail, node)
	if pred == 0 {
		return
	}
	t.Store(pred+0, node)
	t.SpinUntil(node+8, true, sim.SpinNE, 1, spinPause)
}

// Unlock releases the lock held by client c.
func (l *MCSLock) Unlock(t *sim.Thread, c int) {
	node := l.nodes[c]
	next := t.Load(node + 0)
	if next == 0 {
		// No known successor: try to detach the queue.
		if t.CompareAndSwap(l.tail, node, 0) {
			return
		}
		next = t.SpinUntil(node+0, false, sim.SpinNE, 0, spinPause)
	}
	// Publish the critical section before waking the successor — the
	// barrier that strictly follows the CS's last (likely remote)
	// access.
	if l.unlock != isa.None {
		t.Barrier(l.unlock)
	}
	t.Store(next+8, 0)
}

// Exec implements Lock by running cs inline under the lock.
func (l *MCSLock) Exec(t *sim.Thread, client int, cs CS, arg uint64) uint64 {
	l.Lock(t, client)
	ret := cs(t, arg)
	l.Unlock(t, client)
	return ret
}
