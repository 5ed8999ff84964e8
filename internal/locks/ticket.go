package locks

import (
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// TicketLock is the Linux-style in-place ticket lock: an atomic
// next-ticket counter and a now-serving word. The lock side acquires
// with a load-acquire spin (order: lock word before critical-section
// accesses); the unlock side must publish the critical section's
// stores before bumping now-serving — that publication barrier strictly
// follows the critical section's last (likely remote) access, which is
// exactly the costly pattern of Obs 2 that Figure 7a measures.
type TicketLock struct {
	next    uint64 // atomic next-ticket counter (own line)
	serving uint64 // now-serving word (own line)
	unlock  isa.Barrier
}

// NewTicket allocates a ticket lock on machine m. unlockBarrier is the
// publication barrier in the unlock path (isa.DMBSt is the "Normal"
// configuration; isa.None measures the barrier's cost by removing it).
func NewTicket(m *sim.Machine, unlockBarrier isa.Barrier) *TicketLock {
	return &TicketLock{
		next:    m.Alloc(1),
		serving: m.Alloc(1),
		unlock:  unlockBarrier,
	}
}

// Lock acquires the lock for thread t.
func (l *TicketLock) Lock(t *sim.Thread) {
	my := t.FetchAdd(l.next, 1)
	t.SpinUntil(l.serving, true, sim.SpinEQ, my, spinPause)
}

// Unlock releases the lock: publish the critical section, then bump
// now-serving.
func (l *TicketLock) Unlock(t *sim.Thread) {
	if l.unlock != isa.None {
		t.Barrier(l.unlock)
	}
	s := t.Load(l.serving) // the holder owns this line; cheap
	t.Store(l.serving, s+1)
}

// Exec implements Lock by running cs inline under the lock.
func (l *TicketLock) Exec(t *sim.Thread, client int, cs CS, arg uint64) uint64 {
	l.Lock(t)
	ret := cs(t, arg)
	l.Unlock(t)
	return ret
}
