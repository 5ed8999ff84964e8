package locks

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// CCSynchLock is the CC-Synch combining lock (Fatourou & Kallimanis,
// cited by the paper with DSM-Synch): a dummy-node queue where each
// thread swaps in a fresh node, writes its request into the node it
// received back, and spins on that node's wait word. The combiner
// walks the chain executing requests until it hits the tail dummy or
// its combining bound.
//
// Layout per node (two lines, spin word separate from data):
//
//	data line:  +0 next, +8 arg, +16 ret (Pilot word in pilot mode),
//	            +24 fbflag
//	wait line:  +0 wait — 1 = spin, 2 = completed, 0 = become combiner
//
// Pilot mode publishes results as ret-word changes (Algorithm 6); the
// wait word is then touched only for the combiner handoff.
type CCSynchLock struct {
	pilot bool
	barY  isa.Barrier
	h     int

	tail  uint64            // holds the current dummy node address
	waits map[uint64]uint64 // data-line addr -> wait-line addr
	cs    map[uint64]CS     // per data-line pending critical section
	// Per-node Pilot endpoints (pilot mode), keyed by data-line
	// address: the serialized combiner sends, the node's current owner
	// receives.
	ends map[uint64]*ccEnds

	// mine tracks each client's spare node (swapped back each round).
	mine []uint64
}

// ccEnds is one CC-Synch node's Pilot channel over its ret word.
type ccEnds struct {
	tx core.SimSender
	rx core.SimReceiver
}

// NewCCSynch allocates the lock for nClients on machine m.
func NewCCSynch(m *sim.Machine, nClients int, pilot bool, barY isa.Barrier) *CCSynchLock {
	if barY == isa.None && !pilot {
		barY = isa.DMBSt
	}
	l := &CCSynchLock{
		pilot: pilot,
		barY:  barY,
		h:     2*nClients + 1,
		tail:  m.Alloc(1),
		waits: make(map[uint64]uint64),
		cs:    make(map[uint64]CS),
		mine:  make([]uint64, nClients),
	}
	var pool []uint64
	if pilot {
		pool = core.HashPool(0xCC5)
		l.ends = make(map[uint64]*ccEnds)
	}
	alloc := func() uint64 {
		d := m.Alloc(1)
		l.waits[d] = m.Alloc(1)
		if pilot {
			w := core.SimWord{Data: d + 16, Flag: d + 24}
			l.ends[d] = &ccEnds{w.Sender(pool), w.Receiver(pool)}
		}
		return d
	}
	for i := range l.mine {
		l.mine[i] = alloc()
	}
	dummy := alloc()
	m.SetInitial(l.tail, dummy)
	return l
}

// Name implements Lock.
func (l *CCSynchLock) Name() string {
	if l.pilot {
		return "CCSynch-P"
	}
	return "CCSynch"
}

// Exec implements Lock.
func (l *CCSynchLock) Exec(t *sim.Thread, client int, cs CS, arg uint64) uint64 {
	fresh := l.mine[client]
	// Prepare the fresh node (it becomes the new tail dummy).
	t.Store(fresh+0, 0)          // next
	t.Store(l.waits[fresh], 1)   // spin
	t.Barrier(isa.DMBSt)         // dummy readable before linking
	cur := t.Swap(l.tail, fresh) // cur: my request node
	l.mine[client] = cur         // recycle: cur is mine next round
	l.cs[cur] = cs               // the combiner reads this Go-side
	t.Store(cur+8, arg)          // request argument
	t.Barrier(isa.DMBSt)         // request fields before the link
	t.Store(cur+0, fresh)        // link my node to the new dummy

	wait := l.waits[cur]
	if l.pilot {
		rx := &l.ends[cur].rx
		for {
			if v, ok := rx.TryRecv(t); ok {
				return v
			}
			if t.LoadAcquire(wait) == 0 {
				break
			}
			t.Nops(spinPause)
		}
	} else if t.SpinUntil(wait, true, sim.SpinNE, 1, spinPause) == 2 {
		// 2 = served; 0 = the combiner role was handed over.
		t.Barrier(isa.DMBLd)
		return t.Load(cur + 16)
	}
	return l.combineFrom(t, cur)
}

// combineFrom serves requests starting at the thread's own node.
func (l *CCSynchLock) combineFrom(t *sim.Thread, own uint64) uint64 {
	var myRet uint64
	cur := own
	for served := 0; ; served++ {
		next := t.LoadAcquire(cur + 0)
		if next == 0 {
			// cur is the tail dummy: nothing pending; hand it the
			// combiner role so its eventual owner proceeds directly.
			t.Barrier(isa.DMBSt)
			t.Store(l.waits[cur], 0)
			return myRet
		}
		if served >= l.h {
			// Combining bound: wake cur's owner as the next combiner.
			t.Barrier(isa.DMBSt)
			t.Store(l.waits[cur], 0)
			return myRet
		}
		arg := t.Load(cur + 8)
		raw := l.cs[cur](t, arg)
		if cur == own {
			myRet = raw
		} else {
			l.publish(t, cur, raw)
		}
		cur = next
	}
}

// publish delivers a result to a waiting owner.
func (l *CCSynchLock) publish(t *sim.Thread, cur uint64, raw uint64) {
	if l.pilot {
		if l.barY != isa.None {
			t.Barrier(l.barY)
		}
		t.Nops(1)
		l.ends[cur].tx.Send(t, raw)
		return
	}
	t.Store(cur+16, raw)
	if l.barY != isa.None {
		t.Barrier(l.barY) // the Obs-2 barrier after the response RMR
	}
	t.Store(l.waits[cur], 2)
}
