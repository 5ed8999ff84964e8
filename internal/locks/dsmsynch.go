package locks

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// DSMSynchLock is a migratory-server delegation lock in the style of
// DSM-Synch (Fatourou & Kallimanis), as used by the paper: threads
// enqueue request nodes onto a swap-based queue; the thread at the
// head becomes the combiner and executes up to H pending critical
// sections before handing the role to the next waiter.
//
// Node layout (two cache lines per node, as real implementations lay
// them out to keep the spin word away from the data):
//
//	data line:  +0 next (queue link, 0 = none), +8 arg,
//	            +16 ret (Pilot-encoded in pilot mode), +24 fbflag
//	state line: +0 state — 1 = owner waits, 2 = completed,
//	            0 = combiner handoff
//
// Completion and handoff share one signal word: were they separate
// (the classic completed+locked pair), their commits could reorder
// under the weak model and a waiter could wrongly promote itself to a
// second combiner. In pilot mode the state line is touched only for
// the rare handoff — that untouched cache line is half of Pilot's win.
//
// In plain mode the combiner stores ret (an RMR into the waiter's
// node), then issues the line-7 barrier, then flips completed/locked —
// the exact Obs-2 pattern. In pilot mode the ret-word change itself
// signals completion (Algorithm 6), and only the rare handoff still
// uses locked.
type DSMSynchLock struct {
	pilot bool
	barX  isa.Barrier // request-consumption ordering (Algorithm 5 line 4)
	barY  isa.Barrier
	h     int // combining bound

	tail   uint64   // swap-based queue tail (own line)
	nodes  []uint64 // data line, 2 nodes per client
	states []uint64 // state line per node
	cs     []CS     // per-node critical sections (combiner reads)

	// Pilot endpoints per node (pilot mode): whichever thread is
	// combining (serialized by the queue) sends, the owning client
	// receives, and waits on the receiver's probes plus a handoff probe
	// of the node's state in its own probe table.
	tx     []core.SimSender
	rx     []core.SimReceiver
	wait   [][3]sim.Probe // per client
	toggle []int          // per client: which of its two nodes to use next
}

// NewDSMSynch allocates the lock for nClients on machine m.
func NewDSMSynch(m *sim.Machine, nClients int, pilot bool, barriers [2]isa.Barrier) *DSMSynchLock {
	barX := barriers[0]
	if barX == isa.None {
		barX = isa.LDAR
	}
	barY := barriers[1]
	if barY == isa.None && !pilot {
		barY = isa.DMBSt
	}
	n := 2 * nClients
	l := &DSMSynchLock{
		pilot:  pilot,
		barX:   barX,
		barY:   barY,
		h:      2*nClients + 1,
		tail:   m.Alloc(1),
		nodes:  make([]uint64, n),
		states: make([]uint64, n),
		cs:     make([]CS, n),
		toggle: make([]int, nClients),
	}
	for i := range l.nodes {
		l.nodes[i] = m.Alloc(1)
		l.states[i] = m.Alloc(1)
	}
	if pilot {
		pool := core.HashPool(0xD53)
		for _, node := range l.nodes {
			w := core.SimWord{Data: node + 16, Flag: node + 24}
			l.tx = append(l.tx, w.Sender(pool))
			l.rx = append(l.rx, w.Receiver(pool))
		}
		l.wait = make([][3]sim.Probe, nClients)
	}
	return l
}

// nodeIndex maps a node address back to its index.
func (l *DSMSynchLock) nodeIndex(addr uint64) int {
	for i, a := range l.nodes {
		if a == addr {
			return i
		}
	}
	panic("locks: unknown node address")
}

// Exec implements Lock.
func (l *DSMSynchLock) Exec(t *sim.Thread, client int, cs CS, arg uint64) uint64 {
	idx := 2*client + l.toggle[client]
	l.toggle[client] ^= 1
	node := l.nodes[idx]
	state := l.states[idx]
	l.cs[idx] = cs

	// Initialize the node and publish it (enqueue).
	t.Store(node+0, 0) // next
	t.Store(state, 1)  // waiting
	t.Store(node+8, arg)
	t.Barrier(isa.DMBSt) // node fields before the link
	pred := t.Swap(l.tail, node)
	if pred != 0 {
		t.Store(pred+0, node)
		// Wait: in pilot mode completion arrives as a ret-word change
		// (the receiver's two probes); locked=0 with completed=0 means
		// "you are the combiner now" (the acquiring third probe).
		if l.pilot {
			w := l.wait[client][:]
			copy(w, l.rx[idx].Probes())
			w[2] = sim.Probe{Addr: state, Cmp: sim.SpinEQ, Val: 0, Acquire: true}
			if i, v := t.SpinAny(w, spinPause); i < 2 {
				return l.rx[idx].Accept(i, v)
			}
			// Handoff: become combiner.
		} else if t.SpinUntil(state, true, sim.SpinNE, 1, spinPause) == 2 {
			// 2 = served; 0 = handoff: become combiner.
			t.Barrier(isa.DMBLd)
			return t.Load(node + 16)
		}
	}
	return l.combine(t, node, idx)
}

// combine runs the combiner role starting at the thread's own node.
func (l *DSMSynchLock) combine(t *sim.Thread, node uint64, ownIdx int) uint64 {
	var myRet uint64
	cur := node
	curIdx := ownIdx
	for served := 0; ; served++ {
		if cur != node {
			// The line-4 barrier: order the link read (which published
			// the request) before consuming its fields.
			l.applyBarX(t)
		}
		arg := t.Load(cur + 8)
		raw := l.cs[curIdx](t, arg)
		next := l.loadLink(t, cur)
		if cur == node {
			myRet = raw
		} else {
			l.publish(t, cur, curIdx, raw)
		}
		if next == 0 {
			// Queue looks empty: try to detach; a racing enqueuer will
			// re-link, so wait for the link if the CAS fails, polling
			// it as loadLink reads it.
			if t.CompareAndSwap(l.tail, cur, 0) {
				return myRet
			}
			next = t.SpinUntil(cur+0, l.barX == isa.LDAR, sim.SpinNE, 0, spinPause)
		}
		if served+1 >= l.h {
			// Hand the combiner role to the next waiter: state=0. The
			// handoff needs its own publication barrier in both modes
			// (rare, so cheap on average).
			t.Barrier(isa.DMBSt)
			t.Store(l.states[l.nodeIndex(next)], 0)
			return myRet
		}
		cur = next
		curIdx = l.nodeIndex(cur)
	}
}

// loadLink reads a node's queue link; with LDAR as the X barrier the
// read itself acquires, otherwise it stays plain and applyBarX orders
// the later field reads.
func (l *DSMSynchLock) loadLink(t *sim.Thread, cur uint64) uint64 {
	if l.barX == isa.LDAR {
		return t.LoadAcquire(cur + 0)
	}
	return t.Load(cur + 0)
}

// applyBarX applies the configured line-4 ordering before the combiner
// consumes a freshly linked request.
func (l *DSMSynchLock) applyBarX(t *sim.Thread) {
	switch l.barX {
	case isa.LDAR, isa.None:
		// LDAR ordered at the load site; None measures removal.
	default:
		t.Barrier(l.barX)
	}
}

// publish delivers a completed request's result to its waiter.
func (l *DSMSynchLock) publish(t *sim.Thread, cur uint64, idx int, raw uint64) {
	if l.pilot {
		// Algorithm 6: the (cheap, post-local-CS) barrier, then the
		// single Pilot store; no barrier follows the RMR.
		if l.barY != isa.None {
			t.Barrier(l.barY)
		}
		t.Nops(2)
		l.tx[idx].Send(t, raw)
		return
	}
	// Plain: ret store (RMR into the waiter's data line), line-7
	// barrier, then the completion signal on the separate state line —
	// a second RMR store that Pilot avoids entirely.
	t.Store(cur+16, raw)
	if l.barY != isa.None {
		t.Barrier(l.barY)
	}
	t.Store(l.states[idx], 2)
}
