package locks

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// FCLock is a flat-combining lock (Hendler et al., cited by the paper
// as the migratory-server family's ancestor): every client owns a
// publication record; whoever grabs the combiner latch scans the
// records and executes all pending critical sections, so a single
// cache-warm thread does a burst of work while the rest wait locally.
//
// Publication record layout (two lines per client, spin word apart
// from data as in the other delegation locks):
//
//	request line:  +0 req (Pilot-encoded arg or toggled flag), +8 arg
//	response line: +0 ret (Pilot-encoded in pilot mode), +8 fbflag
//
// Plain mode publishes a response with ret-store → Y barrier →
// flag-store; pilot mode stores the encoded ret only (Algorithm 6's
// transformation applied to flat combining).
type FCLock struct {
	pilot bool
	barY  isa.Barrier

	latch uint64 // combiner latch (TAS word)
	req   []uint64
	resp  []uint64
	cs    []CS

	// Client-side protocol state: the toggled request flag, and the
	// plain response flag or the Pilot response receiver.
	clReqFlag []uint64
	clFb      []uint64
	clRx      []core.SimReceiver

	// Combiner-side mirrors (whoever combines reads/writes these; the
	// latch serializes access).
	coSeenReq []uint64
	coFb      []uint64
	coTx      []core.SimSender
}

// NewFC allocates a flat-combining lock for nClients.
func NewFC(m *sim.Machine, nClients int, pilot bool, barY isa.Barrier) *FCLock {
	if barY == isa.None && !pilot {
		barY = isa.DMBSt
	}
	l := &FCLock{
		pilot:     pilot,
		barY:      barY,
		latch:     m.Alloc(1),
		req:       make([]uint64, nClients),
		resp:      make([]uint64, nClients),
		cs:        make([]CS, nClients),
		clReqFlag: make([]uint64, nClients),
		clFb:      make([]uint64, nClients),
		coSeenReq: make([]uint64, nClients),
		coFb:      make([]uint64, nClients),
	}
	for i := 0; i < nClients; i++ {
		l.req[i] = m.Alloc(1)
		l.resp[i] = m.Alloc(1)
	}
	if pilot {
		pool := core.HashPool(0xFC)
		for _, resp := range l.resp {
			w := core.SimWord{Data: resp, Flag: resp + 8}
			l.clRx = append(l.clRx, w.Receiver(pool))
			l.coTx = append(l.coTx, w.Sender(pool))
		}
	}
	return l
}

// Exec implements Lock: publish the request, then either combine or
// wait for a combiner to deliver the response.
func (l *FCLock) Exec(t *sim.Thread, c int, cs CS, arg uint64) uint64 {
	l.cs[c] = cs
	// Publish the request: arg first, then the toggled request word
	// (the request word change is the signal in both modes).
	t.Store(l.req[c]+8, arg)
	t.Barrier(isa.DMBSt)
	l.clReqFlag[c] ^= 1
	t.Store(l.req[c], l.clReqFlag[c])

	for {
		// Response arrived?
		if v, ok := l.tryRecvResponse(t, c); ok {
			return v
		}
		// Try to become the combiner.
		if t.Load(l.latch) == 0 && t.CompareAndSwap(l.latch, 0, 1) {
			l.combine(t)
			t.Barrier(isa.DMBSt)
			t.Store(l.latch, 0)
			if v, ok := l.tryRecvResponse(t, c); ok {
				return v
			}
			// Our own request raced past this combining round; keep
			// waiting (a later combiner will serve it).
		}
		t.Nops(spinPause)
	}
}

// tryRecvResponse polls the client's response line once.
func (l *FCLock) tryRecvResponse(t *sim.Thread, c int) (uint64, bool) {
	if l.pilot {
		return l.clRx[c].TryRecv(t)
	}
	// Plain: the response flag lives at +8; the value at +0.
	if f := t.Load(l.resp[c] + 8); f != l.clFb[c] {
		l.clFb[c] = f
		t.Barrier(isa.DMBLd)
		return t.Load(l.resp[c]), true
	}
	return 0, false
}

// combine scans every publication record and serves the pending ones.
func (l *FCLock) combine(t *sim.Thread) {
	for c := range l.req {
		f := t.LoadAcquire(l.req[c])
		if f == l.coSeenReq[c] {
			continue
		}
		l.coSeenReq[c] = f
		arg := t.Load(l.req[c] + 8)
		raw := l.cs[c](t, arg)
		if l.pilot {
			if l.barY != isa.None {
				t.Barrier(l.barY)
			}
			t.Nops(1)
			l.coTx[c].Send(t, raw)
			continue
		}
		t.Store(l.resp[c], raw)
		if l.barY != isa.None {
			t.Barrier(l.barY) // the Obs-2 barrier after the response RMR
		}
		l.coFb[c] ^= 1
		t.Store(l.resp[c]+8, l.coFb[c])
	}
}
