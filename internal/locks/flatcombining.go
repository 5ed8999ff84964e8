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

	// Client-side protocol state: the toggled request flag, the Pilot
	// response receiver, and the client's wait as a probe table: the
	// response probes (the receiver's two, or in plain mode the
	// response flag's change from the last flag seen), then the latch
	// reading free.
	clReqFlag []uint64
	clRx      []core.SimReceiver
	clWait    [][]sim.Probe

	// Combiner-side mirrors (whoever combines reads/writes these; the
	// latch serializes access): the scan's probe table over the
	// request words, each waiting for a change from the last word seen.
	coScan []sim.Probe
	coFb   []uint64
	coTx   []core.SimSender
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
		clWait:    make([][]sim.Probe, nClients),
		coScan:    make([]sim.Probe, nClients),
		coFb:      make([]uint64, nClients),
	}
	var pool []uint64
	if pilot {
		pool = core.HashPool(0xFC)
	}
	for c := range l.req {
		l.req[c] = m.Alloc(1)
		l.resp[c] = m.Alloc(1)
		l.coScan[c] = sim.Probe{Addr: l.req[c], Cmp: sim.SpinNE, Acquire: true}
		if pilot {
			w := core.SimWord{Data: l.resp[c], Flag: l.resp[c] + 8}
			l.clRx = append(l.clRx, w.Receiver(pool))
			l.coTx = append(l.coTx, w.Sender(pool))
			l.clWait[c] = append(l.clWait[c], l.clRx[c].Probes()...)
		} else {
			l.clWait[c] = append(l.clWait[c], sim.Probe{Addr: l.resp[c] + 8, Cmp: sim.SpinNE})
		}
		l.clWait[c] = append(l.clWait[c], sim.Probe{Addr: l.latch, Cmp: sim.SpinEQ, Val: 0})
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

	// Wait until the response arrives or the latch reads free.
	w := l.clWait[c]
	resp := w[:len(w)-1]
	for {
		i, v := t.SpinAny(w, spinPause)
		if i < len(resp) {
			return l.response(t, c, i, v)
		}
		// Try to become the combiner.
		if t.CompareAndSwap(l.latch, 0, 1) {
			l.combine(t)
			t.Barrier(isa.DMBSt)
			t.Store(l.latch, 0)
			if i, v := t.SpinSweep(resp, 0); i >= 0 {
				return l.response(t, c, i, v)
			}
			// Our own request raced past this combining round; keep
			// waiting (a later combiner will serve it).
		}
		t.Nops(spinPause)
	}
}

// response takes client c's response, which its response probe i
// read as v.
func (l *FCLock) response(t *sim.Thread, c, i int, v uint64) uint64 {
	w := l.clWait[c]
	if l.pilot {
		ret := l.clRx[c].Accept(i, v)
		copy(w, l.clRx[c].Probes())
		return ret
	}
	// Plain: the response flag at +8 toggled; the value lives at +0.
	w[0].Val = v
	t.Barrier(isa.DMBLd)
	return t.Load(l.resp[c])
}

// combine scans every publication record and serves the pending ones.
// Each SpinSweep of the scan polls on from the record after the last
// one served.
func (l *FCLock) combine(t *sim.Thread) {
	for from := 0; from < len(l.coScan); {
		i, f := t.SpinSweep(l.coScan[from:], 0)
		if i < 0 {
			return
		}
		c := from + i
		from = c + 1
		l.coScan[c].Val = f
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
