package locks

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// FFWDLock is the dedicated-server delegation lock (Roghanchi et al.,
// reimplemented per the paper's Algorithm 5): every client owns a
// request line and a response line; a dedicated server thread
// round-robins over the request lines, executes the critical sections,
// and publishes responses. The server naturally batches every pending
// request it finds in one sweep, sharing the response-publication
// barrier among them — which is why the paper finds FFWD's Pilot gain
// smaller than DSMSynch's.
//
// With pilot enabled, requests and responses are Pilot-encoded
// (Algorithm 6): the argument/return word change is the signal, the
// line-7 barrier that strictly followed the response RMR disappears,
// and per-client fallback flags cover collisions.
type FFWDLock struct {
	nClients int
	pilot    bool
	barX     isa.Barrier // Algorithm 5 line 4
	barY     isa.Barrier // Algorithm 5 line 7

	req     []uint64 // request line per client: flag+0, arg+8
	resp    []uint64 // response flag line per client (plain mode)
	respVal []uint64 // response value line per client: ret+0, fbflag+8
	server  *server

	// Client-local protocol state, indexed by client id: the plain
	// mode's toggled flags, or the Pilot request sender and response
	// receiver.
	cReqFlag  []uint64
	cRespFlag []uint64
	reqTx     []core.SimSender
	respRx    []core.SimReceiver
}

// server is the dedicated FFWD server's state; Run spawns a thread
// running it alongside the clients. Its sweep is one probe table over
// every request line, per client the request flag's change from the
// last flag seen (plain mode) or the Pilot receiver's two probes.
type server struct {
	l        *FFWDLock
	sweep    []sim.Probe
	respFlag []uint64 // last stored response flag (plain mode)
	reqRx    []core.SimReceiver
	respTx   []core.SimSender
	cs       []CS
	args     []uint64
}

// NewFFWD allocates an FFWD lock for nClients on machine m. barriers
// are the X (line 4) and Y (line 7) choices; zero values default to
// LDAR and DMB st. Its clients must run under Run, which spawns the
// dedicated server.
func NewFFWD(m *sim.Machine, nClients int, pilot bool, barriers [2]isa.Barrier) *FFWDLock {
	if barriers[0] == isa.None {
		barriers[0] = isa.LDAR
	}
	if barriers[1] == isa.None && !pilot {
		barriers[1] = isa.DMBSt
	}
	l := &FFWDLock{
		nClients:  nClients,
		pilot:     pilot,
		barX:      barriers[0],
		barY:      barriers[1],
		req:       make([]uint64, nClients),
		resp:      make([]uint64, nClients),
		respVal:   make([]uint64, nClients),
		cReqFlag:  make([]uint64, nClients),
		cRespFlag: make([]uint64, nClients),
	}
	for i := 0; i < nClients; i++ {
		l.req[i] = m.Alloc(1)
		l.resp[i] = m.Alloc(1)
		l.respVal[i] = m.Alloc(1)
	}
	s := &server{
		l:        l,
		respFlag: make([]uint64, nClients),
		cs:       make([]CS, nClients),
		args:     make([]uint64, nClients),
	}
	l.server = s
	if pilot {
		pool := core.HashPool(0xFF17D)
		for i := 0; i < nClients; i++ {
			req := core.SimWord{Data: l.req[i] + 8, Flag: l.req[i]}
			resp := core.SimWord{Data: l.respVal[i], Flag: l.respVal[i] + 8}
			l.reqTx = append(l.reqTx, req.Sender(pool))
			l.respRx = append(l.respRx, resp.Receiver(pool))
			s.reqRx = append(s.reqRx, req.Receiver(pool))
			s.respTx = append(s.respTx, resp.Sender(pool))
			s.sweep = append(s.sweep, s.reqRx[i].Probes()...)
		}
	} else {
		for _, req := range l.req {
			s.sweep = append(s.sweep, sim.Probe{Addr: req, Cmp: sim.SpinNE, Acquire: l.barX == isa.LDAR})
		}
	}
	return l
}

// Exec implements Lock: publish the request, wait for the response.
func (l *FFWDLock) Exec(t *sim.Thread, c int, cs CS, arg uint64) uint64 {
	l.server.cs[c] = cs
	if l.pilot {
		// Pilot request: the encoded argument word itself is the signal.
		t.Nops(2)
		l.reqTx[c].Send(t, arg)
		// Pilot response: spin on the return word / fallback flag —
		// one cache line, no response-flag line at all.
		return l.respRx[c].Recv(t, spinPause)
	}
	// Plain request: write the argument, publish, toggle the flag.
	t.Store(l.req[c]+8, arg)
	t.Barrier(isa.DMBSt)
	l.cReqFlag[c] ^= 1
	t.Store(l.req[c], l.cReqFlag[c])
	// Plain response: spin on the response flag line, then read the
	// value line behind a load barrier (two RMR lines; Pilot needs one).
	t.SpinUntil(l.resp[c], false, sim.SpinNE, l.cRespFlag[c], spinPause)
	l.cRespFlag[c] ^= 1
	t.Barrier(isa.DMBLd)
	return t.Load(l.respVal[c])
}

// run is the dedicated server loop: sweep all clients, serve every
// pending request found, publish all responses with one shared Y
// barrier (plain mode). It exits when *remaining reaches zero (the
// count of client threads still working).
//
// A sweep polls the request lines in client order, and only a sweep
// that found no request pauses. Each SpinSweep polls on from the
// client after the last one found, so the sweep issues the loads of a
// poll loop over every client, and *remaining is checked once per
// sweep, after the pause or the service that ends it.
func (s *server) run(t *sim.Thread, remaining *int) {
	l := s.l
	k := len(s.sweep) / l.nClients // probes per client
	pending := make([]int, 0, l.nClients)
	for *remaining > 0 {
		pending = pending[:0]
		for from, pause := 0, spinPause; from < len(s.sweep); pause = 0 {
			i, v := t.SpinSweep(s.sweep[from:], pause)
			if i < 0 {
				break
			}
			c := (from + i) / k
			s.take(t, c, (from+i)%k, v)
			pending = append(pending, c)
			from = (c + 1) * k
		}
		if len(pending) == 0 {
			continue
		}
		if l.pilot {
			for _, c := range pending {
				raw := s.cs[c](t, s.args[c])
				// Line 8 of Algorithm 6: publish client-local CS
				// modifications; cheap because the CS only touched
				// server-near lines.
				if l.barY != isa.None {
					t.Barrier(l.barY)
				}
				t.Nops(2)
				s.respTx[c].Send(t, raw)
			}
			continue
		}
		// Plain mode: execute and write every response value (the RMR
		// stores), then share one Y barrier across the batch, then
		// toggle all flags.
		for _, c := range pending {
			ret := s.cs[c](t, s.args[c])
			t.Store(l.respVal[c], ret)
		}
		if l.barY != isa.None {
			t.Barrier(l.barY)
		}
		for _, c := range pending {
			s.respFlag[c] ^= 1
			t.Store(l.resp[c], s.respFlag[c])
		}
	}
}

// take consumes client c's request, which the sweep found when its
// probe j read v: the Pilot-encoded argument (or a fallback-flag
// nudge) is decoded, while a plain toggled flag is recorded and the
// argument loaded behind the line-4 barrier.
func (s *server) take(t *sim.Thread, c, j int, v uint64) {
	if s.l.pilot {
		arg := s.reqRx[c].Accept(j, v)
		copy(s.sweep[2*c:], s.reqRx[c].Probes())
		s.applyBarX(t)
		s.args[c] = arg
		return
	}
	s.sweep[c].Val = v
	s.applyBarX(t)
	s.args[c] = t.Load(s.l.req[c] + 8)
}

// applyBarX applies the line-4 request-consumption barrier. LDAR is
// handled at the load site in plain mode; in pilot mode it degrades to
// a DMB ld-equivalent ordering point.
func (s *server) applyBarX(t *sim.Thread) {
	switch s.l.barX {
	case isa.LDAR:
		if s.l.pilot {
			t.Barrier(isa.DMBLd)
		}
	case isa.None:
	default:
		t.Barrier(s.l.barX)
	}
}
