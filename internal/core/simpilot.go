package core

import "armbar/internal/sim"

// SimWord is one Pilot channel's shared state inside the simulator: the
// addresses of the piggybacked data word and of the fallback flag. The
// caller places them; NewSimWord puts both on one fresh line, which is
// part of Pilot's cache-line reduction (the receiver polls a single
// line instead of a data line plus a flag line).
type SimWord struct{ Data, Flag uint64 }

// NewSimWord allocates a SimWord on one fresh cache line of m.
func NewSimWord(m *sim.Machine) SimWord {
	line := m.Alloc(1)
	return SimWord{Data: line, Flag: line + 8}
}

// SimSender is the producing side (Algorithm 3) for simulated threads.
// Like every simulated Pilot endpoint it charges no ALU work: the caller
// issues the shuffle's nops itself.
type SimSender struct {
	w    SimWord
	pool []uint64
	tx   tx
}

// SimReceiver is the consuming side (Algorithm 4) for simulated threads.
// Its poll is two spin-wait probes, kept in step with the codec: a
// change of the data word, then of the fallback flag, from the values
// last seen. Staging them here lets every wait and poll run as one
// sim.Thread.SpinAny or SpinSweep op that allocates nothing.
type SimReceiver struct {
	w    SimWord
	pool []uint64
	rx   rx
	poll [2]sim.Probe
}

// Sender returns the sending half. pool is the hash pool both halves
// share; each endpoint counts its own messages.
func (w SimWord) Sender(pool []uint64) SimSender {
	return SimSender{w: w, pool: pool}
}

// Receiver returns the receiving half over the sender's pool.
func (w SimWord) Receiver(pool []uint64) SimReceiver {
	return SimReceiver{w: w, pool: pool, poll: [2]sim.Probe{
		{Addr: w.Data, Cmp: sim.SpinNE},
		{Addr: w.Flag, Cmp: sim.SpinNE},
	}}
}

// Send publishes v with one plain store and *no barrier* — the whole
// point of Pilot: the shuffled word, or a toggled fallback flag when
// the shuffled word equals the one already stored.
func (s *SimSender) Send(t *sim.Thread, v uint64) {
	if word, toFlag := s.tx.encode(s.pool, v); toFlag {
		t.Store(s.w.Flag, word)
	} else {
		t.Store(s.w.Data, word)
	}
}

// Probes returns the receiver's poll as spin-wait probes, for a
// caller that waits on this receiver and other words in one op: probe
// 0 holds once the data word changed and probe 1 once the fallback
// flag did. The slice aliases the receiver, so a caller that keeps a
// copy in its own probe table copies it again after each Accept.
func (r *SimReceiver) Probes() []sim.Probe { return r.poll[:] }

// Accept takes the message that probe i of Probes saw change to v: it
// records v as the data word (i == 0) or the fallback flag last seen
// and decodes the next message.
func (r *SimReceiver) Accept(i int, v uint64) uint64 {
	r.seen(i, v)
	return r.rx.decode(r.pool)
}

// seen records the new value v that probe i saw.
func (r *SimReceiver) seen(i int, v uint64) {
	if i == 0 {
		r.rx.data = v
	} else {
		r.rx.flag = v
	}
	r.poll[i].Val = v
}

// Observe polls once without consuming a message: it loads the data
// word, and the flag only if the data word is unchanged, and reports
// whether either changed since the last poll.
func (r *SimReceiver) Observe(t *sim.Thread) bool {
	i, v := t.SpinSweep(r.poll[:], 0)
	if i < 0 {
		return false
	}
	r.seen(i, v)
	return true
}

// DecodeAt decodes the last observed data word as message n (counted
// from 0), for readers that track the latest publication instead of
// receiving every message.
func (r *SimReceiver) DecodeAt(n int) uint64 {
	return r.rx.decodeAt(r.pool, n)
}

// TryRecv polls once (one loop iteration of Algorithm 4) and decodes
// the next message when one arrived.
func (r *SimReceiver) TryRecv(t *sim.Thread) (uint64, bool) {
	if r.Observe(t) {
		return r.rx.decode(r.pool), true
	}
	return 0, false
}

// Recv polls until a message arrives, pausing Nops(pause) after each
// miss: Algorithm 4's loop as one SpinAny op.
func (r *SimReceiver) Recv(t *sim.Thread, pause int) uint64 {
	return r.Accept(t.SpinAny(r.poll[:], pause))
}
