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
	cnt  int
	old  uint64
	flag uint64
}

// SimReceiver is the consuming side (Algorithm 4) for simulated threads.
type SimReceiver struct {
	w    SimWord
	pool []uint64
	cnt  int
	old  uint64
	flag uint64
}

// Sender returns the sending half. pool is the hash pool both halves
// share; each endpoint counts its own messages.
func (w SimWord) Sender(pool []uint64) SimSender {
	return SimSender{w: w, pool: pool}
}

// Receiver returns the receiving half over the sender's pool.
func (w SimWord) Receiver(pool []uint64) SimReceiver {
	return SimReceiver{w: w, pool: pool}
}

// Send publishes v with one plain store and *no barrier* — the whole
// point of Pilot: the shuffled word, or a toggled fallback flag when
// the shuffled word equals the one already stored.
func (s *SimSender) Send(t *sim.Thread, v uint64) {
	enc := v ^ s.pool[s.cnt%PoolSize]
	s.cnt++
	if enc == s.old {
		s.flag ^= 1
		t.Store(s.w.Flag, s.flag)
		return
	}
	t.Store(s.w.Data, enc)
	s.old = enc
}

// TryRecv polls once (one loop iteration of Algorithm 4): it loads the
// data word, and the flag only if the data word is unchanged.
func (r *SimReceiver) TryRecv(t *sim.Thread) (uint64, bool) {
	if d := t.Load(r.w.Data); d != r.old {
		r.old = d
	} else if f := t.Load(r.w.Flag); f != r.flag {
		r.flag = f
	} else {
		return 0, false
	}
	v := r.old ^ r.pool[r.cnt%PoolSize]
	r.cnt++
	return v, true
}

// Recv polls until a message arrives, pausing Nops(pause) after each
// miss.
func (r *SimReceiver) Recv(t *sim.Thread, pause int) uint64 {
	for {
		if v, ok := r.TryRecv(t); ok {
			return v
		}
		t.Nops(pause)
	}
}
