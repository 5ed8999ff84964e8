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
type SimReceiver struct {
	w    SimWord
	pool []uint64
	rx   rx
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
	if word, toFlag := s.tx.encode(s.pool, v); toFlag {
		t.Store(s.w.Flag, word)
	} else {
		t.Store(s.w.Data, word)
	}
}

// Observe polls once without consuming a message: it loads the data
// word, and the flag only if the data word is unchanged, and reports
// whether either changed since the last poll.
func (r *SimReceiver) Observe(t *sim.Thread) bool {
	return r.rx.seenData(t.Load(r.w.Data)) || r.rx.seenFlag(t.Load(r.w.Flag))
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
// miss.
func (r *SimReceiver) Recv(t *sim.Thread, pause int) uint64 {
	for {
		if v, ok := r.TryRecv(t); ok {
			return v
		}
		t.Nops(pause)
	}
}
