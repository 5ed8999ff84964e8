// Package core implements Pilot, the paper's mechanism for removing
// the performance-critical barrier in memory-based communication.
//
// The expensive barrier in a producer-consumer exchange is the one
// strictly following the remote store that fills the shared buffer: it
// orders "write the data" before "set the ready flag" (§4.1, line 5 of
// Algorithm 2). Pilot removes the barrier — and the flag's cache line —
// by piggybacking the flag *onto* the data: the payload is XOR-shuffled
// with a pre-shared hash pool so that consecutive messages almost
// always differ, and the receiver detects availability as "the shared
// word changed". Single-copy atomicity of 64-bit stores guarantees the
// receiver sees flag-and-payload at once, so no ordering is needed. A
// fallback flag handles the corner case where the shuffled payload
// collides with the previous word (Algorithms 3 and 4).
//
// The encoding lives in one codec, tx and rx (Algorithms 3 and 4 for
// one endpoint). Each endpoint counts its own messages, so a word's
// pool index advances once per message sent over that word, and each
// word has its own fallback flag. Every Pilot endpoint binds the codec
// to memory:
//
//   - the library on sync/atomic (Go guarantees 64-bit single-copy
//     atomicity) binds it to pairs of atomic.Uint64s: Word/Sender/
//     Receiver, the batched Batch (one endpoint per slice), the
//     backpressured Ring (one endpoint per slot), the Combiner's
//     responses and Broadcast;
//   - the simulator binds it to a SimWord's two addresses through
//     SimSender/SimReceiver, the simulator's only Pilot endpoints: every
//     simulated Pilot site (the Pilot locks, dedup's RB-P ring, pc's
//     Pilot buffer, the seqlock writer and reader and the MPMC fan-in)
//     sends and polls through them, over addresses the caller places
//     and a hash pool both endpoints share. The endpoints issue only
//     the loads and stores; each caller charges the shuffle's ALU work
//     itself with Nops, so per-site costs stay put.
package core

import (
	"runtime"
	"sync/atomic"
)

// PoolSize is the length of the pre-shared hash pool. Any size works;
// a power of two keeps the modulo cheap.
const PoolSize = 64

// HashPool returns the deterministic pre-shared shuffle pool both
// sides must agree on. The values only need to "look random": they
// decorrelate consecutive payloads so that the shuffled words differ
// with overwhelming probability.
func HashPool(seed uint64) []uint64 {
	pool := make([]uint64, PoolSize)
	x := seed*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	for i := range pool {
		// splitmix64 step: well-distributed, cheap, deterministic.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		pool[i] = z ^ (z >> 31)
	}
	return pool
}

// tx is the codec's sending half (Algorithm 3) for one endpoint: the
// messages it sent, and the data word and fallback flag it last stored.
type tx struct {
	cnt        int
	data, flag uint64
}

// encode shuffles v with the endpoint's next pool entry and returns the
// word to store. toFlag reports a collision: the shuffled payload equals
// the data word already stored, which therefore decodes to v under this
// message's pool entry as it stands, so the receiver only needs a nudge
// that a message arrived and word is the toggled fallback flag.
func (s *tx) encode(pool []uint64, v uint64) (word uint64, toFlag bool) {
	enc := v ^ pool[s.cnt%PoolSize]
	s.cnt++
	if enc == s.data {
		s.flag ^= 1
		return s.flag, true
	}
	s.data = enc
	return enc, false
}

// rx is the codec's receiving half (Algorithm 4) for one endpoint: the
// messages it decoded, and the data word and fallback flag it last saw.
// A receiver polls with seenData(load data) || seenFlag(load flag), so
// it loads the flag only when the data word is unchanged.
type rx struct {
	cnt        int
	data, flag uint64
}

// seenData reports whether d differs from the data word last seen, and
// records it.
func (r *rx) seenData(d uint64) bool {
	if d == r.data {
		return false
	}
	r.data = d
	return true
}

// seenFlag reports whether f differs from the flag last seen, and
// records it.
func (r *rx) seenFlag(f uint64) bool {
	if f == r.flag {
		return false
	}
	r.flag = f
	return true
}

// decode returns the next message: the last seen data word unshuffled
// with the endpoint's next pool entry.
func (r *rx) decode(pool []uint64) uint64 {
	v := r.decodeAt(pool, r.cnt)
	r.cnt++
	return v
}

// decodeAt unshuffles the last seen data word as message n (counted
// from 0) without consuming it, for readers that track the latest
// publication instead of receiving every message.
func (r *rx) decodeAt(pool []uint64, n int) uint64 {
	return r.data ^ pool[n%PoolSize]
}

// send publishes v over a host data word and its flag with one atomic
// store and no barrier.
func (s *tx) send(pool []uint64, v uint64, data, flag *atomic.Uint64) {
	if word, toFlag := s.encode(pool, v); toFlag {
		flag.Store(word)
	} else {
		data.Store(word)
	}
}

// poll polls a host data word and its flag once; it returns the next
// message when one arrived.
func (r *rx) poll(pool []uint64, data, flag *atomic.Uint64) (uint64, bool) {
	if r.seenData(data.Load()) || r.seenFlag(flag.Load()) {
		return r.decode(pool), true
	}
	return 0, false
}

// Word is the shared state of one Pilot channel: the piggybacked
// data word and the rarely-used fallback flag, padded onto separate
// cache lines so the fallback path cannot slow the fast path down.
// The zero value is ready to use with payload history starting at 0.
type Word struct {
	data atomic.Uint64
	_    [56]byte
	flag atomic.Uint64
	_    [56]byte
}

// Sender is the producing side of a Word (Algorithm 3). Not safe for
// concurrent use by multiple goroutines.
type Sender struct {
	w    *Word
	pool []uint64
	tx   tx
}

// Receiver is the consuming side of a Word (Algorithm 4). Not safe
// for concurrent use by multiple goroutines.
type Receiver struct {
	w    *Word
	pool []uint64
	rx   rx
}

// NewPair returns connected sender/receiver halves over a fresh Word.
// Both sides derive the same hash pool from seed.
func NewPair(seed uint64) (*Sender, *Receiver) {
	w := new(Word)
	return NewSender(w, seed), NewReceiver(w, seed)
}

// NewSender wraps an existing Word. The seed must match the receiver's.
func NewSender(w *Word, seed uint64) *Sender {
	return &Sender{w: w, pool: HashPool(seed)}
}

// NewReceiver wraps an existing Word. The seed must match the sender's.
func NewReceiver(w *Word, seed uint64) *Receiver {
	return &Receiver{w: w, pool: HashPool(seed)}
}

// Send publishes one 64-bit payload with a single atomic store and no
// barrier after the data write. The caller must ensure the receiver
// consumed the previous message (single-slot channel semantics; use
// Ring for buffered backpressure).
func (s *Sender) Send(payload uint64) {
	s.tx.send(s.pool, payload, &s.w.data, &s.w.flag)
}

// TryRecv polls for a new message; it returns (payload, true) when one
// arrived (Algorithm 4's loop body, one iteration).
func (r *Receiver) TryRecv() (uint64, bool) {
	return r.rx.poll(r.pool, &r.w.data, &r.w.flag)
}

// Recv spins until a message arrives and returns its payload. The
// spin yields to the Go scheduler periodically so single-core hosts
// make progress.
func (r *Receiver) Recv() uint64 {
	var p pacer
	for {
		if v, ok := r.TryRecv(); ok {
			return v
		}
		p.miss()
	}
}

// pacer paces a spin loop: it yields to the Go scheduler after every
// spinYield failed polls, so single-core hosts make progress.
type pacer int

// spinYield is how many failed polls a spin loop tolerates before
// yielding the processor.
const spinYield = 64

// miss records one failed poll.
func (p *pacer) miss() {
	if *p++; *p%spinYield == 0 {
		runtime.Gosched()
	}
}
