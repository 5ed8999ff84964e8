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
// Two implementations live here:
//
//   - a real one on sync/atomic (Go guarantees 64-bit single-copy
//     atomicity), deliverable as a library: Word/Sender/Receiver, the
//     batched Batch variant, and the backpressured Ring;
//   - a simulator-side one (SimWord/SimSender/SimReceiver) with the
//     same protocol expressed against sim.Thread. It is the simulator's
//     only Pilot encoder and decoder: every simulated Pilot site (the
//     Pilot locks, dedup's RB-P ring, pc's Pilot buffer, the seqlock
//     writer and the MPMC fan-in) sends and polls through it, over
//     addresses the caller places and a hash pool both endpoints
//     share. The endpoints issue only the loads and stores; each
//     caller charges its own shuffle work with Nops, so per-site costs
//     stay put.
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
	w       *Word
	pool    []uint64
	cnt     int
	oldData uint64
	flag    uint64
}

// Receiver is the consuming side of a Word (Algorithm 4). Not safe
// for concurrent use by multiple goroutines.
type Receiver struct {
	w       *Word
	pool    []uint64
	cnt     int
	oldData uint64
	oldFlag uint64
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
	newData := payload ^ s.pool[s.cnt%PoolSize]
	s.cnt++
	if newData == s.oldData {
		// Fallback: the shuffled payload collides with the word already
		// stored. Since oldData ^ pool[cnt] == payload, the shared word
		// decodes to the new payload under this message's pool index as
		// it stands — the receiver only needs a nudge that a message
		// arrived, so toggle the flag instead of rewriting the data.
		s.flag ^= 1
		s.w.flag.Store(s.flag)
		return
	}
	s.w.data.Store(newData)
	s.oldData = newData
}

// TryRecv polls for a new message; it returns (payload, true) when one
// arrived (Algorithm 4's loop body, one iteration).
func (r *Receiver) TryRecv() (uint64, bool) {
	if d := r.w.data.Load(); d != r.oldData {
		r.oldData = d
	} else if f := r.w.flag.Load(); f != r.oldFlag {
		r.oldFlag = f
	} else {
		return 0, false
	}
	v := r.oldData ^ r.pool[r.cnt%PoolSize]
	r.cnt++
	return v, true
}

// Recv spins until a message arrives and returns its payload. The
// spin yields to the Go scheduler periodically so single-core hosts
// make progress.
func (r *Receiver) Recv() uint64 {
	for spins := 0; ; spins++ {
		if v, ok := r.TryRecv(); ok {
			return v
		}
		if spins%spinYield == spinYield-1 {
			runtime.Gosched()
		}
	}
}

// spinYield is how many failed polls a spin loop tolerates before
// yielding the processor.
const spinYield = 64
