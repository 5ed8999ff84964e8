package core

import "sync/atomic"

// Batch applies Pilot to messages longer than 64 bits (§4.5, Figure
// 6c): the message is split into 8-byte slices and Pilot is applied to
// every slice independently, so the whole batch is published without
// any barrier. Each slice is its own codec endpoint with its own
// fallback flag — a slice is "ready" when its word changed or its flag
// toggled — so no ordering among the slice stores is ever assumed
// (under a weak memory model the stores may become visible in any
// order). One message per Send/Recv round; external backpressure
// required, as with Word.
type Batch struct {
	words []atomic.Uint64
	flags []atomic.Uint64
}

// NewBatch returns shared state for n-word messages.
func NewBatch(n int) *Batch {
	if n <= 0 {
		panic("core: batch size must be positive")
	}
	return &Batch{
		words: make([]atomic.Uint64, n),
		flags: make([]atomic.Uint64, n),
	}
}

// Len returns the message length in 64-bit words.
func (b *Batch) Len() int { return len(b.words) }

// BatchSender publishes fixed-length messages over a Batch.
type BatchSender struct {
	b    *Batch
	pool []uint64
	tx   []tx // one endpoint per slice
}

// BatchReceiver consumes messages from a Batch.
type BatchReceiver struct {
	b     *Batch
	pool  []uint64
	rx    []rx // one endpoint per slice
	ready []bool
}

// NewBatchPair returns connected halves over a fresh n-word Batch.
func NewBatchPair(n int, seed uint64) (*BatchSender, *BatchReceiver) {
	b := NewBatch(n)
	return NewBatchSender(b, seed), NewBatchReceiver(b, seed)
}

// NewBatchSender wraps existing shared state; seed must match the
// receiver's.
func NewBatchSender(b *Batch, seed uint64) *BatchSender {
	return &BatchSender{b: b, pool: HashPool(seed), tx: make([]tx, b.Len())}
}

// NewBatchReceiver wraps existing shared state; seed must match the
// sender's.
func NewBatchReceiver(b *Batch, seed uint64) *BatchReceiver {
	return &BatchReceiver{
		b:     b,
		pool:  HashPool(seed),
		rx:    make([]rx, b.Len()),
		ready: make([]bool, b.Len()),
	}
}

// Send publishes msg (len must equal Batch.Len) slice by slice, each
// slice independently Pilot-encoded. Every slice sends once per
// message, so every slice's count is the message count.
func (s *BatchSender) Send(msg []uint64) {
	if len(msg) != len(s.tx) {
		panic("core: message length mismatch")
	}
	for i, payload := range msg {
		s.tx[i].send(s.pool, payload, &s.b.words[i], &s.b.flags[i])
	}
}

// TryRecv polls for a complete new message into out (len must equal
// Batch.Len). Slice readiness is remembered across calls, so partially
// visible messages make progress without re-scanning from scratch.
func (r *BatchReceiver) TryRecv(out []uint64) bool {
	if len(out) != len(r.rx) {
		panic("core: message length mismatch")
	}
	all := true
	for i := range r.rx {
		if !r.ready[i] {
			r.ready[i] = r.rx[i].seenData(r.b.words[i].Load()) || r.rx[i].seenFlag(r.b.flags[i].Load())
			all = all && r.ready[i]
		}
	}
	if !all {
		return false
	}
	for i := range r.rx {
		out[i] = r.rx[i].decode(r.pool)
		r.ready[i] = false
	}
	return true
}

// Recv spins until a complete message arrives.
func (r *BatchReceiver) Recv(out []uint64) {
	var p pacer
	for !r.TryRecv(out) {
		p.miss()
	}
}
