package core

import "sync/atomic"

// Broadcast is the single-writer, many-reader face of Pilot: a
// published 64-bit value whose updates readers detect as "the word
// changed", with the usual shuffle + fallback so identical consecutive
// publications are still observed. Unlike Word, readers do not consume
// messages — each reader independently tracks the last state it saw,
// so any number of readers can watch one writer (a config knob, an
// epoch counter, a published pointer index, ...).
//
// The writer must not publish faster than readers poll if every update
// matters; readers that poll slower simply observe the latest state
// (reads never block the writer).
type Broadcast struct {
	w    Word
	seed uint64
	// gen counts publications; readers use it to resynchronize their
	// pool index after missing updates.
	gen atomic.Uint64
}

// NewBroadcast returns a broadcast cell publishing from seed's pool.
func NewBroadcast(seed uint64) *Broadcast {
	return &Broadcast{seed: seed}
}

// BroadcastWriter is the publishing half; single goroutine only.
type BroadcastWriter struct {
	b    *Broadcast
	pool []uint64
	tx   tx
}

// BroadcastReader is one subscriber; single goroutine per reader.
type BroadcastReader struct {
	b       *Broadcast
	pool    []uint64
	rx      rx // the words of the last snapshot
	lastGen uint64
	val     uint64
	has     bool
}

// Writer returns the publishing half.
func (b *Broadcast) Writer() *BroadcastWriter {
	return &BroadcastWriter{b: b, pool: HashPool(b.seed)}
}

// Reader returns a new independent subscriber.
func (b *Broadcast) Reader() *BroadcastReader {
	return &BroadcastReader{b: b, pool: HashPool(b.seed)}
}

// Publish makes v the current value with a single data store (plus a
// generation bump that readers use only to pick the right decode key).
func (w *BroadcastWriter) Publish(v uint64) {
	// The generation is the writer's message count once v is sent. It
	// is bumped first; readers read it after seeing the word change
	// (gen is monotonic, so a racing reader at worst re-reads).
	w.b.gen.Store(uint64(w.tx.cnt) + 1)
	w.tx.send(w.pool, v, &w.b.w.data, &w.b.w.flag)
}

// Poll returns the latest published value and whether any value has
// been published yet. It never blocks. The fast path touches only the
// Pilot word's cache line; the generation counter is consulted only
// when a change is detected, to pick the decode key (and to catch up
// after missing intermediate publications).
func (r *BroadcastReader) Poll() (uint64, bool) {
	if !r.rx.seenData(r.b.w.data.Load()) && !r.rx.seenFlag(r.b.w.flag.Load()) {
		return r.val, r.has
	}
	// Something changed: take a generation-stable snapshot to decode.
	gen := r.b.gen.Load()
	for {
		r.rx.data = r.b.w.data.Load()
		r.rx.flag = r.b.w.flag.Load()
		again := r.b.gen.Load()
		if again == gen && gen > 0 {
			r.val = r.rx.decodeAt(r.pool, int(gen-1))
			r.lastGen = gen
			r.has = true
			return r.val, true
		}
		gen = again
	}
}

// Wait blocks (spinning with scheduler yields) until the generation
// advances past the last value this reader saw, then returns it.
func (r *BroadcastReader) Wait() uint64 {
	last := r.lastGen
	var p pacer
	for {
		if v, ok := r.Poll(); ok && r.lastGen != last {
			return v
		}
		p.miss()
	}
}
