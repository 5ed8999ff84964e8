package core

import "sync/atomic"

// Ring is a single-producer single-consumer ring buffer whose slots
// are Pilot-encoded (§4.4): the store that fills a slot *is* the
// availability signal, so the per-message publication barrier of
// Algorithm 2 (line 5) and the consumer's matching load barrier
// disappear. Only the capacity check keeps a shared counter, and the
// ordering it needs is the cheap load-side one (line 3 of Algorithm 2,
// shown by the paper to be non-critical).
//
// Each slot has its own Pilot word and each half one codec endpoint
// per slot, counting that slot's messages; the producer and consumer
// advance through the slots in lockstep, so a slot is reused only after
// the consumer published a new consCnt — that update is the
// backpressure that makes the per-slot single-slot protocol safe.
type Ring struct {
	size    int
	mask    int
	slots   []Word
	pool    []uint64
	consCnt atomic.Uint64
	_       [56]byte
}

// NewRing returns a Pilot ring with the given power-of-two capacity.
func NewRing(size int, seed uint64) *Ring {
	if size <= 0 || size&(size-1) != 0 {
		panic("core: ring size must be a positive power of two")
	}
	return &Ring{
		size:  size,
		mask:  size - 1,
		slots: make([]Word, size),
		pool:  HashPool(seed),
	}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return r.size }

// RingProducer is the sending half; single goroutine only.
type RingProducer struct {
	r   *Ring
	cnt uint64
	tx  []tx // one endpoint per slot
}

// RingConsumer is the receiving half; single goroutine only.
type RingConsumer struct {
	r   *Ring
	cnt uint64
	rx  []rx // one endpoint per slot
}

// Producer returns the producing half of the ring.
func (r *Ring) Producer() *RingProducer {
	return &RingProducer{r: r, tx: make([]tx, r.size)}
}

// Consumer returns the consuming half of the ring.
func (r *Ring) Consumer() *RingConsumer {
	return &RingConsumer{r: r, rx: make([]rx, r.size)}
}

// TrySend enqueues one payload; it fails when the ring is full.
func (p *RingProducer) TrySend(payload uint64) bool {
	r := p.r
	if p.cnt-r.consCnt.Load() >= uint64(r.size) {
		return false
	}
	i := int(p.cnt) & r.mask
	p.tx[i].send(r.pool, payload, &r.slots[i].data, &r.slots[i].flag)
	p.cnt++
	return true
}

// Send enqueues one payload, spinning while the ring is full.
func (p *RingProducer) Send(payload uint64) {
	var s pacer
	for !p.TrySend(payload) {
		s.miss()
	}
}

// TryRecv dequeues one payload; it fails when the ring is empty. The
// availability check is the slot's Pilot change itself — the ring has
// no producer counter to read, which is the second half of Pilot's win
// (fewer touched cache lines).
func (c *RingConsumer) TryRecv() (uint64, bool) {
	r := c.r
	i := int(c.cnt) & r.mask
	v, ok := c.rx[i].poll(r.pool, &r.slots[i].data, &r.slots[i].flag)
	if ok {
		c.cnt++
		r.consCnt.Store(c.cnt)
	}
	return v, ok
}

// Recv dequeues one payload, spinning while the ring is empty.
func (c *RingConsumer) Recv() uint64 {
	var p pacer
	for {
		if v, ok := c.TryRecv(); ok {
			return v
		}
		p.miss()
	}
}
