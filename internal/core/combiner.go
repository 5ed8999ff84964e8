package core

import "sync/atomic"

// Combiner is a real (non-simulated) flat-combining execution lock
// with Pilot-encoded responses: goroutines submit closures; whichever
// submitter grabs the combiner latch executes every pending request.
// The response is delivered as a single Pilot word per client — the
// encoded return value's change is the completion signal, so the
// combiner publishes each result with one atomic store and no ordering
// dance, and the waiter polls one cache line.
//
// Each client slot is single-goroutine: acquire a slot with Register
// and use it from one goroutine at a time.
type Combiner struct {
	latch atomic.Uint32
	_     [60]byte
	slots []combinerSlot
	next  atomic.Uint32
	pool  []uint64
	// The latch holder's view of every slot: the last request it
	// served, and the endpoint that sends the slot's responses.
	seenReq []uint64
	tx      []tx
}

// combinerSlot is one client's publication record, padded so the
// request and response words live on separate cache lines.
type combinerSlot struct {
	req  atomic.Uint64 // request sequence (odd = pending)
	_    [56]byte
	resp atomic.Uint64 // Pilot-encoded response word
	fb   atomic.Uint64 // fallback flag
	_    [48]byte
	fn   func() uint64 // the critical section (combiner reads after req)
}

// Slot is a registered client handle.
type Slot struct {
	c   *Combiner
	idx int
	seq uint64
	rx  rx // receives this slot's responses
}

// NewCombiner returns a combiner lock for up to n clients.
func NewCombiner(n int, seed uint64) *Combiner {
	return &Combiner{
		slots:   make([]combinerSlot, n),
		pool:    HashPool(seed),
		seenReq: make([]uint64, n),
		tx:      make([]tx, n),
	}
}

// Register claims a client slot; it panics when the combiner is full.
func (c *Combiner) Register() *Slot {
	idx := int(c.next.Add(1)) - 1
	if idx >= len(c.slots) {
		panic("core: combiner slots exhausted")
	}
	return &Slot{c: c, idx: idx}
}

// Do runs fn under the combiner lock and returns its result. fn runs
// on some goroutine currently inside Do — possibly another client's —
// so it must not rely on goroutine-local state.
func (s *Slot) Do(fn func() uint64) uint64 {
	c := s.c
	slot := &c.slots[s.idx]
	slot.fn = fn
	s.seq += 2
	slot.req.Store(s.seq | 1) // odd: pending

	var p pacer
	for {
		if v, ok := s.tryRecv(); ok {
			return v
		}
		if c.latch.Load() == 0 && c.latch.CompareAndSwap(0, 1) {
			c.combine()
			c.latch.Store(0)
			if v, ok := s.tryRecv(); ok {
				return v
			}
		}
		p.miss()
	}
}

// tryRecv polls the slot's Pilot response once.
func (s *Slot) tryRecv() (uint64, bool) {
	slot := &s.c.slots[s.idx]
	return s.rx.poll(s.c.pool, &slot.resp, &slot.fb)
}

// combine serves every pending request (latch held).
func (c *Combiner) combine() {
	for i := range c.slots {
		slot := &c.slots[i]
		r := slot.req.Load()
		if r&1 == 0 || r == c.seenReq[i] {
			continue
		}
		c.seenReq[i] = r
		c.tx[i].send(c.pool, slot.fn(), &slot.resp, &slot.fb)
	}
}
