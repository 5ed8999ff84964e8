package core

// FanIn funnels many producers into one consumer through one Pilot
// ring per producer — the lock-free alternative to a mutex-guarded
// shared queue. Each producer owns its ring (SPSC discipline); the
// consumer polls the rings round-robin, so ordering is per-producer
// FIFO with fair interleaving across producers.
type FanIn struct {
	rings []*Ring
}

// NewFanIn creates a fan-in for n producers with the given per-ring
// capacity (power of two).
func NewFanIn(n, capacity int, seed uint64) *FanIn {
	if n <= 0 {
		panic("core: fan-in needs at least one producer")
	}
	f := &FanIn{rings: make([]*Ring, n)}
	for i := range f.rings {
		f.rings[i] = NewRing(capacity, seed+uint64(i)*97)
	}
	return f
}

// Producer returns producer i's sending half (single goroutine each).
func (f *FanIn) Producer(i int) *RingProducer { return f.rings[i].Producer() }

// FanInConsumer drains all producers; single goroutine only.
type FanInConsumer struct {
	f    *FanIn
	cons []*RingConsumer
	next int
}

// Consumer returns the draining half.
func (f *FanIn) Consumer() *FanInConsumer {
	c := &FanInConsumer{f: f, cons: make([]*RingConsumer, len(f.rings))}
	for i := range c.cons {
		c.cons[i] = f.rings[i].Consumer()
	}
	return c
}

// TryRecv polls each producer's ring once starting after the last
// successful source; it reports the producer index alongside the value.
func (c *FanInConsumer) TryRecv() (v uint64, from int, ok bool) {
	n := len(c.cons)
	for k := 0; k < n; k++ {
		i := (c.next + k) % n
		if val, got := c.cons[i].TryRecv(); got {
			c.next = i + 1
			return val, i, true
		}
	}
	return 0, 0, false
}

// Recv blocks (spinning with scheduler yields) until any producer
// delivers.
func (c *FanInConsumer) Recv() (uint64, int) {
	var p pacer
	for {
		if v, from, ok := c.TryRecv(); ok {
			return v, from
		}
		p.miss()
	}
}
