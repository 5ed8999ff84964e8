package pc

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// Ring is the simulator's single-producer single-consumer ring of
// Algorithm 2: slots slots of batch 8-byte slices, each slot on cache
// lines of its own. A Classic ring publishes through a producer counter
// ordered by its Combo's barriers; a Pilot ring (§4.4) sends every
// slice as a core.SimWord, so the fill is its own publication, and
// keeps only the consumer counter.
//
// The producer calls Reserve, Put for each slice, then Publish. The
// consumer calls Wait or TryWait, Gets every slice of as many messages
// as that reported, in order, and Releases their slots. The ring holds
// both threads' counts, which is safe because the simulator runs one
// thread at a time.
type Ring struct {
	combo                 Combo // Classic only
	slots                 uint64
	batch, lines          int // slices per message, cache lines per slot
	pause, shuffle        int // nops after an empty poll; Pilot nops per slice sent or read
	prodCnt, consCnt, buf uint64
	tx                    []core.SimSender // Pilot only; slice w of slot s is endpoint s*batch+w
	rx                    []core.SimReceiver
	sent, recvd           uint64 // messages published, messages read
	held                  uint64 // Pilot: the next message's first slice, decoded by the wait
}

// NewClassicRing allocates Algorithm 2 with c's barriers on m: the
// producer counter, the consumer counter, then the slots. A wait pauses
// pause nops after each poll that finds nothing.
func NewClassicRing(m *sim.Machine, c Combo, slots, batch, pause int) *Ring {
	prodCnt := m.Alloc(1)
	r := newRing(m, slots, batch, pause)
	r.combo, r.prodCnt = c, prodCnt
	return r
}

// NewPilotRing allocates a Pilot ring on m: the consumer counter, the
// slices' data words, then their fallback flags, every word encoded
// with pool. Each slice sent or read also costs shuffle nops, the
// encoding's ALU work.
func NewPilotRing(m *sim.Machine, pool []uint64, slots, batch, pause, shuffle int) *Ring {
	r := newRing(m, slots, batch, pause)
	flags := m.Alloc(slots * r.lines)
	for e := 0; e < slots*batch; e++ {
		off := r.offset(uint64(e/batch), e%batch)
		word := core.SimWord{Data: r.buf + off, Flag: flags + off}
		r.tx = append(r.tx, word.Sender(pool))
		r.rx = append(r.rx, word.Receiver(pool))
	}
	r.shuffle = shuffle
	return r
}

func newRing(m *sim.Machine, slots, batch, pause int) *Ring {
	r := &Ring{slots: uint64(slots), batch: batch, lines: (batch + 7) / 8, pause: pause}
	r.consCnt = m.Alloc(1)
	r.buf = m.Alloc(slots * r.lines)
	return r
}

// offset locates slice w of message n's slot relative to the first slot.
func (r *Ring) offset(n uint64, w int) uint64 {
	return n%r.slots*uint64(r.lines)<<6 + uint64(w)*8
}

// endpoint returns the Pilot endpoint index of slice w of message n.
func (r *Ring) endpoint(n uint64, w int) int { return int(n%r.slots)*r.batch + w }

// Reserve waits until the next message's slot is free (lines 1-2) and
// orders that check before the fill (line 3): a Pilot ring and an LDAR
// Combo poll with load-acquires, any other Combo issues its Avail
// barrier after the wait.
func (r *Ring) Reserve(t *sim.Thread) {
	var free uint64 // the consumer count that frees the slot: 0 until the ring wraps
	if r.sent >= r.slots {
		free = r.sent - r.slots + 1
	}
	acquire := r.tx != nil || r.combo.Avail == isa.LDAR
	t.SpinUntil(r.consCnt, acquire, sim.SpinGE, free, r.pause)
	if !acquire {
		t.Barrier(r.combo.Avail)
	}
}

// Put fills slice w of the reserved message with v (line 4).
func (r *Ring) Put(t *sim.Thread, w int, v uint64) {
	if r.tx == nil {
		t.Store(r.buf+r.offset(r.sent, w), v)
		return
	}
	t.Nops(r.shuffle)
	r.tx[r.endpoint(r.sent, w)].Send(t, v)
}

// Publish makes the filled message visible (line 5): a Classic ring
// bumps the producer counter after its Publish barrier, or with a
// store-release for STLR; a Pilot fill was its own publication.
func (r *Ring) Publish(t *sim.Thread) {
	r.sent++
	switch {
	case r.tx != nil:
	case r.combo.Publish == isa.STLR:
		t.StoreRelease(r.prodCnt, r.sent)
	default:
		t.Barrier(r.combo.Publish)
		t.Store(r.prodCnt, r.sent)
	}
}

// Wait blocks until a poll shows a message the consumer has not read
// and returns how many, from the next one on, it may read: every one
// the polled producer counter covers (Classic), or the one whose first
// slice arrived (Pilot). A Classic poll that reads a producer count no
// higher than the messages already read, even an older one, shows
// nothing.
func (r *Ring) Wait(t *sim.Thread) int {
	if r.rx != nil {
		return r.hold(t, r.rx[r.endpoint(r.recvd, 0)].Recv(t, r.pause))
	}
	return r.arrived(t, t.SpinUntil(r.prodCnt, false, sim.SpinGE, r.recvd+1, r.pause))
}

// TryWait is one poll of Wait; it returns 0 when the poll shows nothing.
func (r *Ring) TryWait(t *sim.Thread) int {
	if r.rx != nil {
		if v, ok := r.rx[r.endpoint(r.recvd, 0)].TryRecv(t); ok {
			return r.hold(t, v)
		}
		return 0
	}
	if avail := t.Load(r.prodCnt); avail > r.recvd {
		return r.arrived(t, avail)
	}
	return 0
}

// arrived orders the slot reads after the counter poll that read avail
// with the consumer's DMB ld, which a Combo without a publication
// barrier omits, as Pilot does.
func (r *Ring) arrived(t *sim.Thread, avail uint64) int {
	if r.combo.Publish != isa.None {
		t.Barrier(isa.DMBLd)
	}
	return int(avail - r.recvd)
}

// hold keeps the first slice a Pilot wait decoded for Get, after its
// unshuffle.
func (r *Ring) hold(t *sim.Thread, v uint64) int {
	t.Nops(r.shuffle)
	r.held = v
	return 1
}

// Get returns slice w of the next unread message; reading its last
// slice moves on to the next message.
func (r *Ring) Get(t *sim.Thread, w int) uint64 {
	v := r.held
	switch {
	case r.rx == nil:
		v = t.Load(r.buf + r.offset(r.recvd, w))
	case w > 0:
		v = r.rx[r.endpoint(r.recvd, w)].Recv(t, r.pause)
		t.Nops(r.shuffle)
	}
	if w == r.batch-1 {
		r.recvd++
	}
	return v
}

// Release hands the slots of every message read back to the producer.
func (r *Ring) Release(t *sim.Thread) { t.Store(r.consCnt, r.recvd) }
