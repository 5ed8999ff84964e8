package pc

import (
	"fmt"
	"testing"

	"armbar/internal/core"
	"armbar/internal/platform"
	"armbar/internal/sim"
)

type ringKind struct {
	name string
	new  func(m *sim.Machine, batch int) *Ring
}

// ringKinds is a Classic ring under every Figure-6a combo, then a Pilot
// ring, each with bufSize slots and pc.Run's pause and shuffle.
func ringKinds() []ringKind {
	var ks []ringKind
	for _, c := range Figure6aCombos() {
		c := c
		ks = append(ks, ringKind{"classic/" + c.Name(), func(m *sim.Machine, batch int) *Ring {
			return NewClassicRing(m, c, bufSize, batch, 1)
		}})
	}
	return append(ks, ringKind{"pilot", func(m *sim.Machine, batch int) *Ring {
		return NewPilotRing(m, core.HashPool(3), bufSize, batch, 1, 1)
	}})
}

// runRing runs m and fails the test if the simulation aborts, as the
// watchdog does when a wait can never be satisfied.
func runRing(t *testing.T, m *sim.Machine) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("simulation aborted: %v", p)
		}
	}()
	m.Run()
}

// TestRingDeliversEveryMessageOnceInOrder drives a Ring directly. The
// consumer alternates TryWait and Wait and now and then pauses long
// enough for the ring to fill, so its polls find the ring empty, one
// message or several. With a Pilot ring, every TryWait that finds a
// message decodes the first slice, which the next Get must return.
func TestRingDeliversEveryMessageOnceInOrder(t *testing.T) {
	const msgs = 60
	p := platform.Kunpeng916()
	prod, cons := p.Sys.NodeCores(0)[0], p.Sys.NodeCores(1)[0]
	for _, k := range ringKinds() {
		for _, batch := range []int{1, 3, 9} {
			for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
				k, batch, mode := k, batch, mode
				t.Run(fmt.Sprintf("%s/batch%d/%v", k.name, batch, mode), func(t *testing.T) {
					m := sim.New(sim.Config{Plat: p, Mode: mode, Seed: 5, MaxTime: 2e6})
					r := k.new(m, batch)
					m.Spawn(prod, func(th *sim.Thread) {
						for i := 0; i < msgs; i++ {
							r.Reserve(th)
							th.Nops(i * 37 % 300)
							for w := 0; w < batch; w++ {
								r.Put(th, w, payload(i, w))
							}
							r.Publish(th)
						}
					})
					var got [][]uint64
					tryHits, tryMisses, left := 0, 0, -1
					m.Spawn(cons, func(th *sim.Thread) {
						for poll := 0; len(got) < msgs; poll++ {
							var n int
							if poll%2 == 0 {
								if n = r.TryWait(th); n == 0 {
									tryMisses++
									th.Nops(50)
									continue
								}
								tryHits++
							} else {
								n = r.Wait(th)
							}
							for ; n > 0; n-- {
								msg := make([]uint64, batch)
								for w := range msg {
									msg[w] = r.Get(th, w)
								}
								got = append(got, msg)
							}
							r.Release(th)
							if len(got)%7 == 3 {
								th.Nops(8000)
							}
						}
						left = r.TryWait(th)
					})
					runRing(t, m)
					if len(got) != msgs {
						t.Fatalf("read %d messages, want %d", len(got), msgs)
					}
					for i, msg := range got {
						for w, v := range msg {
							if v != payload(i, w) {
								t.Fatalf("message %d slice %d = %#x, want %#x", i, w, v, payload(i, w))
							}
						}
					}
					if left != 0 {
						t.Errorf("TryWait after the last message found %d more", left)
					}
					if tryHits == 0 || tryMisses == 0 {
						t.Errorf("TryWait found a message %d times and nothing %d times; want both", tryHits, tryMisses)
					}
				})
			}
		}
	}
}

// TestRingReserveWaitsOnlyForAFullRing pins Reserve's threshold. Before
// the consumer has released anything, the first bufSize reservations
// poll the consumer counter once each (the threshold is 0 there, not an
// underflowed sent-slots+1), and the next one waits until the consumer
// releases a slot.
func TestRingReserveWaitsOnlyForAFullRing(t *testing.T) {
	p := platform.Kunpeng916()
	for _, k := range ringKinds() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			m := sim.New(sim.Config{Plat: p, Mode: sim.WMM, Seed: 5, MaxTime: 2e6})
			r := k.new(m, 1)
			var loads []uint64 // the producer's loads after each reservation
			m.Spawn(0, func(th *sim.Thread) {
				for i := 0; i <= bufSize; i++ {
					r.Reserve(th)
					loads = append(loads, th.Stats().Loads)
					r.Put(th, 0, payload(i, 0))
					r.Publish(th)
				}
			})
			m.Spawn(4, func(th *sim.Thread) {
				th.Nops(20000)
				r.Wait(th)
				r.Get(th, 0)
				r.Release(th)
			})
			runRing(t, m)
			for i := 0; i < bufSize; i++ {
				if loads[i] != uint64(i+1) {
					t.Fatalf("reservation %d: %d loads in all, want %d (one poll each)", i, loads[i], i+1)
				}
			}
			if loads[bufSize] <= bufSize+1 {
				t.Errorf("reservation %d of a full ring polled once; it must wait for a release", bufSize)
			}
		})
	}
}

// TestRingWaitIgnoresAnOlderProducerCount has a Classic consumer read
// two messages, then the producer store the count 1 before it publishes
// message 3, as if a poll read an older count than one before it. Every
// wait must report only counts of at least 1, and every message must
// arrive once, in order.
func TestRingWaitIgnoresAnOlderProducerCount(t *testing.T) {
	p := platform.Kunpeng916()
	prod, cons := p.Sys.NodeCores(0)[0], p.Sys.NodeCores(1)[0]
	for _, c := range Figure6aCombos() {
		for _, try := range []bool{false, true} {
			name := c.Name() + "/Wait"
			if try {
				name = c.Name() + "/TryWait"
			}
			t.Run(name, func(t *testing.T) {
				m := sim.New(sim.Config{Plat: p, Mode: sim.WMM, Seed: 5, MaxTime: 2e6})
				r := NewClassicRing(m, c, bufSize, 1, 1)
				send := func(th *sim.Thread, i int) {
					r.Reserve(th)
					r.Put(th, 0, payload(i, 0))
					r.Publish(th)
				}
				m.Spawn(prod, func(th *sim.Thread) {
					send(th, 0)
					send(th, 1)
					th.SpinUntil(r.consCnt, false, sim.SpinGE, 2, 1)
					th.Store(r.prodCnt, 1)
					th.Nops(5000)
					send(th, 2)
				})
				var got []uint64
				var counts []int
				m.Spawn(cons, func(th *sim.Thread) {
					// A bounded loop: a wait that keeps reporting the
					// older count must fail the test, not hang it.
					for poll := 0; len(got) < 3 && poll < 1000; poll++ {
						var n int
						if try {
							if n = r.TryWait(th); n == 0 {
								th.Nops(20)
								continue
							}
						} else {
							n = r.Wait(th)
						}
						counts = append(counts, n)
						for ; n > 0; n-- {
							got = append(got, r.Get(th, 0))
						}
						r.Release(th)
					}
				})
				runRing(t, m)
				for i, n := range counts {
					if n < 1 {
						t.Fatalf("wait %d of %d reported %d; want only counts of at least 1", i, len(counts), n)
					}
				}
				if len(got) != 3 {
					t.Fatalf("read %d messages, want 3", len(got))
				}
				for i, v := range got {
					if v != payload(i, 0) {
						t.Fatalf("message %d = %#x, want %#x", i, v, payload(i, 0))
					}
				}
			})
		}
	}
}
