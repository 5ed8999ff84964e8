package core

import (
	"fmt"
	"testing"

	"armbar/internal/platform"
	"armbar/internal/sim"
)

func TestSimPilotRoundTrip(t *testing.T) {
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 3})
	w := NewSimWord(m)
	pool := HashPool(5)
	ackLine := m.Alloc(1)
	const n = 300
	var got []uint64
	m.Spawn(0, func(th *sim.Thread) {
		s := w.Sender(pool)
		for i := uint64(1); i <= n; i++ {
			s.Send(th, i*7)
			// Backpressure: wait for the consumer's ack before reusing
			// the single-slot channel.
			for th.Load(ackLine) != i {
			}
		}
	})
	m.Spawn(32, func(th *sim.Thread) { // cross NUMA node
		r := w.Receiver(pool)
		for i := uint64(1); i <= n; i++ {
			got = append(got, r.Recv(th, 0))
			th.Store(ackLine, i)
		}
	})
	m.Run()
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if want := uint64(i+1) * 7; v != want {
			t.Fatalf("message %d: got %d, want %d — Pilot must survive WMM reordering", i, v, want)
		}
	}
}

func TestSimPilotNoBarrierStalls(t *testing.T) {
	// Pilot's send path must never pay a barrier stall: it issues plain
	// stores only.
	m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: sim.WMM, Seed: 9})
	w := NewSimWord(m)
	pool := HashPool(5)
	ackLine := m.Alloc(1)
	const n = 100
	var senderStats sim.ThreadStats
	m.Spawn(0, func(th *sim.Thread) {
		s := w.Sender(pool)
		for i := uint64(1); i <= n; i++ {
			s.Send(th, i)
			for th.Load(ackLine) != i {
			}
		}
		senderStats = th.Stats()
	})
	m.Spawn(4, func(th *sim.Thread) {
		r := w.Receiver(pool)
		for i := uint64(1); i <= n; i++ {
			r.Recv(th, 0)
			th.Store(ackLine, i)
		}
	})
	m.Run()
	if senderStats.BarrierStalled != 0 {
		t.Fatalf("Pilot sender stalled %v cycles in barriers; want 0", senderStats.BarrierStalled)
	}
	if m.Stats().MemTxns != 0 || m.Stats().SyncTxns != 0 {
		t.Fatalf("Pilot must not issue bus barrier transactions: %+v", m.Stats())
	}
}

// TestSimPilotFallback drives the collision fallback through the
// simulator. Most payloads are crafted so that their shuffled word
// equals the word already stored (v_k = enc_{k-1} ^ pool[k%PoolSize]),
// including the first message against the zeroed word and runs of
// consecutive collisions that toggle the flag back; ordinary payloads
// sit between them. Every message must arrive once, in order and
// decoded, and the sender must issue exactly one store per message.
// Two readers take the messages: Recv, and the seqlock reader's
// Observe followed by DecodeAt of the message's index.
func TestSimPilotFallback(t *testing.T) {
	pool := HashPool(11)
	const n = 60
	payloads := make([]uint64, n)
	var enc uint64 // the shuffled word in memory before message k
	collisions := 0
	for k := range payloads {
		h := pool[k%PoolSize]
		if k%5 == 1 || k%5 == 4 {
			payloads[k] = uint64(k)*0x9E3779B97F4A7C15 + 1
		} else {
			payloads[k] = enc ^ h
		}
		if e := payloads[k] ^ h; e == enc {
			collisions++
		} else {
			enc = e
		}
	}
	if collisions != 3*n/5 {
		t.Fatalf("crafted %d collisions, want %d", collisions, 3*n/5)
	}

	layouts := []struct {
		name string
		word func(m *sim.Machine) SimWord
	}{
		{"one-line", NewSimWord},
		{"flag-apart", func(m *sim.Machine) SimWord {
			return SimWord{Data: m.Alloc(1), Flag: m.Alloc(1)}
		}},
	}
	readers := []struct {
		name string // subtest name suffix
		read func(th *sim.Thread, r *SimReceiver, k int) uint64
	}{
		{"", func(th *sim.Thread, r *SimReceiver, _ int) uint64 { return r.Recv(th, 1) }},
		{"/observe", func(th *sim.Thread, r *SimReceiver, k int) uint64 {
			for !r.Observe(th) {
				th.Nops(1)
			}
			return r.DecodeAt(k)
		}},
	}
	for _, mode := range []sim.Mode{sim.WMM, sim.TSO} {
		for _, lay := range layouts {
			for _, rd := range readers {
				t.Run(fmt.Sprintf("%s/%s%s", lay.name, mode, rd.name), func(t *testing.T) {
					m := sim.New(sim.Config{Plat: platform.Kunpeng916(), Mode: mode, Seed: 4, MaxTime: 2e6})
					w := lay.word(m)
					ack := m.Alloc(1)
					var got []uint64
					var sender sim.ThreadStats
					extra := false
					m.Spawn(0, func(th *sim.Thread) {
						s := w.Sender(pool)
						for k, v := range payloads {
							s.Send(th, v)
							th.SpinUntil(ack, false, sim.SpinEQ, uint64(k+1), 1)
						}
						sender = th.Stats()
					})
					m.Spawn(32, func(th *sim.Thread) {
						r := w.Receiver(pool)
						for k := range payloads {
							got = append(got, rd.read(th, &r, k))
							th.Store(ack, uint64(k+1))
						}
						extra = r.Observe(th)
					})
					if err := runGuarded(m); err != nil {
						t.Fatalf("after %d of %d messages: %v", len(got), n, err)
					}
					for k, v := range got {
						if v != payloads[k] {
							t.Fatalf("message %d decoded to %#x, want %#x", k, v, payloads[k])
						}
					}
					if extra {
						t.Fatal("a message was received twice")
					}
					if sender.Stores != n {
						t.Fatalf("sender issued %d stores for %d messages, want one each", sender.Stores, n)
					}
				})
			}
		}
	}
}

// runGuarded runs m and returns its watchdog panic, if any, as an
// error.
func runGuarded(m *sim.Machine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	m.Run()
	return nil
}
