package core

import (
	"sync/atomic"
	"testing"
)

// fallbackChan is one library channel under TestLibraryFallbackCollision.
type fallbackChan struct {
	pool []uint64
	// word returns the data word and flag that carry message k, and
	// how many messages that word carried before it.
	word func(k int) (data, flag *atomic.Uint64, cnt int)
	// send publishes v as message k; recv polls once and returns what
	// arrived, if anything.
	send func(k int, v uint64)
	recv func() (uint64, bool)
}

// TestLibraryFallbackCollision drives the collision fallback through
// every library binding of the codec. Three messages in four are
// crafted so that their shuffled word equals the data word already
// stored, v = data ^ pool[cnt%PoolSize] with cnt the carrying word's own
// message count: the first message against the zeroed word, and runs
// of consecutive collisions that toggle the flag back. Each such
// message must move the flag and leave the data word as it was, and
// every message must arrive once, decoded.
func TestLibraryFallbackCollision(t *testing.T) {
	const n = 48
	cases := []struct {
		name string
		make func() fallbackChan
	}{
		{"Word", func() fallbackChan {
			w := new(Word)
			s, r := NewSender(w, 3), NewReceiver(w, 3)
			return fallbackChan{
				pool: HashPool(3),
				word: func(k int) (*atomic.Uint64, *atomic.Uint64, int) { return &w.data, &w.flag, k },
				send: func(_ int, v uint64) { s.Send(v) },
				recv: r.TryRecv,
			}
		}},
		{"Batch", func() fallbackChan {
			// The crafted payload rides on slice k%3; the other slices
			// carry ordinary payloads. Every slice sends once per
			// message, so each slice's count is the message count.
			const slices = 3
			b := NewBatch(slices)
			s, r := NewBatchSender(b, 5), NewBatchReceiver(b, 5)
			msg, out := make([]uint64, slices), make([]uint64, slices)
			cur := 0
			return fallbackChan{
				pool: HashPool(5),
				word: func(k int) (*atomic.Uint64, *atomic.Uint64, int) {
					return &b.words[k%slices], &b.flags[k%slices], k
				},
				send: func(k int, v uint64) {
					for j := range msg {
						msg[j] = uint64(k*slices+j)*0x9E3779B97F4A7C15 + 1
					}
					cur = k % slices
					msg[cur] = v
					s.Send(msg)
				},
				recv: func() (uint64, bool) {
					if !r.TryRecv(out) {
						return 0, false
					}
					for j := range out {
						if j != cur && out[j] != msg[j] {
							t.Errorf("slice %d decoded to %#x, want %#x", j, out[j], msg[j])
						}
					}
					return out[cur], true
				},
			}
		}},
		{"Ring", func() fallbackChan {
			// Four slots: from message 4 on, every message reuses a
			// slot, whose own count is k/4.
			ring := NewRing(4, 7)
			p, c := ring.Producer(), ring.Consumer()
			return fallbackChan{
				pool: HashPool(7),
				word: func(k int) (*atomic.Uint64, *atomic.Uint64, int) {
					return &ring.slots[k%4].data, &ring.slots[k%4].flag, k / 4
				},
				send: func(k int, v uint64) {
					if !p.TrySend(v) {
						t.Fatalf("message %d: ring full", k)
					}
				},
				recv: c.TryRecv,
			}
		}},
		{"Combiner", func() fallbackChan {
			// send posts a request the way Do does and serves it, so
			// that a lost response fails the test instead of leaving Do
			// spinning.
			c := NewCombiner(1, 9)
			s := c.Register()
			slot := &c.slots[0]
			return fallbackChan{
				pool: HashPool(9),
				word: func(k int) (*atomic.Uint64, *atomic.Uint64, int) { return &slot.resp, &slot.fb, k },
				send: func(_ int, v uint64) {
					slot.fn = func() uint64 { return v }
					s.seq += 2
					slot.req.Store(s.seq | 1)
					c.combine()
				},
				recv: s.tryRecv,
			}
		}},
		{"Broadcast", func() fallbackChan {
			// A publication arrives when the reader's generation moves.
			b := NewBroadcast(13)
			w, r := b.Writer(), b.Reader()
			return fallbackChan{
				pool: HashPool(13),
				word: func(k int) (*atomic.Uint64, *atomic.Uint64, int) { return &b.w.data, &b.w.flag, k },
				send: func(_ int, v uint64) { w.Publish(v) },
				recv: func() (uint64, bool) {
					gen := r.lastGen
					v, _ := r.Poll()
					return v, r.lastGen != gen
				},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := tc.make()
			collisions := 0
			for k := 0; k < n; k++ {
				data, flag, cnt := ch.word(k)
				d0, f0 := data.Load(), flag.Load()
				v := uint64(k)*0xBF58476D1CE4E5B9 + 3
				collide := k%4 != 1
				if collide {
					v = d0 ^ ch.pool[cnt%PoolSize]
					collisions++
				}
				ch.send(k, v)
				if d1, f1 := data.Load(), flag.Load(); collide && (d1 != d0 || f1 == f0) {
					t.Fatalf("message %d collides, but data went %#x -> %#x and flag %d -> %d; want the flag to move and the data word to stay",
						k, d0, d1, f0, f1)
				}
				got, ok := ch.recv()
				if !ok {
					t.Fatalf("message %d (collision %v) never arrived", k, collide)
				}
				if got != v {
					t.Fatalf("message %d (collision %v) decoded to %#x, want %#x", k, collide, got, v)
				}
				if _, again := ch.recv(); again {
					t.Fatalf("message %d arrived twice", k)
				}
			}
			if collisions != 3*n/4 {
				t.Fatalf("crafted %d collisions, want %d", collisions, 3*n/4)
			}
		})
	}
}
