package core

import (
	"sync"
	"testing"
)

func TestCombinerSequential(t *testing.T) {
	c := NewCombiner(1, 3)
	s := c.Register()
	var counter uint64
	for i := uint64(1); i <= 500; i++ {
		got := s.Do(func() uint64 {
			counter++
			return counter
		})
		if got != i {
			t.Fatalf("op %d returned %d", i, got)
		}
	}
}

func TestCombinerConcurrentCounter(t *testing.T) {
	const clients, ops = 6, 3000
	c := NewCombiner(clients, 5)
	var counter uint64 // guarded by the combiner
	var wg sync.WaitGroup
	rets := make([][]uint64, clients)
	for i := 0; i < clients; i++ {
		i := i
		s := c.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				rets[i] = append(rets[i], s.Do(func() uint64 {
					counter++
					return counter
				}))
			}
		}()
	}
	wg.Wait()
	if counter != clients*ops {
		t.Fatalf("counter = %d, want %d", counter, clients*ops)
	}
	seen := make(map[uint64]bool, clients*ops)
	for i := range rets {
		prev := uint64(0)
		for _, v := range rets[i] {
			if v <= prev {
				t.Fatalf("client %d: non-monotonic return %d after %d", i, v, prev)
			}
			prev = v
			if seen[v] {
				t.Fatalf("return value %d delivered twice", v)
			}
			seen[v] = true
		}
	}
}

func TestCombinerRegisterExhaustion(t *testing.T) {
	c := NewCombiner(1, 1)
	c.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("second Register must panic")
		}
	}()
	c.Register()
}
