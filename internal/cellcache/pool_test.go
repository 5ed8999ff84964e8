package cellcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"armbar/internal/runner"
)

// TestPoolSharesCache drives one cache the way a -par ≥ 2 run does:
// four pool workers compute the cells of four concurrent
// runner.MapCached calls, 64 cells in all, so Get and Put race from
// several assembling goroutines while the workers run cells. The first
// pass stores every cell; the second must hit all 64, compute none and
// return the same values. make race runs it under the race detector.
func TestPoolSharesCache(t *testing.T) {
	c := openWithHash(t.TempDir(), testHash("pool"))
	defer c.Close()
	p := runner.New(4)
	defer p.Close()

	const calls, cells = 4, 16
	var computed atomic.Int64
	pass := func() [calls][]int {
		var out [calls][]int
		var wg sync.WaitGroup
		for k := 0; k < calls; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				out[k] = runner.MapCached(p, c, fmt.Sprintf("pool#%d", k), cells, func(i int) int {
					computed.Add(1)
					return 1000*k + i*i
				})
			}(k)
		}
		wg.Wait()
		return out
	}

	cold := pass()
	if n := computed.Load(); n != calls*cells {
		t.Fatalf("cold pass computed %d cells, want %d", n, calls*cells)
	}
	h0, m0 := c.Counts()
	warm := pass()
	h1, m1 := c.Counts()
	if hits, misses := h1-h0, m1-m0; hits != calls*cells || misses != 0 {
		t.Fatalf("warm pass: %d hits, %d misses, want %d hits", hits, misses, calls*cells)
	}
	if n := computed.Load(); n != calls*cells {
		t.Fatalf("warm pass computed %d more cells", n-calls*cells)
	}
	for k := range cold {
		for i := range cold[k] {
			if cold[k][i] != 1000*k+i*i || warm[k][i] != cold[k][i] {
				t.Fatalf("call %d cell %d: cold %d, warm %d", k, i, cold[k][i], warm[k][i])
			}
		}
	}
}
