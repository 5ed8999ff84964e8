package cellcache_test

import (
	"testing"

	"armbar/internal/cellcache"
)

// BenchmarkCellCacheHit measures the result cache's per-cell lookup on
// a hit — the SHA-256 key build plus the map probe every warm cell pays
// before its simulation is skipped. This path must stay at 0 allocs/op
// (it runs once per cell per experiment; allocvet checks keyFor and
// Get), and `make perfcheck` fails if that count grows.
func BenchmarkCellCacheHit(b *testing.B) {
	c := cellcache.Open(b.TempDir())
	defer c.Close()
	const scope = "bench#0|quick=true|seed=42|n=8"
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < 8; i++ {
		c.Put(scope, i, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(scope, i&7); !ok {
			b.Fatal("cache miss on a seeded key")
		}
	}
}
