package figures_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"armbar/internal/cellcache"
	"armbar/internal/figures"
)

// Golden digests of the rendered quick-mode CSV at the canonical seed
// 42 (the `armbar -quick all` configuration). They pin the simulator's
// exact service order and rng draw sequence: any scheduler change that
// drifts either — even by one op — changes every downstream number and
// fails here immediately, long before a full-scale regeneration would.
//
// goldenFastDigest covers the fastSubset (every experiment package,
// cheap enough for every `go test`); goldenAllDigest is the complete
// registry, checked under ARMBAR_DETERMINISM_FULL=1 (`make
// determinism`). Regenerate with:
//
//	go test -run TestQuickOutputDigest ./internal/figures -v
//	ARMBAR_DETERMINISM_FULL=1 go test -run TestQuickOutputDigest ./internal/figures -v
//
// and paste the printed digests — but only after convincing yourself
// the drift is intended (a semantics change, not a scheduler bug).
const (
	goldenFastDigest = "72b30bfa573e9fe4d805b9a433d1055d574ca31ec8c1ad0635a7a0ff6f54d4c5"
	goldenAllDigest  = "7e1ab12f20cf7887ed65f5f4e0d6c1318553b34b0281387c4cdd1f24cd39b2b0"
)

// TestQuickOutputDigest is the scheduler's determinism
// regression: the engine must keep serving threads in min-(time,id)
// order with an unchanged rng sequence, byte for byte.
func TestQuickOutputDigest(t *testing.T) {
	names := fastSubset
	want := goldenFastDigest
	if os.Getenv("ARMBAR_DETERMINISM_FULL") != "" {
		names = figures.Names()
		want = goldenAllDigest
	}
	out := render(figures.Options{Quick: true, Seed: 42}, names)
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	if got != want {
		t.Fatalf("quick-mode output drifted from the golden digest\n got %s\nwant %s\n(%d experiments, %d bytes rendered; see the comment above the digests before regenerating)",
			got, want, len(names), len(out))
	}
}

// TestWarmCacheOutputIdentical is the result cache's golden
// cross-check: regenerating the fast subset cold (fresh cache
// directory), then warm (every cell replayed from disk), then with the
// cache off must produce byte-identical output at more than one seed —
// and at the canonical seed the cached digest must still be the golden
// one, so caching provably changes wall time only.
func TestWarmCacheOutputIdentical(t *testing.T) {
	digest := func(s string) string {
		sum := sha256.Sum256([]byte(s))
		return hex.EncodeToString(sum[:])
	}
	for _, seed := range []int64{42, 7} {
		c := cellcache.Open(t.TempDir())
		o := figures.Options{Quick: true, Seed: seed, Cache: c}
		cold := render(o, fastSubset)
		hitsCold, _ := c.Counts()
		warm := render(o, fastSubset)
		hitsWarm, _ := c.Counts()
		c.Close()
		if warm != cold {
			t.Fatalf("seed %d: warm-cache output differs from cold (%d vs %d bytes)",
				seed, len(warm), len(cold))
		}
		if hitsWarm == hitsCold {
			t.Fatalf("seed %d: warm run never hit the cache — every cell recomputed", seed)
		}
		// Cache off: seed 42's uncached render is already pinned by
		// goldenFastDigest, so compare against the constant instead of
		// paying a third full regeneration; other seeds render it.
		if seed == 42 {
			if got := digest(cold); got != goldenFastDigest {
				t.Fatalf("seed 42: cached output drifted from the golden digest\n got %s\nwant %s",
					got, goldenFastDigest)
			}
		} else {
			off := render(figures.Options{Quick: true, Seed: seed}, fastSubset)
			if off != cold {
				t.Fatalf("seed %d: -cache=off output differs from the cached run", seed)
			}
		}
	}
}
