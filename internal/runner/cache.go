package runner

import (
	"bytes"
	"encoding/gob"
)

// CellCache is the pluggable persistent result cache MapCached and
// GridCached consult before running each cell (internal/cellcache is
// the production implementation). The scope string names one Map call
// (experiment, call sequence, quick flag, seed, cell count); together
// with the cell index — and the implementation's code-version digest —
// it fully determines a deterministic cell's output.
type CellCache interface {
	// Get returns the encoded result of cell (scope, idx), if stored.
	Get(scope string, idx int) ([]byte, bool)
	// Put stores the encoded result of cell (scope, idx). Put must be
	// a no-op for keys that already have an entry.
	Put(scope string, idx int, data []byte)
}

// MapCached is Map with a persistent result cache in front of every
// cell: a cell whose encoded result is already stored decodes instead
// of simulating, and every freshly computed cell is stored after it
// completes. Results are byte-identical to an uncached Map — cells are
// deterministic, and the gob codec round-trips every value exactly
// (float64 by bits) — so a warm run differs only in wall time.
//
// Failure containment: an entry that fails to decode is treated as a
// miss and recomputed; a value that fails to encode is returned but
// not stored; and a cell that panics re-raises here, on the assembling
// goroutine, after storing nothing — a partial or failed cell can
// never poison the cache (regression-tested in cache_test.go).
//
// A nil cache makes MapCached exactly Map.
func MapCached[T any](p *Pool, cc CellCache, scope string, n int, fn func(i int) T) []T {
	if cc == nil {
		return Map(p, n, fn)
	}
	out := make([]T, n)
	futs := make([]*Future[T], n) // nil where the cache hit
	for i := 0; i < n; i++ {
		if data, ok := cc.Get(scope, i); ok && decodeCell(data, &out[i]) {
			continue
		}
		i := i
		futs[i] = Submit(p, func() T { return fn(i) })
	}
	for i, f := range futs {
		if f == nil {
			continue
		}
		v, err := f.TryGet()
		if err != nil {
			// The panic surfaces exactly as Map's would; cells after
			// this one were computed but are deliberately not stored —
			// a failed run caches nothing past the failure point.
			panic(err)
		}
		out[i] = v
		if data, err := encodeCell(v); err == nil {
			cc.Put(scope, i, data)
		}
	}
	return out
}

// GridCached is Grid with the same per-cell cache as MapCached.
func GridCached[T any](p *Pool, cc CellCache, scope string, rows, cols int, fn func(r, c int) T) [][]T {
	flat := MapCached(p, cc, scope, rows*cols, func(k int) T { return fn(k/cols, k%cols) })
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}

// encodeCell gob-encodes one cell value. Cell types must be gob-able
// (exported fields, or a GobEncoder implementation); a type that is
// not simply opts out of caching via the returned error.
func encodeCell[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeCell decodes a stored cell value, reporting false (a cache
// miss) on any error.
func decodeCell[T any](data []byte, dst *T) bool {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(dst) == nil
}
