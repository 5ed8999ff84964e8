package cellcache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

func testHash(s string) Key { return sha256.Sum256([]byte(s)) }

// put stores n distinct entries under one scope and returns the values.
func put(c *Cache, scope string, n int) [][]byte {
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		vals[i] = bytes.Repeat([]byte{byte(i + 1)}, 8+i)
		c.Put(scope, i, vals[i])
	}
	return vals
}

func TestRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	h := testHash("v1")
	c := openWithHash(dir, h)
	vals := put(c, "exp#0", 20)
	for i, want := range vals {
		got, ok := c.Get("exp#0", i)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("in-process Get(%d): ok=%v got=%x want=%x", i, ok, got, want)
		}
	}
	c.Close()

	// A fresh process (same code version) must see every entry.
	c2 := openWithHash(dir, h)
	defer c2.Close()
	for i, want := range vals {
		got, ok := c2.Get("exp#0", i)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("reloaded Get(%d): ok=%v got=%x want=%x", i, ok, got, want)
		}
	}
	st := c2.Stats()
	if st.Entries != 20 || st.StaleEntries != 0 || st.DamagedFiles != 0 {
		t.Fatalf("reloaded stats: %+v", st)
	}
	if _, ok := c2.Get("other-scope", 0); ok {
		t.Fatal("a different scope must miss")
	}
	if hits, misses := c2.Counts(); hits != 20 || misses != 1 {
		t.Fatalf("counts: hits=%d misses=%d", hits, misses)
	}
}

func TestKeysDifferByCodeHash(t *testing.T) {
	dir := t.TempDir()
	c1 := openWithHash(dir, testHash("v1"))
	put(c1, "exp#0", 4)
	c1.Close()

	c2 := openWithHash(dir, testHash("v2"))
	defer c2.Close()
	for i := 0; i < 4; i++ {
		if _, ok := c2.Get("exp#0", i); ok {
			t.Fatalf("entry %d from another code version must not match", i)
		}
	}
	if st := c2.Stats(); st.StaleEntries != 4 {
		t.Fatalf("want 4 stale entries, got %+v", st)
	}
}

func TestCorruptTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	h := testHash("v1")
	c := openWithHash(dir, h)
	put(c, "exp#0", 8)
	c.Close()

	// Simulate a crash mid-append: garbage on the tail of every shard.
	shards := c.sortedShardPaths()
	if len(shards) == 0 {
		t.Fatal("no shard files written")
	}
	for _, p := range shards {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("torn-write-garbage"))
		f.Close()
	}

	c2 := openWithHash(dir, h)
	st := c2.Stats()
	if st.Entries != 8 {
		t.Fatalf("intact records must survive a torn tail: %+v", st)
	}
	if st.DamagedFiles != len(shards) {
		t.Fatalf("want %d damaged files, got %+v", len(shards), st)
	}
	for i := 0; i < 8; i++ {
		if _, ok := c2.Get("exp#0", i); !ok {
			t.Fatalf("entry %d lost to tail corruption", i)
		}
	}

	// The load cut the garbage off, so what the reopened cache appends
	// is read by the next Open instead of sitting behind the torn record.
	vals := put(c2, "exp#1", 64)
	c2.Close()
	c3 := openWithHash(dir, h)
	defer c3.Close()
	if st := c3.Stats(); st.Entries != 72 || st.DamagedFiles != 0 {
		t.Fatalf("want 72 entries in undamaged shards after the heal, got %+v", st)
	}
	for i, want := range vals {
		if got, ok := c3.Get("exp#1", i); !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry %d put after the reopen: (%q, %v), want %q", i, got, ok, want)
		}
	}
}

func TestFormatMismatchStartsOver(t *testing.T) {
	dir := t.TempDir()
	h := testHash("v1")
	c := openWithHash(dir, h)
	put(c, "exp#0", 4)
	c.Close()

	idx := []byte(`{"format": 999, "code_hash": "", "entries": 4, "bytes": 0}`)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), idx, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := openWithHash(dir, h)
	defer c2.Close()
	if st := c2.Stats(); st.Entries != 0 {
		t.Fatalf("a future on-disk format must be discarded, not parsed: %+v", st)
	}
	// The wiped directory must be immediately usable again.
	c2.Put("exp#0", 0, []byte("fresh"))
	if got, ok := c2.Get("exp#0", 0); !ok || string(got) != "fresh" {
		t.Fatal("cache unusable after a format-mismatch wipe")
	}
}

func TestPutDeduplicates(t *testing.T) {
	dir := t.TempDir()
	c := openWithHash(dir, testHash("v1"))
	c.Put("exp#0", 0, []byte("first"))
	sizeAfterFirst := shardBytes(t, dir)
	c.Put("exp#0", 0, []byte("second"))
	if got, _ := c.Get("exp#0", 0); string(got) != "first" {
		t.Fatalf("first write must win, got %q", got)
	}
	if got := shardBytes(t, dir); got != sizeAfterFirst {
		t.Fatalf("duplicate Put grew the shards: %d -> %d bytes", sizeAfterFirst, got)
	}
	c.Close()
}

func shardBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func TestGCReclaimsStaleCodeVersions(t *testing.T) {
	dir := t.TempDir()
	c1 := openWithHash(dir, testHash("v1"))
	put(c1, "exp#0", 6)
	c1.Close()

	c2 := openWithHash(dir, testHash("v2"))
	defer c2.Close()
	vals := put(c2, "exp#0", 3)
	removed, reclaimed := c2.GC(0)
	if removed != 6 || reclaimed <= 0 {
		t.Fatalf("GC removed %d records / %d bytes, want 6 stale records", removed, reclaimed)
	}
	st := c2.Stats()
	if st.Entries != 3 || st.StaleEntries != 0 {
		t.Fatalf("post-gc stats: %+v", st)
	}
	for i, want := range vals {
		got, ok := c2.Get("exp#0", i)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("current-version entry %d lost by gc", i)
		}
	}
	// And the reclaim is durable: a reload sees only current records.
	c2.Close()
	c3 := openWithHash(dir, testHash("v2"))
	defer c3.Close()
	if st := c3.Stats(); st.Entries != 3 || st.StaleEntries != 0 {
		t.Fatalf("reloaded post-gc stats: %+v", st)
	}
}

func TestClear(t *testing.T) {
	dir := t.TempDir()
	c := openWithHash(dir, testHash("v1"))
	defer c.Close()
	put(c, "exp#0", 5)
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("post-clear stats: %+v", st)
	}
	if _, ok := c.Get("exp#0", 0); ok {
		t.Fatal("entry survived Clear")
	}
	if paths := c.sortedShardPaths(); len(paths) != 0 {
		t.Fatalf("shard files survived Clear: %v", paths)
	}
	// Still usable for new writes.
	c.Put("exp#0", 0, []byte("again"))
	if _, ok := c.Get("exp#0", 0); !ok {
		t.Fatal("cache unusable after Clear")
	}
}

func TestUnusableDirectoryDegradesToMemory(t *testing.T) {
	// A regular file where the directory should be: MkdirAll fails.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openWithHash(file, testHash("v1"))
	defer c.Close()
	if c.Dir() != "" {
		t.Fatal("memory-only cache must report an empty Dir")
	}
	c.Put("exp#0", 0, []byte("mem"))
	if got, ok := c.Get("exp#0", 0); !ok || string(got) != "mem" {
		t.Fatal("memory-only cache must still serve this process")
	}
	if st := c.Stats(); !st.MemoryOnly {
		t.Fatalf("stats must flag memory-only: %+v", st)
	}
}

func TestKeyForDeterministicAndDistinct(t *testing.T) {
	h := testHash("v1")
	a := keyFor(h, "exp#0|quick=true|seed=42|n=8", 3)
	b := keyFor(h, "exp#0|quick=true|seed=42|n=8", 3)
	if a != b {
		t.Fatal("keyFor must be deterministic")
	}
	distinct := []Key{
		keyFor(h, "exp#0|quick=true|seed=42|n=8", 4),
		keyFor(h, "exp#1|quick=true|seed=42|n=8", 3),
		keyFor(testHash("v2"), "exp#0|quick=true|seed=42|n=8", 3),
	}
	for i, k := range distinct {
		if k == a {
			t.Fatalf("key %d must differ from the base key", i)
		}
	}
}

func TestStatsEntrySizes(t *testing.T) {
	c := openWithHash(t.TempDir(), testHash("v1"))
	defer c.Close()
	c.Put("s", 0, bytes.Repeat([]byte{1}, 10))
	c.Put("s", 1, bytes.Repeat([]byte{2}, 30))
	st := c.Stats()
	if st.MaxEntryBytes != 30 {
		t.Errorf("MaxEntryBytes = %d, want 30", st.MaxEntryBytes)
	}
	if st.MeanEntryBytes != 20 {
		t.Errorf("MeanEntryBytes = %d, want 20", st.MeanEntryBytes)
	}
	if st.LargeEntries != 0 {
		t.Errorf("LargeEntries = %d, want 0", st.LargeEntries)
	}

	// One oversized entry must be counted and reflected in the max.
	c.Put("s", 2, make([]byte, LargeEntryBytes+1))
	st = c.Stats()
	if st.LargeEntries != 1 {
		t.Errorf("LargeEntries = %d, want 1", st.LargeEntries)
	}
	if st.MaxEntryBytes != LargeEntryBytes+1 {
		t.Errorf("MaxEntryBytes = %d, want %d", st.MaxEntryBytes, LargeEntryBytes+1)
	}

	// Empty cache: no divide-by-zero, all zeros.
	e := openWithHash(t.TempDir(), testHash("v2"))
	defer e.Close()
	if st := e.Stats(); st.MeanEntryBytes != 0 || st.MaxEntryBytes != 0 || st.LargeEntries != 0 {
		t.Errorf("empty-cache stats: %+v", st)
	}
}
