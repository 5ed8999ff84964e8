// Package cellcache is the persistent, content-addressed result cache
// behind `armbar -cache` (the default): it memoizes the encoded result
// of every experiment cell, keyed by a digest of the cell's complete
// input — experiment scope (name, Map-call sequence, quick flag, seed,
// cell count), cell index, and the *code version* of the packages that
// can affect simulation output (see codehash.go). The simulator is
// deterministic by construction (the golden digest test pins seeded
// output byte for byte), which is exactly the property that makes
// memoization sound: a warm `armbar -quick all` replays every cell
// from disk and is provably byte-identical to a cold run.
//
// Layout under the cache directory:
//
//	index.json    format version + writer code hash + entry counts
//	shard-XX.bin  append-only records, XX = first key byte & 0x0f
//
// Each record is [4B code-hash prefix][32B key][4B len][4B crc32][val].
// The cache is single-writer per process (Put serializes on one mutex)
// and crash-safe by construction: a torn append fails the CRC on the
// next load, which cuts the shard file back to its last intact record,
// so records appended later are read again. Corrupt records,
// missing files, an unwritable directory, or a format-version mismatch
// all degrade to misses — the cache never turns an IO problem into an
// experiment error.
//
// The lookup hot path (keyFor + Get) is allocation-free and on the
// allocvet hot-path list; BenchmarkCellCacheHit pins it at 0 allocs/op
// through the perf gate.
package cellcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Key is the content address of one cell result: a SHA-256 digest over
// (code hash, scope string, cell index).
type Key [sha256.Size]byte

const (
	// formatVersion is bumped whenever the on-disk record layout
	// changes; a mismatched cache directory is discarded wholesale.
	formatVersion = 1
	nShards       = 16
	prefixLen     = 4 // code-hash bytes stored per record, for gc
	recHeaderLen  = prefixLen + sha256.Size + 4 + 4
	// maxValueLen bounds a single record so a corrupt length field
	// cannot ask the loader for gigabytes.
	maxValueLen = 16 << 20
)

// index is the self-describing metadata file written at Close. It is
// advisory except for Format, which gates the record layout.
type index struct {
	Format   int    `json:"format"`
	CodeHash string `json:"code_hash"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
}

// Cache is one open cache directory. The zero value is not usable;
// call Open. All methods are safe for concurrent use by the runner's
// worker pool; Put additionally assumes a single writing process per
// directory (concurrent writers stay correct — records are CRC-checked
// — but may duplicate work).
type Cache struct {
	dir      string
	memOnly  bool // directory unusable: serve this process, persist nothing
	codeHash Key

	mu      sync.Mutex
	entries map[Key][]byte // armvet:guardedby mu
	shards  []*os.File     // armvet:guardedby mu — lazily opened append handles
	bytes   int64          // armvet:guardedby mu — stored value bytes, stale included
	stale   int            // armvet:guardedby mu — loaded records from other code versions
	damaged int            // armvet:guardedby mu — files with a corrupt tail at load
	closed  bool           // armvet:guardedby mu

	hits, misses, puts atomic.Uint64
}

// Open loads (or creates) the cache directory and returns a usable
// cache. Open never fails: an unusable directory yields a memory-only
// cache that serves this process and persists nothing, and corrupt or
// version-mismatched on-disk state is discarded as misses.
func Open(dir string) *Cache {
	return openWithHash(dir, CodeHash())
}

// openWithHash is Open with an explicit code hash — the test seam for
// exercising stale-code entries without editing source files.
func openWithHash(dir string, codeHash Key) *Cache {
	c := &Cache{
		dir:      dir,
		codeHash: codeHash,
		entries:  make(map[Key][]byte),
		shards:   make([]*os.File, nShards),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.memOnly = true
		return c
	}
	if idx, ok := c.readIndex(); ok && idx.Format != formatVersion {
		// A different record layout: the files are unreadable by this
		// binary, so start the directory over.
		c.removeFiles()
	}
	c.load()
	return c
}

// Dir reports the cache directory ("" for a memory-only cache that
// could not use its directory).
func (c *Cache) Dir() string {
	if c.memOnly {
		return ""
	}
	return c.dir
}

// CodeHashHex returns the code-version component of every key this
// cache builds, as hex.
func (c *Cache) CodeHashHex() string { return fmt.Sprintf("%x", c.codeHash) }

// keyFor builds the content address of one cell. It is on the lookup
// hot path and must stay allocation-free: the scratch buffer lives on
// the stack as long as the scope string fits (experiment scopes are
// ~40 bytes; the buffer holds 128 on top of the hash and index).
func keyFor(codeHash Key, scope string, idx int) Key {
	var buf [sha256.Size + 136]byte
	b := buf[:0]
	b = append(b, codeHash[:]...)
	b = append(b, scope...)
	b = append(b, '|')
	b = binary.BigEndian.AppendUint64(b, uint64(idx))
	return sha256.Sum256(b)
}

// Get returns the encoded result stored for (scope, idx), if any. The
// returned slice must be treated as read-only. Get is the runner's
// per-cell probe and stays allocation-free on hits and misses.
func (c *Cache) Get(scope string, idx int) ([]byte, bool) {
	k := keyFor(c.codeHash, scope, idx)
	c.mu.Lock()
	data, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return data, ok
}

// Put stores the encoded result of one cell. An existing entry for the
// same key wins: cells are deterministic, so the first write is as
// good as any rewrite, and skipping keeps warm runs from growing the
// shard files. IO failures degrade the cache to memory-only.
func (c *Cache) Put(scope string, idx int, data []byte) {
	k := keyFor(c.codeHash, scope, idx)
	cp := append([]byte(nil), data...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		return
	}
	c.entries[k] = cp
	c.bytes += int64(len(cp))
	c.puts.Add(1)
	if !c.memOnly && !c.closed {
		if err := c.appendRecord(k, cp); err != nil {
			c.memOnly = true
		}
	}
}

// Counts reports lifetime hits and misses for this process — the
// figure instrumentation reads deltas of these around each experiment.
func (c *Cache) Counts() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// LargeEntryBytes is the per-entry size above which Stats counts an
// entry as oversized and `armbar cache stats` warns. A cell result is
// one gob-encoded figure data point (or one whole-table Wire) — tens
// of bytes to a few kilobytes; an entry near a megabyte means a
// generator is caching something it should decompose into cells.
const LargeEntryBytes = 1 << 20

// Stats is the cache's self-description for `armbar cache stats` and
// the run manifest.
type Stats struct {
	Dir          string `json:"dir"`
	CodeHash     string `json:"code_hash"`
	Entries      int    `json:"entries"`       // loaded + stored this process
	StaleEntries int    `json:"stale_entries"` // records from other code versions (gc reclaims)
	Bytes        int64  `json:"bytes"`
	// MeanEntryBytes / MaxEntryBytes describe the per-entry encoded
	// sizes, and LargeEntries counts entries over LargeEntryBytes.
	MeanEntryBytes int64  `json:"mean_entry_bytes"`
	MaxEntryBytes  int64  `json:"max_entry_bytes"`
	LargeEntries   int    `json:"large_entries,omitempty"`
	DamagedFiles   int    `json:"damaged_files"` // shard files with a corrupt tail at load
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	MemoryOnly     bool   `json:"memory_only,omitempty"`
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Dir:          c.dir,
		CodeHash:     fmt.Sprintf("%x", c.codeHash),
		Entries:      len(c.entries),
		StaleEntries: c.stale,
		Bytes:        c.bytes,
		DamagedFiles: c.damaged,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Puts:         c.puts.Load(),
		MemoryOnly:   c.memOnly,
	}
	// Max and mean are order-independent over the entries map, so the
	// map walk stays deterministic output-wise.
	for _, v := range c.entries {
		n := int64(len(v))
		if n > st.MaxEntryBytes {
			st.MaxEntryBytes = n
		}
		if n > LargeEntryBytes {
			st.LargeEntries++
		}
	}
	if st.Entries > 0 {
		st.MeanEntryBytes = st.Bytes / int64(st.Entries)
	}
	return st
}

// Close flushes the index file and releases the shard handles. The
// cache stays readable from memory afterwards; further Puts no longer
// persist. Close is idempotent.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for i, f := range c.shards {
		if f != nil {
			f.Close()
			c.shards[i] = nil
		}
	}
	if c.memOnly {
		return
	}
	idx := index{
		Format:   formatVersion,
		CodeHash: fmt.Sprintf("%x", c.codeHash),
		Entries:  len(c.entries),
		Bytes:    c.bytes,
	}
	if data, err := json.MarshalIndent(idx, "", "  "); err == nil {
		os.WriteFile(filepath.Join(c.dir, "index.json"), append(data, '\n'), 0o644)
	}
}

// GC rewrites every shard file keeping only records written by the
// current code version; entries from older binaries can never match a
// key again and only cost disk. With maxAge > 0, shard files whose
// modification time is older are dropped wholesale first (the only
// place the cache consults file times). It returns the number of
// records removed and the bytes reclaimed.
func (c *Cache) GC(maxAge time.Duration) (removed int, reclaimed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memOnly {
		return 0, 0
	}
	// Drop append handles: the rewrite below replaces the files.
	for i, f := range c.shards {
		if f != nil {
			f.Close()
			c.shards[i] = nil
		}
	}
	cutoff := time.Time{}
	if maxAge > 0 {
		cutoff = time.Now().Add(-maxAge) //armvet:ignore determvet — gc file-age policy only; results never depend on it
	}
	for s := 0; s < nShards; s++ {
		path := c.shardPath(s)
		st, err := os.Stat(path)
		if err != nil {
			continue
		}
		if !cutoff.IsZero() && st.ModTime().Before(cutoff) { //armvet:ignore determvet — gc file-age policy only
			n, b := countRecords(path)
			removed += n
			reclaimed += b
			os.Remove(path)
			continue
		}
		n, b := rewriteShard(path, c.codeHash)
		removed += n
		reclaimed += b
	}
	// Rebuild the in-memory view from the surviving records.
	c.entries = make(map[Key][]byte)
	c.bytes, c.stale, c.damaged = 0, 0, 0
	c.loadLocked()
	return removed, reclaimed
}

// Clear removes every cache file and entry.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, f := range c.shards {
		if f != nil {
			f.Close()
			c.shards[i] = nil
		}
	}
	if !c.memOnly {
		c.removeFiles()
	}
	c.entries = make(map[Key][]byte)
	c.bytes, c.stale, c.damaged = 0, 0, 0
}

// --- on-disk plumbing -------------------------------------------------

func (c *Cache) shardPath(s int) string {
	return filepath.Join(c.dir, fmt.Sprintf("shard-%02x.bin", s))
}

func shardOf(k Key) int { return int(k[0]) % nShards }

// appendRecord persists one entry. armvet:holds mu
func (c *Cache) appendRecord(k Key, val []byte) error {
	s := shardOf(k)
	if c.shards[s] == nil {
		f, err := os.OpenFile(c.shardPath(s), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		c.shards[s] = f
	}
	rec := make([]byte, 0, recHeaderLen+len(val))
	rec = append(rec, c.codeHash[:prefixLen]...)
	rec = append(rec, k[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(val)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(val))
	rec = append(rec, val...)
	// One Write call per record: with O_APPEND a crash mid-write can
	// only corrupt the file tail, which the loader detects by CRC and
	// discards.
	_, err := c.shards[s].Write(rec)
	return err
}

func (c *Cache) readIndex() (index, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, "index.json"))
	if err != nil {
		return index{}, false
	}
	var idx index
	if json.Unmarshal(data, &idx) != nil {
		// Advisory file, corrupt: the shard loader re-derives
		// everything it needs.
		return index{}, false
	}
	return idx, true
}

// removeFiles deletes the cache's own files (and nothing else — the
// directory may be shared). armvet:holds mu
func (c *Cache) removeFiles() {
	for s := 0; s < nShards; s++ {
		os.Remove(c.shardPath(s))
	}
	os.Remove(filepath.Join(c.dir, "index.json"))
}

// load populates entries from the shard files.
func (c *Cache) load() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loadLocked()
}

// loadLocked scans every shard file in order. A shard with a damaged
// record is truncated to the intact records before it: the loader
// stops at the first bad record, so anything appended behind it would
// never be read again. armvet:holds mu
func (c *Cache) loadLocked() {
	for s := 0; s < nShards; s++ {
		data, err := os.ReadFile(c.shardPath(s))
		if err != nil {
			continue
		}
		off := 0
		for off < len(data) {
			k, val, next, valid := parseRecord(data, off)
			if !valid {
				break
			}
			// Last record wins, mirroring append order.
			if old, dup := c.entries[k]; dup {
				c.bytes -= int64(len(old))
			} else if string(data[off:off+prefixLen]) != string(c.codeHash[:prefixLen]) {
				c.stale++
			}
			c.entries[k] = val
			c.bytes += int64(len(val))
			off = next
		}
		if off < len(data) {
			c.damaged++
			// Another process may have cut the file shorter since the
			// read; truncating it then would pad it with zeros.
			if fi, err := os.Stat(c.shardPath(s)); err == nil && fi.Size() > int64(off) {
				os.Truncate(c.shardPath(s), int64(off))
			}
		}
	}
}

// parseRecord decodes one record at off, returning the key, a copy of
// the value, the next offset, and whether the record was intact.
func parseRecord(data []byte, off int) (k Key, val []byte, next int, valid bool) {
	if off+recHeaderLen > len(data) {
		return k, nil, 0, false
	}
	p := off + prefixLen
	copy(k[:], data[p:p+sha256.Size])
	p += sha256.Size
	n := binary.LittleEndian.Uint32(data[p:])
	sum := binary.LittleEndian.Uint32(data[p+4:])
	p += 8
	if n > maxValueLen || p+int(n) > len(data) {
		return k, nil, 0, false
	}
	val = append([]byte(nil), data[p:p+int(n)]...)
	if crc32.ChecksumIEEE(val) != sum {
		return k, nil, 0, false
	}
	return k, val, p + int(n), true
}

// countRecords tallies the intact records of one shard file (for gc
// accounting of wholesale drops).
func countRecords(path string) (n int, bytes int64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	for off := 0; off < len(data); {
		_, val, next, valid := parseRecord(data, off)
		if !valid {
			break
		}
		n++
		bytes += int64(len(val))
		off = next
	}
	return n, bytes
}

// rewriteShard rewrites one shard keeping only records whose code-hash
// prefix matches, via a temp file + rename so a crash leaves either
// the old or the new file, never a half-written one.
func rewriteShard(path string, codeHash Key) (removed int, reclaimed int64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	kept := make([]byte, 0, len(data))
	for off := 0; off < len(data); {
		_, val, next, valid := parseRecord(data, off)
		if !valid {
			break
		}
		if string(data[off:off+prefixLen]) == string(codeHash[:prefixLen]) {
			kept = append(kept, data[off:next]...)
		} else {
			removed++
			reclaimed += int64(len(val))
		}
		off = next
	}
	if removed == 0 && len(kept) == len(data) {
		return 0, 0
	}
	if len(kept) == 0 {
		os.Remove(path)
		return removed, reclaimed
	}
	tmp := path + ".tmp"
	if os.WriteFile(tmp, kept, 0o644) != nil {
		return 0, 0
	}
	if os.Rename(tmp, path) != nil {
		os.Remove(tmp)
		return 0, 0
	}
	return removed, reclaimed
}

// sortedShardPaths lists existing shard files in shard order (used by
// tests; kept here so the naming scheme has one owner).
func (c *Cache) sortedShardPaths() []string {
	var out []string
	for s := 0; s < nShards; s++ {
		if _, err := os.Stat(c.shardPath(s)); err == nil {
			out = append(out, c.shardPath(s))
		}
	}
	sort.Strings(out)
	return out
}
