package cellcache

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzScope names the intact records FuzzShardDecode writes before the
// fuzz bytes.
const fuzzScope = "fuzz#0"

// encodeRecord is the reference encoder of one shard record:
// [code-hash prefix][key][len][crc32][val].
func encodeRecord(h, k Key, val []byte) []byte {
	rec := append([]byte(nil), h[:prefixLen]...)
	rec = append(rec, k[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(val)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(val))
	return append(rec, val...)
}

// refRecord is one record as the reference decoder reads it.
type refRecord struct {
	k         Key
	val       []byte
	off, next int
}

// refDecode walks a shard file independently of parseRecord: a record
// is intact when its header and value fit, its length is at most
// maxValueLen and its CRC matches. It returns the intact prefix and
// the offset where it ends, len(data) when the file is undamaged.
func refDecode(data []byte) (recs []refRecord, end int) {
	for end < len(data) {
		off := end
		if len(data)-off < recHeaderLen {
			return recs, off
		}
		var k Key
		copy(k[:], data[off+prefixLen:])
		n := binary.LittleEndian.Uint32(data[off+prefixLen+len(k):])
		sum := binary.LittleEndian.Uint32(data[off+prefixLen+len(k)+4:])
		start := off + recHeaderLen
		if n > maxValueLen || uint64(n) > uint64(len(data)-start) {
			return recs, off
		}
		val := data[start : start+int(n)]
		if crc32.ChecksumIEEE(val) != sum {
			return recs, off
		}
		end = start + int(n)
		recs = append(recs, refRecord{k: k, val: val, off: off, next: end})
	}
	return recs, end
}

// FuzzShardDecode opens a cache directory whose one shard file holds
// three intact records, then the fuzz bytes. Open must not panic;
// parseRecord must agree with the reference decoder record by record;
// each intact record must be served byte-identical unless a later
// intact record reuses its key (the last one wins); and damage may
// show only as misses and DamagedFiles, and the load cuts the file
// back to its intact records.
func FuzzShardDecode(f *testing.F) {
	h := testHash("fuzz")
	rec := func(scope string, idx int, val string) []byte {
		return encodeRecord(h, keyFor(h, scope, idx), []byte(val))
	}
	two := append(rec(fuzzScope, 1, "last record wins"), rec("tail", 0, "new")...)
	flipped := rec("tail", 0, "checksummed")
	flipped[prefixLen+len(Key{})+4] ^= 0xff
	long := rec("tail", 0, "x")
	binary.LittleEndian.PutUint32(long[prefixLen+len(Key{}):], maxValueLen+1)

	f.Add(two)              // an intact two-record shard
	f.Add(two[:len(two)-3]) // a torn tail
	f.Add(flipped)          // a flipped CRC byte
	f.Add(long)             // a length past maxValueLen
	f.Add([]byte{})         // nothing after the intact records
	f.Fuzz(func(t *testing.T, tail []byte) {
		vals := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xa5}, 300)}
		var data []byte
		for i, v := range vals {
			data = append(data, encodeRecord(h, keyFor(h, fuzzScope, i), v)...)
		}
		data = append(data, tail...)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "shard-00.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}

		recs, end := refDecode(data)
		want := make(map[Key][]byte)
		var wantBytes int64
		for _, r := range recs {
			k, val, next, ok := parseRecord(data, r.off)
			if !ok || k != r.k || next != r.next || !bytes.Equal(val, r.val) {
				t.Fatalf("parseRecord at %d = (%x, %q, %d, %v), want the intact record (%x, %q, %d)",
					r.off, k[:4], val, next, ok, r.k[:4], r.val, r.next)
			}
			if old, dup := want[r.k]; dup {
				wantBytes -= int64(len(old))
			}
			want[r.k] = r.val
			wantBytes += int64(len(r.val))
		}
		wantDamaged := 0
		if end < len(data) {
			wantDamaged = 1
			if _, _, _, ok := parseRecord(data, end); ok {
				t.Fatalf("parseRecord accepts the damaged record at %d", end)
			}
		}

		c := openWithHash(dir, h)
		defer c.Close()
		for i := range vals {
			got, ok := c.Get(fuzzScope, i)
			if w := want[keyFor(h, fuzzScope, i)]; !ok || !bytes.Equal(got, w) {
				t.Fatalf("record %d served (%q, %v), want %q", i, got, ok, w)
			}
		}
		st := c.Stats()
		if st.Entries != len(want) || st.Bytes != wantBytes || st.DamagedFiles != wantDamaged || st.MemoryOnly {
			t.Fatalf("stats %+v, want %d entries, %d bytes, %d damaged files", st, len(want), wantBytes, wantDamaged)
		}
		if fi, err := os.Stat(filepath.Join(dir, "shard-00.bin")); err != nil || fi.Size() != int64(end) {
			t.Fatalf("shard after Open: %v, %v; want it cut back to its %d intact bytes", fi, err, end)
		}
	})
}
