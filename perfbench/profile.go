package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"path"
	"strings"
)

// buckets are the host_share.* layers a traced run's CPU samples fold
// into, in report order. bucketOf holds the frame rules; METRICS.md
// states them in prose.
var buckets = []string{
	"sim_sched", "sim", "mesi", "sb", "ace", "prog", "workload", "explore",
	"absmodel", "cellcache", "figures", "runner", "harness", "gc", "go_sched", "other",
}

// frame is one function in a sampled stack.
type frame struct{ fn, file string }

// gcPrefixes mark a sample as garbage-collector work wherever one of
// them appears in its stack (mark workers, assists, sweeping,
// scavenging and write-barrier buffer flushes).
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.sweepone", "runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*mspan).sweep",
	"runtime.(*sweepLocked)", "runtime.(*mheap).reclaim", "runtime.(*scavengerState)",
	"runtime._GC",
}

// packageBuckets maps the packages whose frames decide a sample's
// bucket. runner holds the pool and the gob encoding and decoding of
// cached cells. Other armbar packages and the benchmark's own code fold
// into harness.
var packageBuckets = map[string]string{
	"armbar/internal/sim":       "sim",
	"armbar/internal/mesi":      "mesi",
	"armbar/internal/sb":        "sb",
	"armbar/internal/ace":       "ace",
	"armbar/internal/prog":      "prog",
	"armbar/internal/barrier":   "prog",
	"armbar/internal/locks":     "workload",
	"armbar/internal/ds":        "workload",
	"armbar/internal/pc":        "workload",
	"armbar/internal/absmodel":  "workload",
	"armbar/internal/a64":       "workload",
	"armbar/internal/dedup":     "workload",
	"armbar/internal/floorplan": "workload",
	"armbar/internal/litmus":    "workload",
	"armbar/internal/explore":   "explore",
	"armbar/internal/cellcache": "cellcache",
	"armbar/internal/figures":   "figures",
	"armbar/internal/report":    "figures",
	"armbar/internal/ablation":  "figures",
	"armbar/internal/runner":    "runner",
}

// utilityPackages are passed over when looking for the frame that
// decides a bucket, so a topology lookup is charged to the layer that
// made it.
var utilityPackages = map[string]bool{
	"armbar/internal/topo": true, "armbar/internal/isa": true, "armbar/internal/platform": true,
	"armbar/internal/core": true, "armbar/internal/metrics": true,
}

// bucketOf assigns one sampled stack (leaf first) to a bucket:
//
//  1. any garbage-collector frame: gc;
//  2. else the leaf-most armbar frame outside the utility packages
//     decides, by package — with sim split by file: sched.go (the
//     scheduler monitor, park, grant and run queue) and the compiled
//     engine's scheduling loop (*Thread).exec are sim_sched, so the
//     runtime park/wake/lock frames under them are too; absmodel's
//     clause oracle (fencereq.go, genreq.go) is absmodel, the rest of
//     absmodel is workload;
//  3. else a utility or the benchmark's own (main) frame: harness;
//  4. else a stack of runtime frames only (package runtime and
//     internal/runtime/...: the goroutine scheduler on its own stack,
//     idle processors looking for work, sysmon): go_sched;
//  5. anything else: other.
func bucketOf(frames []frame) string {
	for _, f := range frames {
		if hasAnyPrefix(f.fn, gcPrefixes) {
			return "gc"
		}
	}
	harness := false
	for _, f := range frames {
		pkg := funcPackage(f.fn)
		if pkg == "main" || utilityPackages[pkg] {
			harness = true
			continue
		}
		if !strings.HasPrefix(pkg, "armbar/") {
			continue
		}
		b := packageBuckets[pkg]
		switch {
		case b == "sim" && (f.file == "sched.go" || strings.HasSuffix(f.fn, ".(*Thread).exec")):
			return "sim_sched"
		case pkg == "armbar/internal/absmodel" && (f.file == "fencereq.go" || f.file == "genreq.go"):
			return "absmodel"
		case b != "":
			return b
		}
		return "harness"
	}
	if harness {
		return "harness"
	}
	for _, f := range frames {
		if pkg := funcPackage(f.fn); pkg != "runtime" && !strings.HasPrefix(pkg, "internal/runtime/") {
			return "other"
		}
	}
	return "go_sched"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "armbar/internal/sim.(*Thread).park" or "runtime.mcall".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profSample is one sampled stack with its sample count and labels.
type profSample struct {
	frames []frame // leaf first, inlined frames expanded
	count  int64
	labels map[string]string
}

// foldProfile sums sample counts per bucket and per cell group label
// ("-" for samples taken outside any cell).
func foldProfile(samples []profSample) (byBucket, byGroup map[string]int64, total int64) {
	byBucket, byGroup = map[string]int64{}, map[string]int64{}
	for _, s := range samples {
		byBucket[bucketOf(s.frames)] += s.count
		g := s.labels["group"]
		if g == "" {
			g = "-"
		}
		byGroup[g] += s.count
		total += s.count
	}
	return byBucket, byGroup, total
}

var errProfile = errors.New("perfbench: malformed CPU profile")

// parseProfile decodes the gzipped profile.proto runtime/pprof writes,
// keeping what bucketing needs: each sample's stack, its sample count
// (the first value) and its string labels. Field numbers follow
// github.com/google/pprof/proto/profile.proto.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		count  int64
		labels [][2]uint64 // key, str string-table indexes
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64][2]uint64{} // id -> name, filename string indexes
		locs    = map[uint64][]uint64{}  // id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, data)
				case 2:
					vals = appendVarints(vals, v, data)
				case 3: // Label
					var kv [2]uint64
					err := eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name, file uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			funcs[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				fn := funcs[f]
				ps.frames = append(ps.frames, frame{fn: str(fn[0]), file: path.Base(str(fn[1]))})
			}
		}
		if len(s.labels) > 0 {
			ps.labels = map[string]string{}
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint and fixed-width fields v holds the value; for length-delimited
// ones data holds the bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, whether the
// writer packed them (data holds the varints) or not (v is one value).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
