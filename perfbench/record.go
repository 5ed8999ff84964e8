package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// host fingerprints the machine a record was measured on; compare
// refuses to set records from unlike hosts side by side.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_rev"`
}

func hostFingerprint() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), gitRev(".")}
}

// unlike names the first fingerprint field two hosts differ in, or ""
// when they match. The git revision is what a comparison compares, so
// it may differ.
func unlike(a, b host) string {
	switch {
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel)
	}
	return ""
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD by reading .git under root directly, so no git
// binary is needed; a tree without .git reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size so far, in MiB:
// VmHWM from /proc/self/status (in KiB), 0 where that does not exist.
// The set-up and the warm-up pass do the same work as a measured pass,
// so the lifetime peak is the peak of the workload. getrusage's
// ru_maxrss would not do: Linux carries it across fork and exec, so it
// reports the launching process's peak when that is larger.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in print order. BENCHMARK.json
// gates the first four, which every workload reports; the other three
// are zero on some workloads, so they are printed and recorded only.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"cells_per_s", "1/s"}, {"max_rss_mb", "MB"},
	{"sim_ops_per_s", "1/s"}, {"states_per_s", "1/s"}, {"fail_frac", "frac"},
}

// perLayer lists every metric of a traced run in report order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runner.cells", "count"},
		{"runner.queue_wait_p50_ms", "ms"}, {"runner.queue_wait_p90_ms", "ms"},
		{"runner.service_p50_ms", "ms"}, {"runner.service_p90_ms", "ms"},
		{"runner.busy_frac", "frac"},
		{"sim.ops", "count"}, {"sim.park_wakes", "count"}, {"sim.handoff_frac", "frac"},
		{"sim.host_ns_per_op", "ns"}, {"sim.threads_max", "count"},
		{"mesi.misses", "count"}, {"mesi.stale_reads", "count"},
		{"sb.max_occupancy", "count"}, {"ace.sync_txns", "count"},
		{"prog.build_ms", "ms"}, {"barrier.spawn_ms", "ms"}, {"barrier.run_ms", "ms"},
		{"explore.states", "count"}, {"explore.placements", "count"},
		{"explore.case_p50_ms", "ms"}, {"explore.case_p90_ms", "ms"},
		{"cellcache.open_ms", "ms"},
		{"cellcache.get_p50_us", "us"}, {"cellcache.get_p99_us", "us"},
		{"cellcache.put_p50_us", "us"}, {"cellcache.put_p99_us", "us"},
		{"cellcache.hit_frac", "frac"}, {"cellcache.bytes", "bytes"},
		{"figures.exp_p50_ms", "ms"}, {"figures.render_ms", "ms"},
		{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
	}
	for _, b := range buckets {
		defs = append(defs, metricDef{"host_share." + b, "frac"})
	}
	return append(defs, metricDef{"bench.trace_overhead_frac", "frac"}, metricDef{"bench.profile_samples", "count"})
}()

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured. Each run writes it to
// <workdir>/<workload>-trace<0|1>.json for compare and report.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Host        host                   `json:"host"`
	CPU         int                    `json:"pinned_cpu"` // -1: not pinned
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Digest      string                 `json:"digest"` // over every cell key's digest
	Counts      map[string]uint64      `json:"counts"` // one pass's deterministic counts
	PassWalls   []float64              `json:"pass_walls_s"`
	SetupRuns   []float64              `json:"setup_runs_s,omitempty"`
	Metrics     map[string]metric      `json:"metrics"`
	Extra       map[string]metric      `json:"extra,omitempty"`
	Unsupported []string               `json:"unsupported_percentiles,omitempty"`
	Samples     int64                  `json:"profile_samples,omitempty"`
	Buckets     map[string]int64       `json:"bucket_samples,omitempty"`
	Groups      map[string]int64       `json:"group_samples,omitempty"`
	Calls       map[string]callSummary `json:"calls,omitempty"` // over the kept spans
	Dropped     int                    `json:"spans_dropped,omitempty"`
}

// callSummary is one span name's count, total and self time over the
// traced passes. Self time is the total minus the spans nested directly
// under it; cells run in parallel under a pass, so a pass has none.
type callSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms,omitempty"`
}

func newRecord(b *bench, seconds, trace int, warm passStats) *record {
	return &record{Workload: b.w.name, Seed: b.seed, Seconds: seconds, Trace: trace,
		Host: b.host, Digest: b.digest(), Counts: warm.counts()}
}

// digest folds every cell key's digest, in key order, into one.
func (b *bench) digest() string {
	keys := make([]string, 0, len(b.want))
	for k := range b.want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]any, 0, 2*len(keys))
	for _, k := range keys {
		parts = append(parts, k, b.want[k])
	}
	return digestOf(parts...)
}

// setEndToEnd fills the untraced run's metrics from the measured
// passes. wall_s is the fastest pass and the throughputs the fastest
// pass's work over its wall time: noise from other tenants of a shared
// host only ever slows a pass down, and on the 2-core development host
// the fastest of a run's passes varied half as much from run to run as
// their median did. max_rss_mb is the process's peak resident set size
// and setup_s the median fresh-process set-up.
func (rec *record) setEndToEnd(passes []passStats, setups []float64) {
	var cells, ops, states float64
	for _, ps := range passes {
		rec.PassWalls = append(rec.PassWalls, ps.wall)
		cells = max(cells, float64(ps.cells)/ps.wall)
		ops = max(ops, float64(ps.ops)/ps.wall)
		states = max(states, float64(ps.states)/ps.wall)
	}
	rec.SetupRuns = setups
	rec.Metrics = map[string]metric{
		"wall_s":      {slices.Min(rec.PassWalls), "s"},
		"setup_s":     {median(setups), "s"},
		"cells_per_s": {cells, "1/s"},
		"max_rss_mb":  {peakRSSMB(), "MB"},
	}
	rec.Extra = map[string]metric{}
	if ops > 0 {
		rec.Extra["sim_ops_per_s"] = metric{ops, "1/s"}
	}
	if states > 0 {
		rec.Extra["states_per_s"] = metric{states, "1/s"}
	}
}

// setPerLayer fills the traced run's metrics. Counts are one pass's
// (they repeat exactly); times come from the traced passes' spans; the
// host shares from the CPU profile taken over them.
func (rec *record) setPerLayer(b *bench, untraced, traced []passStats, samples []profSample) {
	t := &b.tr
	last := traced[len(traced)-1]
	var wall, service, simService, ops, hits, gets float64
	var twalls, uwalls, allocs, gcs []float64
	for _, ps := range traced {
		wall += ps.wall
		service += ps.service
		simService += ps.simService
		ops += float64(ps.ops)
		hits += float64(ps.hits)
		gets += float64(ps.gets)
		twalls = append(twalls, ps.wall)
		allocs = append(allocs, float64(ps.allocBytes)/1e6)
		gcs = append(gcs, float64(ps.gcCycles))
	}
	for _, ps := range untraced {
		uwalls = append(uwalls, ps.wall)
	}
	rec.PassWalls = twalls
	m := map[string]metric{}
	set := func(name string, v float64) { m[name] = metric{Value: v} }
	pct := func(name string, xs []float64, p, scale float64) {
		v, ok := percentile(xs, p)
		if !ok && len(xs) > 0 {
			rec.Unsupported = append(rec.Unsupported, fmt.Sprintf("%s (%d samples)", name, len(xs)))
		}
		set(name, v*scale)
	}
	set("runner.cells", float64(last.cells))
	pct("runner.queue_wait_p50_ms", t.queueWait, 0.5, 1)
	pct("runner.queue_wait_p90_ms", t.queueWait, 0.9, 1)
	pct("runner.service_p50_ms", t.service, 0.5, 1)
	pct("runner.service_p90_ms", t.service, 0.9, 1)
	set("runner.busy_frac", ratio(service, wall*float64(b.par)))
	set("sim.ops", float64(last.ops))
	set("sim.park_wakes", float64(last.parkWakes))
	set("sim.handoff_frac", ratio(float64(last.parkWakes), float64(last.ops)))
	set("sim.host_ns_per_op", ratio(simService*1e9, ops))
	set("sim.threads_max", float64(last.threadsMax))
	set("mesi.misses", float64(last.misses))
	set("mesi.stale_reads", float64(last.staleReads))
	set("sb.max_occupancy", float64(last.maxStoreBuf))
	set("ace.sync_txns", float64(last.syncTxns))
	set("prog.build_ms", median(t.calls["barrier.Programs"]))
	set("barrier.spawn_ms", median(t.calls["barrier.Spawn"]))
	set("barrier.run_ms", median(t.calls["sim.Machine.Run"]))
	set("explore.states", float64(last.states))
	set("explore.placements", float64(last.placements))
	pct("explore.case_p50_ms", t.calls["explore.CheckCase"], 0.5, 1)
	pct("explore.case_p90_ms", t.calls["explore.CheckCase"], 0.9, 1)
	set("cellcache.open_ms", median(t.calls["cellcache.Open"]))
	pct("cellcache.get_p50_us", t.calls["cellcache.Get"], 0.5, 1e3)
	pct("cellcache.get_p99_us", t.calls["cellcache.Get"], 0.99, 1e3)
	pct("cellcache.put_p50_us", t.calls["cellcache.Put"], 0.5, 1e3)
	pct("cellcache.put_p99_us", t.calls["cellcache.Put"], 0.99, 1e3)
	set("cellcache.hit_frac", ratio(hits, gets))
	set("cellcache.bytes", float64(last.cacheBytes))
	pct("figures.exp_p50_ms", t.calls["figures.RunInstrumented"], 0.5, 1)
	set("figures.render_ms", median(t.calls["report.Render"]))
	set("go.alloc_mb", median(allocs))
	set("go.gc_cycles", median(gcs))
	byBucket, byGroup, total := foldProfile(samples)
	for _, bk := range buckets {
		set("host_share."+bk, ratio(float64(byBucket[bk]), float64(total)))
	}
	set("bench.trace_overhead_frac", ratio(median(twalls), median(uwalls))-1)
	set("bench.profile_samples", float64(total))
	if len(m) != len(perLayer) {
		panic(fmt.Sprintf("perfbench: computed %d per-layer metrics, perLayer lists %d", len(m), len(perLayer)))
	}
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			panic("perfbench: per-layer metric " + d.name + " not computed")
		}
		v.Unit = d.unit
		m[d.name] = v
	}
	rec.Metrics, rec.Samples, rec.Buckets, rec.Groups = m, total, byBucket, byGroup
	rec.Calls, rec.Dropped = summarizeCalls(t.spans), t.dropped
}

func summarizeCalls(spans []span) map[string]callSummary {
	out := map[string]callSummary{}
	nested := map[string]float64{}
	for _, s := range spans {
		c := out[s.Name]
		c.Count++
		c.TotalMs += s.Dur / 1e3
		out[s.Name] = c
		nested[s.Parent] += s.Dur / 1e3
	}
	for name, c := range out {
		if name != "pass" {
			c.SelfMs = c.TotalMs - nested[name]
			out[name] = c
		}
	}
	return out
}

// print writes the human-readable summary of a record.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "# perfbench %s seed=%d trace=%d: %d measured passes, %d of %d cells failed\n",
		rec.Workload, rec.Seed, rec.Trace, len(rec.PassWalls), rec.Failed, rec.Attempted)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d %s %q rev %s, pinned to cpu %d\n",
		rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.CPUModel, rec.Host.GitRev, rec.CPU)
	if rec.Trace == 0 {
		for _, d := range endToEnd {
			m, ok := rec.Metrics[d.name]
			if !ok {
				m, ok = rec.Extra[d.name]
			}
			if d.name == "fail_frac" {
				m, ok = metric{ratio(float64(rec.Failed), float64(rec.Attempted)), d.unit}, true
			}
			if !ok {
				fmt.Fprintf(w, "  %-14s n/a\n", d.name)
				continue
			}
			fmt.Fprintf(w, "  %-14s %-14.6g %s\n", d.name, m.Value, d.unit)
		}
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-28s %-14.6g %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	for _, u := range rec.Unsupported {
		fmt.Fprintf(w, "  note: %s: fewer than 10 samples beyond the percentile, reported as 0\n", u)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// reportCmd prints the per-layer metrics of traced-run records side by
// side, one column per workload, then each host_share bucket's base
// sample count and the share of samples the named buckets cover.
func reportCmd(args []string) int {
	fs := flagSet("report")
	workdir := fs.String("workdir", defaultWorkdir, "where runs left their records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		for _, w := range workloads {
			p := filepath.Join(*workdir, w.name+"-trace1.json")
			if _, err := os.Stat(p); err == nil {
				files = append(files, p)
			}
		}
	}
	var recs []*record
	for _, f := range files {
		r, err := loadRecord(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			return 1
		}
		if r.Trace != 1 {
			fmt.Fprintf(os.Stderr, "perfbench report: %s is not a traced run\n", f)
			return 1
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench report: no traced-run records; run with --trace 1 first")
		return 1
	}
	for _, r := range recs[1:] {
		if why := unlike(recs[0].Host, r.Host); why != "" {
			fmt.Fprintf(os.Stderr, "perfbench report: warning: records from unlike hosts (%s)\n", why)
		}
	}
	header := func(first string) {
		fmt.Printf("%-35s", first)
		for _, r := range recs {
			fmt.Printf(" %14s", r.Workload)
		}
		fmt.Println()
	}
	header("metric (unit)")
	for _, d := range perLayer {
		fmt.Printf("%-35s", d.name+" ("+d.unit+")")
		for _, r := range recs {
			fmt.Printf(" %14.4g", r.Metrics[d.name].Value)
		}
		fmt.Println()
	}
	fmt.Println()
	header("bucket samples / profile samples")
	for _, bk := range buckets {
		fmt.Printf("%-35s", "host_share."+bk)
		for _, r := range recs {
			fmt.Printf(" %14s", fmt.Sprintf("%d/%d", r.Buckets[bk], r.Samples))
		}
		fmt.Println()
	}
	fmt.Printf("%-35s", "covered by named buckets")
	for _, r := range recs {
		fmt.Printf(" %14.3f", 1-ratio(float64(r.Buckets["other"]), float64(r.Samples)))
	}
	fmt.Println()
	return 0
}

// compareCmd sets two records of one workload side by side. It refuses
// records from unlike hosts or with different settings; for records of
// the same seed it also checks that the deterministic counts and the
// digest agree, and exits 1 when they do not.
func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	a, err := loadRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	b, err := loadRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	return compareRecords(a, b)
}

func compareRecords(a, b *record) int {
	if why := unlike(a.Host, b.Host); why != "" {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare records from unlike hosts: %s\n", why)
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing to compare runs of different workloads or settings")
		return 2
	}
	fmt.Printf("%s trace=%d: %s -> %s\n", a.Workload, a.Trace, a.Host.GitRev, b.Host.GitRev)
	old := maps.Clone(a.Metrics)
	maps.Copy(old, a.Extra)
	cur := maps.Clone(b.Metrics)
	maps.Copy(cur, b.Extra)
	names := make([]string, 0, len(old))
	for n := range old {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		was, now := old[n].Value, cur[n].Value
		change := "n/a"
		if was != 0 {
			change = fmt.Sprintf("%+.1f%%", (now/was-1)*100)
		}
		fmt.Printf("  %-28s %14.6g %14.6g %9s  %s\n", n, was, now, change, old[n].Unit)
	}
	if a.Seed != b.Seed {
		return 0
	}
	if a.Digest != b.Digest || !maps.Equal(a.Counts, b.Counts) {
		fmt.Println("deterministic counts or digest DIFFER")
		return 1
	}
	fmt.Println("deterministic counts and digest identical")
	return 0
}
