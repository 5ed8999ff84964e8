#!/bin/sh
# Regenerates BENCH_sim.json, the committed snapshot of the simulator
# hot-path microbenchmarks. Run from the repo root (or via
# `make bench-snapshot`) on a quiet machine; commit the result so perf
# regressions in the dispatch/commit paths show up in review diffs.
# The gate is two-sided: perfcheck also fails on improvements beyond
# its -improve-threshold, and this script is how that failure is
# resolved — rerun it so the speedup becomes the enforced baseline.
#
# Each benchmark runs 3 times (perfcheck's default -runs), and the
# snapshot records its fastest run, with that run's iterations, B/op
# and allocs/op. That is the statistic perfcheck gates, so a snapshot
# taken while the host is slow for a minute does not make untouched
# code fail the gate as "improved".
set -eu

cd "$(dirname "$0")/.."
out=BENCH_sim.json

raw=$(go test -run '^$' -bench 'Rendezvous|StoreCommit|StoreDMB|CompiledDispatch|CellCacheHit|DirectoryRank|DirectorySharerChurn|BarrierScale|ExploreStates|LockHandoff' -benchmem -count 3 \
	./internal/sim ./internal/cellcache ./internal/mesi ./internal/barrier ./internal/explore ./internal/locks)

# Result-cache context: time `-quick all` cold (fresh cache dir) and
# warm (same dir, every cell replayed from disk). Recorded in the
# snapshot for reviewers — perfcheck prints but does not gate it.
bin=$(mktemp -d)/armbar
cachedir=$(mktemp -d)
trap 'rm -rf "$(dirname "$bin")" "$cachedir"' EXIT
go build -o "$bin" ./cmd/armbar
cold0=$(date +%s.%N)
"$bin" -quick -times=false -cache-dir "$cachedir" all > /dev/null
cold1=$(date +%s.%N)
"$bin" -quick -times=false -cache-dir "$cachedir" all > /dev/null
warm1=$(date +%s.%N)
cold=$(awk -v a="$cold0" -v b="$cold1" 'BEGIN { printf "%.2f", b - a }')
warm=$(awk -v a="$cold1" -v b="$warm1" 'BEGIN { printf "%.2f", b - a }')

printf '%s\n' "$raw" | awk \
    -v goversion="$(go env GOVERSION)" \
    -v maxprocs="${GOMAXPROCS:-$(nproc)}" \
    -v date="$(date -u +%Y-%m-%d)" \
    -v cold="$cold" -v warm="$warm" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    # Key metrics off their unit labels, not field positions: custom
    # benchmark metrics (e.g. ExploreStates states/sec) insert columns.
    ns = "0"; bytes = "0"; allocs = "0"
    for (i = 3; i < NF; i += 2) {
        if ($(i+1) == "ns/op") ns = $i
        else if ($(i+1) == "B/op") bytes = $i
        else if ($(i+1) == "allocs/op") allocs = $i
    }
    # Keep the fastest run of each benchmark, in first-seen order.
    if (!(name in best)) order[++n] = name
    else if (ns + 0 >= best[name] + 0) next
    best[name] = ns
    benches[name] = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
        name, $2, ns, bytes, allocs)
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    if (n == 0) { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    print "{"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"gomaxprocs\": %s,\n", maxprocs
    printf "  \"cold_wall_seconds\": %s,\n", cold
    printf "  \"warm_wall_seconds\": %s,\n", warm
    print "  \"benchmarks\": ["
    for (i = 1; i <= n; i++) printf "%s%s\n", benches[order[i]], (i < n ? "," : "")
    print "  ]"
    print "}"
}' > "$out"

# Every regeneration also appends the snapshot as one compact JSON
# line to the committed history, so `armbar perfcheck` can show how
# the baseline itself drifted across refreshes. Indentation is
# line-leading only and JSON strings hold no newlines, so stripping
# leading whitespace and joining lines is a faithful compaction.
hist=BENCH_history.jsonl
awk '{ sub(/^[ \t]+/, ""); printf "%s", $0 } END { print "" }' "$out" >> "$hist"

# A snapshot is only comparable to runs from the same toolchain and
# commit, so record where it came from next to it.
manifest=BENCH_sim.manifest.json
rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
dirty=$(git status --porcelain 2>/dev/null | grep -q . && echo '+dirty' || true)
cat > "$manifest" <<EOF
{
  "tool": "bench_snapshot.sh",
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "go_version": "$(go env GOVERSION)",
  "git_revision": "$rev$dirty",
  "gomaxprocs": ${GOMAXPROCS:-$(nproc)},
  "snapshot": "$out"
}
EOF

echo "wrote $out and $manifest, appended to $hist:"
cat "$out"
