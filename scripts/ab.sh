#!/bin/sh
# Paired A/B benchmark of this checkout against a git revision, and the
# perf gate of `make perfcheck`:
#
#   scripts/ab.sh <rev> [workload...]
#
# It extracts <rev> into a temporary directory with `git archive`
# (removed on exit) and runs each workload ten times on each side,
# alternating which side goes first in each pair. A workload is one of
# BENCHMARK.json's workloads (the default: all of them), each run
#
#   bash perfbench/run.sh --workload W --seed 42 --seconds S --trace 0
#
# with S the run_seconds BENCHMARK.json fixes, or `micro`: the twelve
# hot-path microbenchmarks of `make bench-sim`, each run alone from a
# test binary that each side builds once.
#
# It then prints one markdown row per workload and metric (for micro,
# per benchmark and ns/op or allocs/op) with scripts/abstats.awk: both
# medians, each side's interquartile range, in how many pairs this
# checkout was better, each side's failed/attempted counts and the
# verdict. A row is worse when this checkout's median is worse than
# <rev>'s by more than the metric's bound (BENCHMARK.json's for its
# metrics, 25% for ns/op, any growth for allocs/op), or when a run
# printed no result; scripts/abmicro.json holds micro's two bounds. The
# script exits 1 if any row is worse.
#
# It needs only sh, git, tar and awk, and writes only under each
# side's .bench_build/ and the temporary directory.
set -eu

if [ $# -lt 1 ]; then
	echo "usage: scripts/ab.sh <rev> [workload...]" >&2
	exit 2
fi
rev=$1
shift
# Ten alternating pairs: the fewest that can show a win in nine of ten.
pairs=10
# The twelve hot-path microbenchmarks, as package/benchmark pairs, and
# their six packages.
micro="sim/RendezvousTwoThreads sim/StoreCommit sim/StoreDMBFull
sim/CompiledDispatch cellcache/CellCacheHit mesi/DirectoryRank1024
mesi/DirectorySharerChurn1024 barrier/BarrierScale64
barrier/BarrierScale256 barrier/BarrierScale1024 explore/ExploreStates
locks/LockHandoff"
micropkgs="sim cellcache mesi barrier explore locks"

head=$(git rev-parse --show-toplevel)
bench=$head/BENCHMARK.json
awkstats=$head/scripts/abstats.awk
secs=$(awk '/"run_seconds"/ {
	sub(/.*"run_seconds": */, ""); sub(/[^0-9.].*/, ""); print; exit
}' "$bench")
if [ -z "$secs" ]; then
	echo "ab.sh: $bench sets no run_seconds" >&2
	exit 1
fi
# The workload names are the "name" lines of its "workloads" array.
[ $# -gt 0 ] || set -- $(awk '
/"workloads"/ { on = 1 }
on && /\]/ { exit }
on && match($0, /"name": *"[^"]*"/) {
	s = substr($0, RSTART, RLENGTH)
	sub(/"name": *"/, "", s)
	sub(/"$/, "", s)
	print s
}' "$bench")

tmp=$(mktemp -d)
base=$tmp/base
# Go makes its module cache read-only; make everything removable.
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$base"
git -C "$head" archive "$rev" | tar -x -C "$base"

# dir SIDE is the source tree of side base or head.
dir() {
	if [ "$1" = base ]; then echo "$base"; else echo "$head"; fi
}

# One row set per workload; micro stands for its twelve benchmarks,
# each a row micro/PACKAGE/BENCHMARK.
rows=
for w in "$@"; do
	if [ "$w" = micro ]; then
		for pb in $micro; do rows="$rows micro/$pb"; done
		for side in base head; do
			mkdir -p "$tmp/bin/$side"
			for pkg in $micropkgs; do
				echo "ab.sh: building $side internal/$pkg" >&2
				(cd "$(dir "$side")" && go test -c -o "$tmp/bin/$side/$pkg.test" "./internal/$pkg")
			done
		done
	else
		rows="$rows $w"
	fi
done

# run_one SIDE ROW appends the run's result line to $tmp/ROW.SIDE: the
# last line perfbench prints, or the benchmark's ns/op and allocs/op in
# the same form. A run that printed no result appends one with no
# metrics.
run_one() {
	out=$tmp/$(echo "$2" | tr / _).$1
	case $2 in
	micro/*)
		pkg=${2#micro/}
		pkg=${pkg%/*}
		name=${2##*/}
		# The timeout turns a hung benchmark into a run with no result.
		line=$(cd "$(dir "$1")/internal/$pkg" && "$tmp/bin/$1/$pkg.test" \
			-test.run '^$' -test.bench "^Benchmark$name\$" -test.benchtime 200ms \
			-test.benchmem -test.timeout 2m 2>"$tmp/stderr" | awk -v b="Benchmark$name" '
			$1 == b || index($1, b "-") == 1 {
				for (i = 3; i < NF; i += 2) {
					if ($(i + 1) == "ns/op") ns = $i
					if ($(i + 1) == "allocs/op") allocs = $i
				}
			}
			END {
				if (ns != "" && allocs != "")
					printf "{\"attempted\":1,\"failed\":0,\"metrics\":{\"ns/op\":{\"value\":%s},\"allocs/op\":{\"value\":%s}}}\n", ns, allocs
			}') || true
		empty='{"attempted":1,"failed":1,"metrics":{}}'
		;;
	*)
		line=$(cd "$(dir "$1")" && bash perfbench/run.sh --workload "$2" --seed 42 \
			--seconds "$secs" --trace 0 2>"$tmp/stderr" | tail -n 1) || true
		empty='{"attempted":0,"failed":0,"metrics":{}}'
		;;
	esac
	case $line in
	'{'*) echo "$line" >>"$out" ;;
	*)
		echo "ab.sh: $2 on $1 printed no result:" >&2
		tail -n 5 "$tmp/stderr" >&2
		echo "$empty" >>"$out"
		;;
	esac
}

for r in $rows; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		echo "ab.sh: $r pair $i of $pairs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run_one base "$r"
			run_one head "$r"
		else
			run_one head "$r"
			run_one base "$r"
		fi
		i=$((i + 1))
	done
done

echo "$pairs alternating pairs per row (perfbench --seconds $secs --seed 42, micro -test.benchtime 200ms); base = $rev ($(git -C "$head" rev-parse --short "$rev")), head = this checkout"
echo
echo "| workload | metric | base median | head median | base IQR | head IQR | head better | base failed/attempted | head failed/attempted | verdict |"
echo "|---|---|---|---|---|---|---|---|---|---|"
status=0
for r in $rows; do
	spec=$bench
	case $r in micro/*) spec=$head/scripts/abmicro.json ;; esac
	f=$tmp/$(echo "$r" | tr / _)
	awk -v w="$r" -f "$awkstats" "$spec" "$f.base" "$f.head" || status=1
done
if [ "$status" -ne 0 ]; then
	echo
	echo "ab.sh: FAIL: a row is worse than $rev"
fi
exit "$status"
