#!/bin/sh
# Paired A/B benchmark of this checkout against a git revision:
#
#   scripts/ab.sh <rev> [workload...]
#
# It builds <rev> in a temporary git worktree (removed on exit) and, for
# each workload (default: every workload BENCHMARK.json lists), runs
#
#   bash perfbench/run.sh --workload W --seed 42 --seconds S --trace 0
#
# ten times in each checkout, alternating which side goes first in each
# pair, with S the run_seconds BENCHMARK.json fixes. It then prints one
# markdown row per workload and BENCHMARK.json end-to-end metric: both
# medians, each side's interquartile range, in how many pairs this
# checkout was better, and each side's failed/attempted cell counts
# summed over its runs.
#
# It needs only sh, git and awk, and writes only under each checkout's
# .bench_build/ and a temporary directory.
set -eu

if [ $# -lt 1 ]; then
	echo "usage: scripts/ab.sh <rev> [workload...]" >&2
	exit 2
fi
rev=$1
shift
# Ten alternating pairs: the fewest that can show a win in nine of ten.
pairs=10

head=$(git rev-parse --show-toplevel)
bench=$head/BENCHMARK.json
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
cleanup() {
	git -C "$head" worktree remove --force "$base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git -C "$head" worktree add --detach --quiet "$base" "$rev"

# run_one DIR WORKLOAD OUT appends the run's result line (the last line
# perfbench prints) to OUT, or an empty result when the run printed
# none.
run_one() {
	line=$(cd "$1" && bash perfbench/run.sh --workload "$2" --seed 42 \
		--seconds "$secs" --trace 0 2>"$tmp/stderr" | tail -n 1) || true
	case $line in
	'{'*) echo "$line" >>"$3" ;;
	*)
		echo "ab.sh: $2 in $1 printed no result:" >&2
		tail -n 5 "$tmp/stderr" >&2
		echo '{"attempted":0,"failed":0,"metrics":{}}' >>"$3"
		;;
	esac
}

for w in "$@"; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		echo "ab.sh: $w pair $i of $pairs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run_one "$base" "$w" "$tmp/$w.base"
			run_one "$head" "$w" "$tmp/$w.head"
		else
			run_one "$head" "$w" "$tmp/$w.head"
			run_one "$base" "$w" "$tmp/$w.base"
		fi
		i=$((i + 1))
	done
done

echo "$pairs alternating pairs per workload, --seconds $secs, seed 42; base = $rev"
echo
echo "| workload | metric | base median | head median | base IQR | head IQR | head better | base failed/attempted | head failed/attempted |"
echo "|---|---|---|---|---|---|---|---|---|"
for w in "$@"; do
	awk -v w="$w" '
	# value returns the number after "key": in a result line.
	function value(l, key,    s) {
		s = l
		if (!sub(".*\"" key "\":(\\{\"value\":)?", "", s)) return ""
		sub(/[,}].*/, "", s)
		return s
	}
	# quantile of the sorted v[1..n] (linear interpolation).
	function quantile(v, n, p,    h, lo) {
		if (n == 0) return "n/a"
		h = (n - 1) * p + 1
		lo = int(h)
		if (lo >= n) return v[n]
		return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
	}
	function sortn(v, n,    i, j, x) {
		for (i = 2; i <= n; i++) {
			x = v[i]
			for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
			v[j + 1] = x
		}
	}
	FILENAME ~ /BENCHMARK.json$/ {
		if ($0 ~ /"end_to_end"/) inE2E = 1
		else if ($0 ~ /"per_layer"/) inE2E = 0
		if (inE2E && match($0, /"name": *"[^"]*"/)) {
			name = substr($0, RSTART, RLENGTH)
			sub(/"name": *"/, "", name)
			sub(/"$/, "", name)
			metrics[++nm] = name
		}
		if (inE2E && $0 ~ /"better": *"higher"/) higher[name] = 1
		next
	}
	{
		side = FILENAME ~ /\.base$/ ? "base" : "head"
		k = ++n[side]
		line[side, k] = $0
		att[side] += value($0, "attempted")
		fail[side] += value($0, "failed")
	}
	END {
		for (m = 1; m <= nm; m++) {
			name = metrics[m]
			wins = 0
			pairs = 0
			for (k = 1; k <= n["base"] && k <= n["head"]; k++) {
				b = value(line["base", k], name)
				h = value(line["head", k], name)
				if (b == "" || h == "") continue
				pairs++
				if (higher[name] ? h + 0 > b + 0 : h + 0 < b + 0) wins++
			}
			out = "| " w " | " name
			for (s = 1; s <= 2; s++) {
				side = s == 1 ? "base" : "head"
				c = 0
				for (k = 1; k <= n[side]; k++) {
					x = value(line[side, k], name)
					if (x != "") v[++c] = x + 0
				}
				sortn(v, c)
				med[side] = quantile(v, c, 0.5)
				iqr[side] = c ? quantile(v, c, 0.75) - quantile(v, c, 0.25) : "n/a"
			}
			printf "%s | %.4g | %.4g | %.3g | %.3g | %d of %d | %d/%d | %d/%d |\n", out,
				med["base"], med["head"], iqr["base"], iqr["head"], wins, pairs,
				fail["base"], att["base"], fail["head"], att["head"]
		}
	}' "$bench" "$tmp/$w.base" "$tmp/$w.head"
done
