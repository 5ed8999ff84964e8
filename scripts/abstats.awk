# Pair statistics and verdicts of scripts/ab.sh. For one workload it
# prints one markdown row per metric and exits 1 if any row is worse:
#
#   awk -v w=WORKLOAD -f scripts/abstats.awk SPEC BASE HEAD
#
# SPEC names the metrics in BENCHMARK.json's layout: entries of an
# "end_to_end" array with "name", "better" and "bound" each on a line
# of its own. BASE and HEAD hold one result line per run, in pair
# order:
#
#   {"attempted":N,"failed":N,"metrics":{"NAME":{"value":V},...}}
#
# A run that printed no result has no metrics. Each row shows both
# medians, each side's interquartile range, in how many pairs head was
# better, each side's failed/attempted counts summed over its runs, and
# the verdict. A row is worse when head's median is worse than base's
# by more than the metric's bound, a fraction of base's median in the
# metric's better direction (with bound 0, worse at all), or when a
# run printed no value for the metric.

# value returns the number after "key": in a result line, or "".
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

# verdict compares head's median h with base's median b: "ok" or
# "WORSE", with head's change relative to base.
function verdict(name, b, h,    change, bad) {
	change = b != 0 ? sprintf("%+.1f%%", 100 * (h - b) / b) : sprintf("%g -> %g", b, h)
	if (higher[name]) bad = h < b * (1 - bound[name])
	else bad = h > b * (1 + bound[name])
	if (bad) return sprintf("WORSE (%s, bound %g%%)", change, 100 * bound[name])
	return "ok (" change ")"
}

FILENAME == ARGV[1] {
	if ($0 ~ /"end_to_end"/) inE2E = 1
	else if ($0 ~ /"per_layer"/) inE2E = 0
	if (!inE2E) next
	if (match($0, /"name": *"[^"]*"/)) {
		name = substr($0, RSTART, RLENGTH)
		sub(/"name": *"/, "", name)
		sub(/"$/, "", name)
		metrics[++nm] = name
	}
	if ($0 ~ /"better": *"higher"/) higher[name] = 1
	if (match($0, /"bound": *[0-9.]+/)) {
		b = substr($0, RSTART, RLENGTH)
		sub(/"bound": */, "", b)
		bound[name] = b + 0
	}
	next
}

{
	side = FILENAME == ARGV[2] ? "base" : "head"
	k = ++n[side]
	line[side, k] = $0
	att[side] += value($0, "attempted")
	fail[side] += value($0, "failed")
}

END {
	status = 0
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
		missing = 0
		for (s = 1; s <= 2; s++) {
			side = s == 1 ? "base" : "head"
			c = 0
			for (k = 1; k <= n[side]; k++) {
				x = value(line[side, k], name)
				if (x != "") v[++c] = x + 0
			}
			missing += n[side] - c
			sortn(v, c)
			med[side] = quantile(v, c, 0.5)
			iqr[side] = c ? quantile(v, c, 0.75) - quantile(v, c, 0.25) : "n/a"
		}
		if (missing > 0) verdict_s = "WORSE (" missing " run(s) printed no result)"
		else verdict_s = verdict(name, med["base"], med["head"])
		if (verdict_s ~ /^WORSE/) status = 1
		printf "| %s | %s | %.4g | %.4g | %.3g | %.3g | %d of %d | %d/%d | %d/%d | %s |\n",
			w, name, med["base"], med["head"], iqr["base"], iqr["head"], wins, pairs,
			fail["base"], att["base"], fail["head"], att["head"], verdict_s
	}
	exit status
}
