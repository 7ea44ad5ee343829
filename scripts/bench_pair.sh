#!/usr/bin/env bash
# Paired before/after benchmark: the working tree against <rev>.
#
#   scripts/bench_pair.sh <rev> <workload|all> [pairs=10] [seconds=18]
#
# Unpacks <rev> (git archive) under .bench_build/, then runs
# `bash bench/run.sh --workload W --seed S --seconds N --trace 0` on both
# trees `pairs` times, one seed per pair (5, 6, ...), alternating which
# tree goes first, and prints — per workload and metric — both medians
# with their quartiles, the ratio with its base, the pairs the working
# tree won (ties count for neither side) and a verdict, as the markdown
# table CHANGES.md carries. The rows are BENCHMARK.json's end-to-end
# metrics (with its `better` directions and `bound`s), every
# kind.<name>_p50_ms and ops_failed. Each tree builds from its own
# sources into its own .bench_build/; nothing under bench/ is touched.
# Raw run output is kept in .bench_build/pair-logs/.
#
# The verdict reads the row by the rules a claim and a regression are
# held to:
#   MOVED better / MOVED worse  the working tree won (lost) at least nine
#               tenths of the pairs and the medians are further apart than
#               the parent's own quartile distance — or, for worse, its
#               median is worse than the parent's by more than the
#               metric's bound with the runs telling the sides apart;
#   UNRESOLVED  neither of those, and a side's quartile distance is wider
#               than the bound while the two sides' runs interleave: the
#               row cannot show the metric stayed inside its bound;
#   PASS        none of the above: no worse than the parent by more than
#               the bound, on runs tight enough to say so.
# Rows without a bound (the per-kind medians, ops_failed) can only be
# MOVED or "-".
#
# After the pairs, each tree makes one traced run (--trace 1) on the
# first seed, and a second table sets BENCHMARK.json's per-layer rows
# side by side. One run a side: those rows are single readings, to say
# which layer a moved end-to-end row moved in, not verdicts.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <rev> <workload|all> [pairs=10] [seconds=18]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-18}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --short "$rev^{commit}")"
tree="$root/.bench_build/pair-$sha"
logs="$root/.bench_build/pair-logs"
mkdir -p "$logs"
rm -f "$logs"/*.log "$logs"/*.err

cleanup() { rm -rf "$tree"; }
trap cleanup EXIT
cleanup
mkdir -p "$tree"
git archive "$sha" | tar -x -C "$tree"

run() { # run <side> <dir> <pair> <seed> [trace=0]
	echo "pair $3 seed $4: $1" >&2
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$4" --seconds "$seconds" --trace "${5:-0}") \
		>"$logs/$1-$3.log" 2>"$logs/$1-$3.err" || {
		echo "bench/run.sh failed on the $1 side (pair $3); see $logs/$1-$3.err" >&2
		exit 1
	}
}
for ((p = 0; p < pairs; p++)); do
	seed=$((5 + p))
	if ((p % 2 == 0)); then
		run parent "$tree" "$p" "$seed"
		run change "$root" "$p" "$seed"
	else
		run change "$root" "$p" "$seed"
		run parent "$tree" "$p" "$seed"
	fi
done
run parent "$tree" trace 5 1
run change "$root" trace 5 1

# Metric lines read "<workload> <name> <value> <unit> ...".
echo "Parent $sha against the working tree ($(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . ':!ISSUE.md' || echo '+uncommitted')): $pairs alternating pairs, seeds 5-$((4 + pairs)), --seconds $seconds --trace 0; median [q1-q3]."
echo
echo "| workload | metric | parent | change | change / parent | pairs won | verdict |"
echo "|---|---|---|---|---|---|---|"
awk -v pairs="$pairs" -v logs="$logs" '
function sorted(src, n, out,    i, j, x) {
	for (i = 1; i <= n; i++) out[i] = src[i]
	for (i = 2; i <= n; i++) {
		x = out[i]
		for (j = i - 1; j >= 1 && out[j] > x; j--) out[j + 1] = out[j]
		out[j + 1] = x
	}
}
function quantile(v, n, q,    pos, lo, frac) {
	pos = (n - 1) * q + 1; lo = int(pos); frac = pos - lo
	if (lo >= n) return v[n]
	return v[lo] + frac * (v[lo + 1] - v[lo])
}
function summary(v, n,    s) {
	sorted(v, n, s)
	return sprintf("%.4g [%.4g-%.4g]", quantile(s, n, 0.5), quantile(s, n, 0.25), quantile(s, n, 0.75))
}
function median(v, n,    s) { sorted(v, n, s); return quantile(s, n, 0.5) }
# verdict: see the header. worse is how far the median of the change sits
# on the wrong side of the median of the parent, as a fraction of it.
function verdict(m, a, c, n, won, lost,    sa, sc, ma, mc, iqa, iqc, worse, apart, mixed, wide) {
	sorted(a, n, sa); sorted(c, n, sc)
	ma = quantile(sa, n, 0.5); mc = quantile(sc, n, 0.5)
	iqa = quantile(sa, n, 0.75) - quantile(sa, n, 0.25); iqc = quantile(sc, n, 0.75) - quantile(sc, n, 0.25)
	worse = (ma != 0) ? (mc - ma) / ma : 0
	if (better[m] == "higher") worse = -worse
	apart = (mc > ma ? mc - ma : ma - mc) > iqa
	mixed = !(sc[n] < sa[1] || sc[1] > sa[n])
	if (apart && won * 10 >= n * 9) return "MOVED better"
	if (apart && lost * 10 >= n * 9) return "MOVED worse"
	if (!(m in bound)) return "-"
	wide = ma != 0 && (iqa > bound[m] * ma || iqc > bound[m] * ma)
	if (wide && mixed) return "UNRESOLVED"
	if (worse > bound[m]) return "MOVED worse"
	return "PASS"
}
BEGIN {
	# Directions and row order from BENCHMARK.json: end-to-end metrics only.
	while ((getline line < "BENCHMARK.json") > 0) {
		if (line ~ /"end_to_end"/) sect = 1
		else if (line ~ /"per_layer"/) sect = 0
		if (!sect) continue
		if (match(line, /"name": *"[^"]+"/)) { name = line; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); order[++nm] = name; gated[name] = 1 }
		if (match(line, /"better": *"[^"]+"/)) { b = line; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[name] = b }
		if (match(line, /"bound": *[0-9.]+/)) { b = line; sub(/.*"bound": */, "", b); sub(/[^0-9.].*/, "", b); bound[name] = b + 0 }
	}
	for (p = 0; p < pairs; p++) {
		split("parent change", sides, " ")
		for (s = 1; s <= 2; s++) {
			file = logs "/" sides[s] "-" p ".log"
			while ((getline line < file) > 0) {
				n = split(line, f, " ")
				if (n < 4 || f[3] !~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/) continue
				w = f[1]; m = f[2]
				if (!(m in gated) && m !~ /^kind\..*_p50_ms$/ && m != "ops_failed") continue
				if (!(w in seenw)) { seenw[w] = 1; worder[++nw] = w }
				if (!(m in gated) && !((w, m) in seenm)) { seenm[w, m] = 1; extra[w, ++nextra[w]] = m }
				val[w, m, sides[s], p] = f[3]; have[w, m] = 1
			}
			close(file)
		}
	}
	for (i = 1; i <= nw; i++) {
		w = worder[i]
		nrow = 0
		for (k = 1; k <= nm; k++) rowm[++nrow] = order[k]
		for (k = 1; k <= nextra[w]; k++) rowm[++nrow] = extra[w, k]
		for (k = 1; k <= nrow; k++) {
			m = rowm[k]
			if (!((w, m) in have)) continue
			n = 0; won = 0; lost = 0
			for (p = 0; p < pairs; p++) {
				if (!((w, m, "parent", p) in val) || !((w, m, "change", p) in val)) continue
				n++; a[n] = val[w, m, "parent", p] + 0; c[n] = val[w, m, "change", p] + 0
				d = c[n] - a[n]
				if (better[m] != "higher") d = -d
				if (d > 0) won++
				if (d < 0) lost++
			}
			if (n == 0) continue
			ma = median(a, n); mc = median(c, n)
			ratio = (ma != 0) ? sprintf("%.3fx of %.4g", mc / ma, ma) : "-"
			printf "| `%s` | `%s` | %s | %s | %s | %d/%d | %s |\n", w, m, summary(a, n), summary(c, n), ratio, won, n, verdict(m, a, c, n, won, lost)
		}
	}
}
'

echo
echo "Per-layer rows of one traced run a side (--trace 1, seed 5): single readings, not verdicts."
echo
echo "| workload | metric | parent | change | change / parent |"
echo "|---|---|---|---|---|"
awk -v logs="$logs" '
BEGIN {
	while ((getline line < "BENCHMARK.json") > 0) {
		if (line ~ /"per_layer"/) sect = 1
		else if (line ~ /"end_to_end"/) sect = 0
		if (sect && match(line, /"name": *"[^"]+"/)) { name = line; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); order[++nm] = name; layer[name] = 1 }
	}
	split("parent change", sides, " ")
	for (s = 1; s <= 2; s++) {
		file = logs "/" sides[s] "-trace.log"
		while ((getline line < file) > 0) {
			n = split(line, f, " ")
			if (n < 4 || !(f[2] in layer) || f[3] !~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/) continue
			if (!(f[1] in seenw)) { seenw[f[1]] = 1; worder[++nw] = f[1] }
			val[f[1], f[2], sides[s]] = f[3]
		}
		close(file)
	}
	for (i = 1; i <= nw; i++) {
		w = worder[i]
		for (k = 1; k <= nm; k++) {
			m = order[k]
			if (!((w, m, "parent") in val) && !((w, m, "change") in val)) continue
			a = ((w, m, "parent") in val) ? val[w, m, "parent"] : "-"
			c = ((w, m, "change") in val) ? val[w, m, "change"] : "-"
			ratio = (a != "-" && c != "-" && a + 0 != 0) ? sprintf("%.3fx", c / a) : "-"
			printf "| `%s` | `%s` | %s | %s | %s |\n", w, m, a, c, ratio
		}
	}
}
'
