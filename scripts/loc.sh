#!/bin/sh
# Net Go lines against a revision: the figure ROADMAP aim 2 asks every PR
# to report in CHANGES.md.
#
#   scripts/loc.sh <rev> [--moved <old>:<new>]...      (make loc REV=<rev>)
#
# Reads `git diff --numstat <rev>` — <rev> against the working tree, so a
# new file counts once it is `git add`ed — keeps the .go files and prints
# added/removed/net lines per package as a markdown table, split into
# non-test, test (*_test.go) and bench/ (everything under it), with a
# total row; the non-test total outside bench/ is the PR's headline.
# A file that moved is named with --moved (paths from the repository root):
# it is counted as the lines that differ between <old> at <rev> and <new>
# now, under <new>'s package, instead of once removed and once added — a
# move counts as zero.
set -eu

cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { echo "usage: scripts/loc.sh <rev> [--moved <old>:<new>]..." >&2; exit 2; }
REV="$1"
shift
git rev-parse --verify --quiet "$REV^{commit}" > /dev/null || { echo "loc: unknown revision $REV" >&2; exit 2; }

TMP="$(mktemp -d /tmp/aggview-loc.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT
: > "$TMP/moved"
while [ $# -gt 0 ]; do
    [ "$1" = "--moved" ] && [ $# -ge 2 ] || { echo "loc: unexpected argument $1" >&2; exit 2; }
    OLD="${2%%:*}"
    NEW="${2#*:}"
    git show "$REV:$OLD" > "$TMP/old.go"
    # --no-index exits 1 when the files differ.
    COUNT="$(git diff --no-index --numstat "$TMP/old.go" "$NEW" | cut -f1,2 || true)"
    printf '%s\t%s\n' "${COUNT:-0	0}" "$NEW" >> "$TMP/counted"
    printf '%s\n%s\n' "$OLD" "$NEW" >> "$TMP/moved"
    shift 2
done

git diff --numstat --no-renames "$REV" -- '*.go' | grep -v -F -f "$TMP/moved" >> "$TMP/counted" || true

awk -F'\t' '
function net(a, r) { return sprintf("+%d -%d (%+d)", a, r, a - r) }
{
    path = $3
    kind = path ~ /^bench\// ? "bench" : path ~ /_test\.go$/ ? "test" : "code"
    pkg = path
    if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
    pkgs[pkg] = 1
    add[pkg, kind] += $1; del[pkg, kind] += $2
    tadd[kind] += $1; tdel[kind] += $2
}
END {
    print "| package | non-test | test | bench/ |"
    print "|---|---|---|---|"
    n = 0
    for (p in pkgs) names[++n] = p
    for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) if (names[j] < names[i]) { t = names[i]; names[i] = names[j]; names[j] = t }
    for (i = 1; i <= n; i++) {
        p = names[i]
        printf "| `%s` | %s | %s | %s |\n", p, net(add[p, "code"], del[p, "code"]), net(add[p, "test"], del[p, "test"]), net(add[p, "bench"], del[p, "bench"])
    }
    printf "| **total** | **%s** | %s | %s |\n", net(tadd["code"], tdel["code"]), net(tadd["test"], tdel["test"]), net(tadd["bench"], tdel["bench"])
}' "$TMP/counted"
