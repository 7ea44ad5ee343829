#!/bin/sh
# Net Go lines against a revision: the figure ROADMAP aim 2 asks every PR
# to report in CHANGES.md.
#
#   scripts/loc.sh <rev>        (make loc REV=<rev>)
#
# Reads `git diff --color-moved=blocks <rev>` — <rev> against the working
# tree, so a new file counts once it is `git add`ed — over the .go files
# and prints added/removed/net lines per package as a markdown table,
# split into non-test, test (*_test.go, and any .go file under a testdata/
# directory: analyzer fixtures are test inputs) and bench/ (everything
# under it), with a total row; the non-test total outside bench/ is the PR's
# headline. A line git marks as moved (a block of at least 20
# alphanumeric characters removed in one place and added, the same, in
# another — within a file or across files and packages) is neither added
# nor removed: the last column counts it, as moved in (+) and out (-) of
# each package, so a move counts as zero in the others.
set -eu

cd "$(dirname "$0")/.."

[ $# -eq 1 ] || { echo "usage: scripts/loc.sh <rev>" >&2; exit 2; }
REV="$1"
git rev-parse --verify --quiet "$REV^{commit}" > /dev/null || { echo "loc: unknown revision $REV" >&2; exit 2; }

# Fixed colors make each line's class its first escape sequence: red and
# green removed and added, blue and yellow moved out and in.
git -c color.diff.old=red -c color.diff.new=green \
    -c color.diff.oldMoved=blue -c color.diff.newMoved=yellow \
    -c color.diff.oldMovedAlternative=blue -c color.diff.newMovedAlternative=yellow \
    diff --color=always --color-moved=blocks --no-renames "$REV" -- '*.go' |
awk '
function net(a, r) { return sprintf("+%d -%d (%+d)", a, r, a - r) }
# count tallies one line of the current file: added (+1) or removed (-1),
# moved or not.
function count(sign, moved,    kind, pkg) {
    kind = path ~ /^bench\// ? "bench" : path ~ /_test\.go$/ || path ~ /(^|\/)testdata\// ? "test" : "code"
    pkg = path
    if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
    pkgs[pkg] = 1
    if (moved) { mv[pkg, sign]++; tmv[sign]++ }
    else if (sign > 0) { add[pkg, kind]++; tadd[kind]++ }
    else { del[pkg, kind]++; tdel[kind]++ }
}
{
    line = $0
    gsub(/\033\[[0-9;]*m/, "", line)
    if (line ~ /^diff --git /) { path = line; sub(/^.* b\//, "", path); next }
    head = substr($0, 1, 6)
    if (head == "\033[31m-") count(-1, 0)
    else if (head == "\033[32m+") count(1, 0)
    else if (head == "\033[34m-") count(-1, 1)
    else if (head == "\033[33m+") count(1, 1)
}
END {
    print "| package | non-test | test | bench/ | moved |"
    print "|---|---|---|---|---|"
    n = 0
    for (p in pkgs) names[++n] = p
    for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) if (names[j] < names[i]) { t = names[i]; names[i] = names[j]; names[j] = t }
    for (i = 1; i <= n; i++) {
        p = names[i]
        printf "| `%s` | %s | %s | %s | +%d -%d |\n", p, net(add[p, "code"], del[p, "code"]), net(add[p, "test"], del[p, "test"]), net(add[p, "bench"], del[p, "bench"]), mv[p, 1], mv[p, -1]
    }
    printf "| **total** | **%s** | %s | %s | +%d -%d |\n", net(tadd["code"], tdel["code"]), net(tadd["test"], tdel["test"]), net(tadd["bench"], tdel["bench"]), tmv[1], tmv[-1]
}'
