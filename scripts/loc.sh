#!/bin/sh
# Non-test source lines, per file and per crate: the lines of each
# crates/<crate>/src/**/*.rs before its first column-0 `#[cfg(test)]`
# (the whole file when it has none).
#
# usage: scripts/loc.sh [REV]
#
# Counts the working tree (tracked files plus untracked ones that are
# not ignored). With REV, each row also shows REV's count and the
# change; a file that exists on one side only counts 0 on the other.
# Needs git and awk.
set -eu

usage() {
    sed -n 6p "$0" | sed 's/^# //' >&2
    exit 2
}

[ $# -le 1 ] || usage
case ${1-} in -*) usage ;; esac
rev=${1-}
cd "$(git rev-parse --show-toplevel)"

count() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

src_only() {
    grep -E '^crates/[^/]+/src/.*\.rs$' || true
}

{
    git ls-files -co --exclude-standard crates | src_only | while read -r f; do
        [ -f "$f" ] && printf '%s now %s\n' "$f" "$(count <"$f")"
    done
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev" crates | src_only | while read -r f; do
            printf '%s rev %s\n' "$f" "$(git show "$rev:$f" | count)"
        done
    fi
} | sort | awk -v rev="$rev" '
function row(name, a, b) {
    if (rev == "") printf "%-46s %7d\n", name, b
    else printf "%-46s %7d %7d %+7d\n", name, a, b, b - a
}
function close_crate() {
    if (crate != "") row(crate " (total)", crate_a, crate_b)
}
{
    if ($1 != path) {
        if (path != "") file_done()
        path = $1; a = 0; b = 0
    }
    if ($2 == "now") b = $3; else a = $3
}
function file_done(   c) {
    split(path, parts, "/")
    c = parts[2]
    if (c != crate) {
        close_crate()
        crate = c; crate_a = 0; crate_b = 0
    }
    row(path, a, b)
    crate_a += a; crate_b += b; total_a += a; total_b += b
}
BEGIN {
    if (rev == "") printf "%-46s %7s\n", "file", "lines"
    else printf "%-46s %7s %7s %7s\n", "file", substr(rev, 1, 7), "now", "change"
}
END {
    if (path != "") file_done()
    close_crate()
    row("total", total_a, total_b)
}
'
