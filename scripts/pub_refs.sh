#!/bin/sh
# `pub` items of crates/*/src that no non-test code references: each
# `pub fn`, `struct`, `enum`, `trait`, `type`, `const` or `static`
# whose name appears nowhere in the non-test code of crates/*/src and
# bench/src beyond its own definition line and `pub use` re-exports.
#
# usage: scripts/pub_refs.sh
#
# Non-test code is each file's lines before its first column-0
# `#[cfg(test)]`, as in scripts/loc.sh. Neither `//` comment lines nor
# the self type of an `impl` line count as references. Names are
# matched as whole identifiers, so a name that collides with another
# item's (say, `new`) is never listed: the output is a set of leads,
# not proof. Prints `path:line kind name` per item. Counts the working
# tree (tracked files plus untracked ones that are not ignored). Needs
# git and awk.
set -eu

[ $# -eq 0 ] || {
    sed -n 7p "$0" | sed 's/^# //' >&2
    exit 2
}
cd "$(git rev-parse --show-toplevel)"

git ls-files -co --exclude-standard crates bench |
    grep -E '^(crates/[^/]+|bench)/src/.*\.rs$' |
    while read -r f; do
        [ -f "$f" ] && printf '%s\n' "$f"
    done |
    xargs awk '
FNR == 1 { in_test = 0; in_use = 0 }
/^#\[cfg\(test\)\]/ { in_test = 1 }
in_test { next }
/^[ \t]*\/\// { next }
# `pub use` re-exports, single- or multi-line, are not references.
in_use || /^[ \t]*pub use / {
    in_use = index($0, ";") == 0
    next
}
{
    line = $0
    def = ""
    if (FILENAME ~ /^crates\// &&
        match(line, /^[ \t]*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
        head = substr(line, RSTART, RLENGTH)
        n = split(head, w, /[ \t]+/)
        def = w[n]
        kind = w[n - 1]
        defs[++ndefs] = FILENAME ":" FNR " " kind " " def
        names[ndefs] = def
    } else if (line ~ /^[ \t]*impl[< \t]/) {
        # The self type: the name after ` for `, else the first after
        # `impl` and its generics.
        self = line
        if (!sub(/.* for +/, "", self))
            sub(/^[ \t]*impl(<[^>]*>)?[ \t]+/, "", self)
        match(self, /^[A-Za-z_][A-Za-z0-9_]*/)
        def = substr(self, 1, RLENGTH)
    }
    gsub(/[^A-Za-z0-9_]+/, " ", line)
    n = split(line, tok, " ")
    for (i = 1; i <= n; i++) {
        if (tok[i] == def) { def = ""; continue }
        refs[tok[i]]++
    }
}
END {
    for (i = 1; i <= ndefs; i++)
        if (!(names[i] in refs)) print defs[i]
}
' | sort -t: -k1,1 -k2,2n
