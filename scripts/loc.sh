#!/bin/sh
# Non-test, non-comment, non-blank Rust lines per crate: every line of
# crates/<crate>/src/**/*.rs before the file's first `#[cfg(test)]` that is
# neither blank nor a `//` comment (doc comments included). The number
# ROADMAP aim 2 tracks; the app layer's share is the hand-written glue that
# item 4 wants generated.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }'
}

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = compat ] && continue
    n=$(count "$dir"src)
    total=$((total + n))
    printf '%-12s %6d\n' "$crate" "$n"
done
printf '%-12s %6d\n' total "$total"
printf '%-12s %6d\n' 'app+airfoil' "$(count crates/app/src crates/airfoil/src)"
