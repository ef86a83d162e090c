#!/bin/sh
# Non-test code size per crate: non-blank, non-comment lines of every
# `crates/<name>/src/**/*.rs`, each file cut at its first `#[cfg(test)]`
# (unit-test modules sit at the bottom of a file). This is the figure
# ROADMAP acceptance lines and CHANGES.md quote before -> after.
#
#   scripts/loc.sh                 every crate, plus a total
#   scripts/loc.sh cli serve io    only these crates, plus their total
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }
    ' {} +
}

[ $# -gt 0 ] || set -- $(ls crates)
total=0
printf '%-16s %7s\n' crate lines
for crate in "$@"; do
    n=$(count "crates/$crate/src")
    total=$((total + n))
    printf '%-16s %7d\n' "$crate" "$n"
done
printf '%-16s %7d\n' total "$total"
