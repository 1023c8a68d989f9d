#!/usr/bin/env bash
# Program lines of the workspace: the non-blank lines of each Rust file
# in crates/*/src, crates/*/benches and src/ that come before the file's
# first `#[cfg(test)]` at column 0 (so the unit-test module at the end of
# a file does not count, while an indented, statement-level
# `#[cfg(test)]` inside a function does not end the count), printed per
# crate and in total.
#
#   bash scripts/program_lines.sh
#
# Informational: it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Sums the program lines of the .rs files under the given directories.
count() {
    local dirs=()
    for d in "$@"; do
        [[ -d $d ]] && dirs+=("$d")
    done
    ((${#dirs[@]})) || { echo 0; return; }
    find "${dirs[@]}" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && NF { n++ }
        END { print n + 0 }'
}

# The `name` of a Cargo.toml's [package].
package() {
    awk -F'"' '/^name *=/ { print $2; exit }' "$1"
}

total=0
row() {
    printf '%-18s %7d\n' "$1" "$2"
    total=$((total + $2))
}
for crate in crates/*/; do
    row "$(package "$crate/Cargo.toml")" "$(count "$crate/src" "$crate/benches")"
done
row "$(package Cargo.toml)" "$(count src)"
printf '%-18s %7d\n' total "$total"
