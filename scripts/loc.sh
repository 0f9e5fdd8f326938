#!/bin/sh
# Non-test lines per crate, then the workspace total: every line of
# `crates/*/src/**/*.rs` outside `#[cfg(test)]` items (scripts/loc.awk).
# Run from anywhere: `scripts/loc.sh` (the justfile's `loc` recipe).
cd "$(dirname "$0")/.." || exit 1
for c in crates/*/; do
    f=$(find "${c}src" -name '*.rs' | sort)
    # $f is a newline-separated file list; awk takes it word-split.
    # shellcheck disable=SC2086
    printf '%-8s %s\n' "$(basename "$c")" "$(awk -f scripts/loc.awk pass=1 $f pass=2 $f)"
done | awk '{ print; total += $2 } END { printf "%-8s %s\n", "total", total }'
