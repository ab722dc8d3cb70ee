#!/usr/bin/env bash
# The line count simplicity PRs quote in CHANGES.md: tracked Rust outside
# `benchmark/`, split per crate (src + tests), then the total. Reports
# only; nothing gates on the number.
set -euo pipefail
cd "$(dirname "$0")/.."

tracked() { git ls-files "$@" | grep -v '^benchmark/' | xargs wc -l | tail -1 | awk '{print $1}'; }

for dir in crates/* src tests examples; do
    printf '%6d %s\n' "$(tracked "$dir/*.rs")" "$dir"
done
printf '%6d total (tracked *.rs outside benchmark/)\n' "$(tracked '*.rs')"
