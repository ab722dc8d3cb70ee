#!/usr/bin/env bash
# Full offline verification: release build, workspace tests in both
# profiles, the examples, benchmark smoke, rustdoc, warnings in every target,
# formatting, clippy.
# The workspace has no external dependencies, so this runs without
# network access; CARGO_NET_OFFLINE makes that explicit.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release
cargo test -q --workspace
# The same tests in the build that ships: overflow checks and
# optimisations differ by profile (the lock witness is debug-only).
cargo test -q --workspace --release
# The examples run, not only compile: each drives a real TCP stack and
# exits 0 in milliseconds (`metrics_endpoint` without `--hold`).
cargo run --release --offline -q --example quickstart
cargo run --release --offline -q --example revalidation
cargo run --release --offline -q --example metrics_endpoint
# The benchmark at 1/1000 of its op counts, checked: every metric
# BENCHMARK.json names is emitted finite on every workload and no op
# failed (prints `"correct": true`; ~30 s cold). Never judges timings.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Doc rot is a failure: an intra-doc link to an item that no longer
# exists (or never did) stops the gate here (~4 s).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q
# No rustc warning in any target: tests, examples and benches compile
# with `-D warnings` too, so `dead_code` also covers test-only code.
# Clippy's lints stay off there (see the clippy step). A target dir of
# its own keeps the flag from invalidating the main build (~10 s).
RUSTFLAGS="-D warnings" CARGO_TARGET_DIR=target/deny-warnings \
    cargo check --workspace --all-targets --offline -q
cargo fmt --check
# Workspace invariants (DESIGN.md §7): clippy.toml's disallowed methods
# and types and the crates' own `deny` lints (test code stays exempt: no
# --all-targets). R2 and R6 are tests, run above.
cargo clippy --workspace --offline -- -D warnings

echo "verify: build, tests, docs, warnings, formatting and clippy all clean"
# The size simplicity PRs quote in CHANGES.md; reported, never gated.
scripts/loc.sh | tail -1
