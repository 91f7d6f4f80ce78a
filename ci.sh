#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, and the full test
# suite. Run from the repository root. All cargo invocations are --offline:
# every dependency is vendored in third_party/.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --locked --release

echo "==> cargo build --release (perfbench)"
# perfbench/ is a workspace of its own, so the workspace build and tests
# above never compile it; build it here so a library API change cannot
# break the benchmark unseen. Both builds are --locked: a change that would
# rewrite either Cargo.lock fails here, not in the benchmark harness.
cargo build --offline --locked --release --manifest-path perfbench/Cargo.toml

echo "==> xlint (workspace determinism + unit-safety lint)"
# Archive the machine-readable report as a build artifact; the human run
# below is the gate proper (non-zero on any finding).
mkdir -p target/ci-artifacts
cargo run --offline -q -p exegpt-xlint -- --workspace --json \
  > target/ci-artifacts/xlint.json || true
cargo run --offline -q -p exegpt-xlint -- --workspace --sarif \
  > target/ci-artifacts/xlint.sarif || true
# Pragma hygiene is not a soft failure: any X0 (malformed/stale/unknown
# pragma) in the archived report fails the gate even if a future rule
# change made the text run pass.
if grep -q '"rule": "X0"' target/ci-artifacts/xlint.json; then
  echo "xlint: X0 pragma-hygiene findings present (see target/ci-artifacts/xlint.json)" >&2
  exit 1
fi
# The gate proper: all rules (incl. the L1/P2/D3 syntax-aware families
# and the D4/U3/P3 dataflow rules) plus the suppression-budget ratchet —
# new pragmas beyond the committed per-crate counts in xlint-baseline.toml
# fail as X1.
cargo run --offline -q -p exegpt-xlint -- --workspace --baseline xlint-baseline.toml
# Fix hygiene: `--fix` exits non-zero while any mechanical fix (stale
# pragma deletion, `let _ =` -> `?` rewrite) is pending, so a tree that
# `--fix --apply` would change fails the gate with the diffs on stdout.
cargo run --offline -q -p exegpt-xlint -- --workspace --fix

echo "==> cargo test -q"
cargo test --offline --workspace -q

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "==> xlint cache smoke (cold vs warm: coverage, byte-identity, >=5x)"
# Wipes target/xlint-cache/, lints the workspace cold, then warm, and
# exits non-zero unless the warm pass hits 100% of files, replays the
# cold findings byte-identically, and is at least 5x faster. The
# hit/miss/timing numbers are archived for trending.
XLINT_SMOKE_JSON=target/ci-artifacts/xlint-cache-stats.json \
  cargo run --offline --release -p exegpt-bench --bin xlint-smoke

echo "==> replan smoke (incremental replans: byte-identity, no fallback, >=10x)"
# Replays the golden drift/fault/recovery replans and exits non-zero if any
# falls back to the full search, picks a different plan than the full
# search, or the warm replan is less than 10x faster than the warm full
# search. Measurements are archived for trending.
REPLAN_SMOKE_JSON=target/ci-artifacts/replan-smoke.json \
  cargo run --offline --release -p exegpt-bench --bin replan-smoke

echo "==> scenario smoke (every shipped config: replay, invariants, golden digest)"
# Runs every scenarios/*.toml through the declarative scenario layer twice
# and exits non-zero if
#   - the replay's FNV-1a event-log digest differs from the first run's;
#   - any request is lost or left unfinished (completed == total);
#   - a fleet run does not dispatch every request exactly once, rejects
#     one, or its per-tenant completions do not add up to the total;
#   - SLO accounting is inconsistent or skips a completion
#     (slo.is_consistent(), checked == completed; per tenant for fleets);
#   - a digest drifts from scenarios/GOLDENS.toml, a config has no golden,
#     or a golden has no config.
# Claims about one scenario (SLO-aware beats round-robin, faults are
# detected, recovery restores the plan) are tests in
# crates/scenario/tests/golden.rs. Intentional behavior changes regenerate
# the goldens with
# `cargo run --release --bin scenario-smoke -- scenarios --write-goldens`.
cargo run --offline --release -p exegpt-scenario --bin scenario-smoke -- scenarios

echo "CI OK"
