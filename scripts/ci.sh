#!/usr/bin/env bash
# Full CI gate: lint, format, tests, and a quick audited figure pass.
#
#   scripts/ci.sh
#
# The audit smoke runs every figure harness in quick mode with the
# coherence-invariant oracle enabled (ZERODEV_AUDIT=1, see DESIGN.md
# §6.1): any protocol invariant violation aborts the run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "== build + tests =="
cargo build --release
cargo test -q --release --workspace

echo "== zerodev-lint (determinism / message-class graph) =="
# Workspace static analysis (DESIGN.md §12): denies ambient nondeterminism
# in the deterministic crates and verifies the MsgClass consumes->emits
# graph is deadlock-free modulo the audited DenfNack retry edge. Snapshot
# field coverage is not a lint: rustc checks it (DESIGN.md §9). Fails on any un-waived finding. Skip with
# ZERODEV_NO_LINT=1 (e.g. when bisecting an unrelated regression).
if [[ "${ZERODEV_NO_LINT:-0}" == "1" ]]; then
    echo "zerodev-lint: skipped (ZERODEV_NO_LINT=1)"
else
    cargo run --release -q -p zerodev-lint -- \
        --root . --json target/lint_report.json --dot target/msg_classes.dot
fi

echo "== audited figure smoke (quick profile, oracle on) =="
ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    cargo run --release -p zerodev-bench --bin all_figures >/dev/null

echo "== fault campaign smoke (quick matrix) =="
ZERODEV_QUICK=1 \
    cargo run --release -p zerodev-bench --bin fault_campaign >/dev/null

echo "== checkpoint kill/resume parity (DESIGN.md §9) =="
# A checkpointed-and-resumed run must be byte-identical to an
# uninterrupted one across the directory/torture/fault/socket matrix.
cargo test -q --release -p zerodev-bench --test checkpoint_parity

echo "== torture soak smoke (audited, message faults armed) =="
# The bounded campaign: every torture workload x config point must
# complete under the oracle with a message-level fault plan active.
soak_dir=$(mktemp -d)
ZERODEV_QUICK=1 ZERODEV_AUDIT=1 \
    ZERODEV_FAULTS=nack=20000,delay=10000,dup=10000 \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null

echo "== soak quarantine check (injected livelock must be caught) =="
# A NACK storm past the retry budget is a livelock by construction; the
# soak driver must quarantine it (nonzero exit), name the point in the
# report, and leave a checkpoint artifact for post-mortem replay.
if ZERODEV_QUICK=1 \
    ZERODEV_FAULTS=nack=1000000,nack_len=64,retries=8 \
    ZERODEV_SOAK_ONLY='torture.ping_pong@baseline' \
    ZERODEV_SOAK_DIR="$soak_dir" \
    cargo run --release -p zerodev-bench --bin soak >/dev/null; then
    echo "soak quarantine check FAILED: injected stall was not quarantined" >&2
    exit 1
fi
grep -q '"outcome": "stalled"' "$soak_dir/soak_report.json"
grep -q 'torture.ping_pong@baseline' "$soak_dir/soak_report.json"
ls "$soak_dir"/torture_ping_pong_baseline_*.ckpt >/dev/null
ls "$soak_dir"/torture_ping_pong_baseline_*.trace >/dev/null
rm -rf "$soak_dir"
echo "soak quarantine check passed"

echo "== model checker (exhaustive matrix + mutation hunt) =="
cargo run --release -p zerodev_model >/dev/null

echo "== perf gate (same-host A/B of perfbench) =="
# Builds perfbench at a base revision and in the working tree and runs
# alternating pairs of every BENCHMARK.json workload; fails when the
# working tree loses nine tenths of a workload's refs_per_s pairs, on an
# incorrect run or on extra failed attempts (README, "Benchmarks and the
# perf gate"). The base is HEAD when the tree has uncommitted changes,
# else HEAD~1. Skip with ZERODEV_NO_PERF_GATE=1 (e.g. on loaded or
# throttled machines).
if [[ "${ZERODEV_NO_PERF_GATE:-0}" == "1" ]]; then
    echo "perf gate: skipped (ZERODEV_NO_PERF_GATE=1)"
else
    if [[ -n "$(git status --porcelain)" ]]; then base=HEAD; else base=HEAD~1; fi
    cargo run --release -p zerodev-bench --bin perf_gate -- "$base"
fi

echo "CI green."
