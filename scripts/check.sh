#!/usr/bin/env bash
# Full local gate: formatting, lints, and the tier-1 test suite.
# Run from the repository root before sending changes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, warnings are errors: broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q

echo "== workspace tests"
cargo test -q --workspace

echo "== benchmark package tests (perfbench sits outside the workspace)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "== perf + chaos smoke (writes BENCH_repro.json)"
cargo run --release -q -p dynamid-harness --bin repro -- --smoke --chaos

echo "== perf gate: smoke wall-clock vs results/bench_history.json"
# Fail when total_wall_secs regresses more than PERF_BUDGET_PCT (default
# 20%) over the latest recorded history entry. Wall-clock is noisy, so an
# over-budget first run gets up to two re-runs and the minimum counts.
budget_pct="${PERF_BUDGET_PCT:-20}"
recorded="$(grep -o '"total_wall_secs": [0-9.]*' results/bench_history.json \
  | tail -1 | awk '{print $2}')"
best="$(grep -o '"total_wall_secs": [0-9.]*' BENCH_repro.json | head -1 | awk '{print $2}')"
for retry in 1 2; do
  over="$(awk -v c="$best" -v r="$recorded" -v b="$budget_pct" \
    'BEGIN { print (c > r * (1 + b / 100)) ? 1 : 0 }')"
  [ "$over" = 1 ] || break
  echo "   smoke ${best}s over budget (recorded ${recorded}s + ${budget_pct}%), re-run $retry"
  cargo run --release -q -p dynamid-harness --bin repro -- --smoke --quiet
  cur="$(grep -o '"total_wall_secs": [0-9.]*' BENCH_repro.json | head -1 | awk '{print $2}')"
  best="$(awk -v a="$best" -v b="$cur" 'BEGIN { print (b < a) ? b : a }')"
done
if [ "$(awk -v c="$best" -v r="$recorded" -v b="$budget_pct" \
    'BEGIN { print (c > r * (1 + b / 100)) ? 1 : 0 }')" = 1 ]; then
  echo "FAIL: smoke total_wall_secs ${best}s exceeds recorded ${recorded}s by >${budget_pct}%" >&2
  echo "      (if the slowdown is intended, append a new entry to results/bench_history.json)" >&2
  exit 1
fi
echo "   smoke ${best}s within ${budget_pct}% of recorded ${recorded}s"

echo "== healthy-path figures are byte-identical to results/golden"
golden_tmp="$(mktemp -d)"
trap 'rm -rf "$golden_tmp"' EXIT
cargo run --release -q -p dynamid-harness --bin repro -- \
  --fast --quiet --jobs 4 --seed 42 --scale 0.1 \
  --clients 5,10,15 --measure 4 --out "$golden_tmp" fig05 fig11
for fig in fig05 fig11; do
  cmp "results/golden/$fig.csv" "$golden_tmp/$fig.csv" \
    || { echo "FAIL: $fig.csv drifted from results/golden/$fig.csv" >&2; exit 1; }
done

echo "== traced runs: bottleneck reports byte-identical to results/golden"
# `repro trace` also cross-checks trace-derived CPU utilization against the
# PS counters (1% gate) and fails nonzero on any span-tree violation.
cargo run --release -q -p dynamid-harness --bin repro -- \
  --fast --quiet --jobs 4 --seed 42 --scale 0.1 \
  --clients 15 --measure 4 --out "$golden_tmp" trace fig05 --config C1,C6 >/dev/null
for config in C1 C6; do
  cmp "results/golden/bottleneck_fig05_$config.csv" "$golden_tmp/bottleneck_fig05_$config.csv" \
    || { echo "FAIL: bottleneck_fig05_$config.csv drifted from results/golden/" >&2; exit 1; }
done

echo "== availability sweep is byte-identical to results/golden (audit runs inside)"
# Every sweep point ends with the post-run consistency audit; a violation
# panics the run, so a zero exit here also certifies a clean audit.
cargo run --release -q -p dynamid-harness --bin repro -- \
  --fast --quiet --jobs 4 --seed 42 --scale 0.1 \
  --clients 15 --measure 4 --out "$golden_tmp" avail >/dev/null
cmp "results/golden/avail.csv" "$golden_tmp/avail.csv" \
  || { echo "FAIL: avail.csv drifted from results/golden/avail.csv" >&2; exit 1; }

echo "== cache-ablation smoke is byte-identical to results/golden"
# The pinned grid audits every point (off/transactional points must be
# clean or the run panics) and fails unless transactional caching lifts
# EJB browsing throughput >=30% at the top client count, so a zero exit
# certifies both coherence and the headline uplift; the byte-compare then
# pins the exact numbers.
cargo run --release -q -p dynamid-harness --bin repro -- \
  --quiet --jobs 4 --out "$golden_tmp" cache --smoke >/dev/null
cmp "results/golden/cache.csv" "$golden_tmp/cache.csv" \
  || { echo "FAIL: cache.csv drifted from results/golden/cache.csv" >&2; exit 1; }

echo "== failover smoke is byte-identical to results/golden"
# The pinned grid kills the primary DB a quarter into every measurement
# window. A zero exit certifies that every point passed the consistency
# audit (the sweep panics otherwise), every replicated point actually
# promoted a replica, and every 2-replica point beat the single-DB
# baseline's goodput; the byte-compare then pins the exact numbers.
cargo run --release -q -p dynamid-harness --bin repro -- \
  --quiet --jobs 4 --out "$golden_tmp" failover --smoke >/dev/null
cmp "results/golden/failover.csv" "$golden_tmp/failover.csv" \
  || { echo "FAIL: failover.csv drifted from results/golden/failover.csv" >&2; exit 1; }

echo "== overload smoke is byte-identical to results/golden"
# The pinned flash-crowd grids (C1/C4/C6 and the front-ended C7/C8/C9,
# each x naive/shed/full x 6x spike) calibrate each config's open-loop
# capacity with a deterministic probe ladder, then certify the headline
# inside the sweep: the naive arm must collapse (post-spike goodput
# retention < 30%) and the full shed+breaker+budget arm must recover
# (>= 70%), with the consistency audit clean at every point. A zero exit
# certifies all of that; the byte-compares then pin the exact numbers.
cargo run --release -q -p dynamid-harness --bin repro -- \
  --quiet --jobs 4 --out "$golden_tmp" overload --smoke >/dev/null
for grid in overload overload_c789; do
  cmp "results/golden/$grid.csv" "$golden_tmp/$grid.csv" \
    || { echo "FAIL: $grid.csv drifted from results/golden/$grid.csv" >&2; exit 1; }
done

echo "All checks passed."
