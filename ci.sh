#!/usr/bin/env bash
# Offline-safe CI gate for the fsdm workspace.
#
# The build environment has no crates.io access: every dependency is an
# in-workspace path crate (including the rand/proptest/criterion
# stand-ins), so nothing here touches the network.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release

echo "== tests (tier-1: root package, serial executor) =="
FSDM_THREADS=1 cargo test -q

echo "== tests (tier-1: root package, 4-way parallel executor) =="
FSDM_THREADS=4 cargo test -q

echo "== tests (full workspace, serial executor) =="
FSDM_THREADS=1 cargo test --workspace -q

echo "== tests (full workspace, 4-way parallel executor) =="
FSDM_THREADS=4 cargo test --workspace -q

echo "== fsdm-check all (source rules, concurrency, workload lint, plan typecheck) =="
# exits 1 with its text report on stderr when any error-severity finding remains
cargo run --release -p fsdm-check -- all

echo "== bench concurrency smoke (4-thread wall <= 1.1x 1-thread) =="
# --json persists the run in the stable fsdm-bench-concurrency-v1 schema
# so CI revisions accumulate into a machine-readable perf trajectory
cargo run --release -p fsdm-bench --bin bench -- concurrency --scale small --smoke \
  --json BENCH_concurrency.json

echo "== bench imc smoke (columnar wall <= row-path wall on Q1-3, on Q4,7-10 and on OLAP T7-9; fallback with vectors <= without) =="
# the second subset reads paths with no resident vector: the batch spine
# runs them on transient columns and must still beat the row evaluator.
# The third is the OLAP full expansions through po_item_dmdv: JSON_TABLE
# expands column-major inside the fused pipeline and must beat the row
# evaluator's operator-at-a-time JsonTable/Project/GroupBy.
# The fallback statement stays on the row evaluator either way; resident
# vectors must not slow it down.
# --json persists the run in the stable fsdm-bench-imc-v1 schema so CI
# revisions accumulate the row-vs-columnar trajectory alongside the
# concurrency one
cargo run --release -p fsdm-bench --bin bench -- imc --scale small --smoke \
  --json BENCH_imc.json

echo "== bench trace-overhead smoke (disabled tracing <= 2% of Q1-3 wall) =="
cargo run --release -p fsdm-bench --bin bench -- trace-overhead --scale 2000 --smoke

echo "== bench chaos smoke (seeded fault schedules, zero violations, disarmed <= 2%) =="
# --json persists the run in the stable fsdm-bench-chaos-v1 schema; the
# command itself exits non-zero on any contract violation or if the
# disarmed governance overhead estimate exceeds the 2% budget
cargo run --release -p fsdm-bench --bin bench -- chaos --smoke --json BENCH_chaos.json

echo "== repro trace smoke (span trees validate, exports re-parse) =="
FSDM_THREADS=4 cargo run --release -p fsdm-bench --bin repro -- \
  --trace /tmp/fsdm-trace.json --slow-log /tmp/fsdm-slow.json --scale 300

echo "== committed benchmark (fmt, clippy, unit tests, smoke run with the oracle on) =="
# the benchmark package builds the engine from this checkout: an engine
# change that breaks its build or its text-storage oracle fails here
benchmark/check.sh

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
