#!/usr/bin/env bash
# Offline-safe CI gate for the fsdm workspace.
#
# The build environment has no crates.io access: every dependency is an
# in-workspace path crate (including the rand/proptest stand-ins), so
# nothing here touches the network.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release

echo "== examples run (each exits 0) =="
for e in quickstart purchase_orders schema_discovery nobench_analytics; do
    cargo run --release --offline -q --example "$e" >/dev/null
done

# the debug-build test runs below also check the lock rule on every
# acquisition they execute (fsdm_obs::lock), and tier-1 holds the
# workload's FA/PK zero-error budget (tests/planck_soundness.rs)
echo "== tests (tier-1: root package, serial executor) =="
FSDM_THREADS=1 cargo test -q

echo "== tests (tier-1: root package, 4-way parallel executor) =="
FSDM_THREADS=4 cargo test -q

echo "== tests (full workspace, serial executor) =="
FSDM_THREADS=1 cargo test --workspace -q

echo "== tests (full workspace, 4-way parallel executor) =="
FSDM_THREADS=4 cargo test --workspace -q

echo "== ingest allocation budgets in a release build (the workspace runs above were debug) =="
cargo test --release -q -p fsdm-index --test alloc_budget

echo "== stream differentials under a second case set =="
# the proptest stand-in seeds case k with PROPTEST_SEED + k: a base more
# than the 300 cases away from the default 0 replays none of its cases
PROPTEST_SEED=977 cargo test -q -p fsdm-sqljson --test proptests
PROPTEST_SEED=977 cargo test -q -p fsdm-json --test proptests
PROPTEST_SEED=977 cargo test -q -p fsdm-oson --test proptests
PROPTEST_SEED=977 cargo test -q -p fsdm-dataguide --test proptests

echo "== Figure 5/6 smoke (exit 1 when TEXT and OSON-IMC, or OSON-IMC and VC-IMC, answer differently) =="
cargo run --release -q -p fsdm-bench --bin repro -- fig5 --scale 2000 --threads 1 --no-metrics
# above degree 1 each worker's extraction walks the OSON-IMC's member lists
# over the morsels it claims: the same check at degree 4
cargo run --release -q -p fsdm-bench --bin repro -- fig5 --scale 2000 --threads 4 --no-metrics
# VC-IMC statements filter on resident vectors; the check compares answers by hash
cargo run --release -q -p fsdm-bench --bin repro -- fig6 --scale 2000 --threads 1 --no-metrics

echo "== chaos acceptance (500 seeded fault schedules, zero contract violations) =="
# the tier-1 suite above runs the 24-schedule shape of the same test file
cargo test --release --test chaos -- --ignored

echo "== committed benchmark (fmt, clippy, unit tests, smoke run with the oracle on) =="
# the benchmark package builds the engine from this checkout: an engine
# change that breaks its build or its text-storage oracle fails here, and
# one that would rewrite its lockfile (a crate gaining or losing a
# dependency) fails before the benchmark run could change the file
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null
benchmark/check.sh

echo "== rustdoc (a doc link to a name that no longer exists, or that the rendered docs hide, fails) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps --offline -q

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (deny warnings; the source lints live in the files they guard) =="
# root clippy.toml disallows a bare Mutex::lock, thread spawns and
# catch_unwind outside the #[expect] sites that name their role
cargo clippy --workspace --all-targets -- -D warnings \
    -D clippy::dbg_macro -D clippy::todo -D clippy::allow_attributes_without_reason

echo "CI OK"
