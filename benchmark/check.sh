#!/usr/bin/env bash
# Format, lint, unit tests and the smoke run of the benchmark package,
# all offline. Run from anywhere; a later ci.sh can call it as one step.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline
cargo run --release --offline --quiet -- --smoke
