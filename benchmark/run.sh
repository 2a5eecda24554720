#!/usr/bin/env bash
# Build the benchmark in release and run it. All arguments go to the binary:
#   run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--quick]
#   run.sh --agree | --check-exact
# See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo's own output goes to stderr; only the benchmark writes to stdout.
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/ccix-benchmark" --out "$here/out" "$@"
