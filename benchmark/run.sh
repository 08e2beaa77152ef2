#!/usr/bin/env bash
# Builds the benchmark package (release, offline) and runs it from the
# repository root. Everything it writes lands in benchmark/target (or
# $CARGO_TARGET_DIR) and benchmark/out. Arguments: see --help.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export PANORAMA_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/panorama-benchmark" "$@"
