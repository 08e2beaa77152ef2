#!/usr/bin/env bash
# Fuzz smoke: drives the release binary through a short differential
# fuzzing sweep and checks the three properties CI cares about:
#
#   1. determinism — the same seed twice produces byte-identical
#      panorama-fuzz-v3 reports (no timestamps, no thread jitter);
#   2. cleanliness — the sweep and the committed corpus replay with zero
#      oracle failures (a failure here is a real toolchain bug or a fixed
#      bug resurfacing);
#   3. report hygiene — the report passes the FUZZ001-003 lints, alone
#      and as the `[first, second]` array that FUZZ002 compares.
#
# Usage: scripts/fuzz_smoke.sh [seed] [cases]
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=./target/release/panorama
SEED="${1:-42}"
CASES="${2:-240}"
OUT_A="${TMPDIR:-/tmp}/fuzz-smoke-a.json"
OUT_B="${TMPDIR:-/tmp}/fuzz-smoke-b.json"

[ -x "$BIN" ] || { echo "build first: cargo build --release" >&2; exit 1; }

echo "== fuzz sweep (seed $SEED, $CASES cases) + corpus replay =="
"$BIN" fuzz --seed "$SEED" --cases "$CASES" --max-nodes 24 \
    --corpus fuzz/corpus --out "$OUT_A"

echo "== determinism: same seed again, byte-compare =="
"$BIN" fuzz --seed "$SEED" --cases "$CASES" --max-nodes 24 \
    --corpus fuzz/corpus --out "$OUT_B"
cmp "$OUT_A" "$OUT_B"
echo "reports are byte-identical"

echo "== report lints (FUZZ001-003), the pair as one array for FUZZ002 determinism =="
"$BIN" lint --report "$OUT_A"
{ echo '['; cat "$OUT_A"; echo ','; cat "$OUT_B"; echo ']'; } > "$OUT_A.pair"
"$BIN" lint --report "$OUT_A.pair"

echo "fuzz smoke OK"
