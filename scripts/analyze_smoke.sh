#!/usr/bin/env bash
# Analyze smoke: drives `panorama analyze` over all 12 paper kernels and
# the committed fuzz corpus, and checks the properties CI cares about:
#
#   1. cleanliness — every kernel and corpus DFG analyzes with zero
#      error-severity diagnostics (interpreter equivalence of the
#      rewritten graph is checked inside `analyze` itself, which fails);
#   2. determinism — a second run produces byte-identical
#      panorama-analyze-v1 JSON;
#   3. report hygiene — every report passes the ANLZ lints via
#      `panorama lint --report`;
#   4. no regression — for every kernel the mapped II with --analyze is
#      no worse than the unanalyzed baseline;
#   5. one value model — the pinned `a - b` / `b - a` / `2 + 3` graph
#      merges nothing and folds `2 + 3` to 5 (a multiset CSE merges one
#      op, a hash ALU folds to a hash and still passes its own check).
#
# Usage: scripts/analyze_smoke.sh [scale]
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=./target/release/panorama
SCALE="${1:-tiny}"
TMP="${TMPDIR:-/tmp}"

[ -x "$BIN" ] || { echo "build first: cargo build --release" >&2; exit 1; }

KERNELS="edn idctcols idctrows conv2d matchedfilter matrixmultiply
         cordic kmeansclustering fir jpegfdct jpegidctfst invertmat"

ii_of() { grep -o '"ii":[0-9]*' "$1" | head -1 | cut -d: -f2; }

for k in $KERNELS; do
    echo "== $k: analyze (scale $SCALE), double-run byte identity =="
    "$BIN" analyze "$k" --scale "$SCALE" --out "$TMP/analyze-a.json" >/dev/null
    "$BIN" analyze "$k" --scale "$SCALE" --out "$TMP/analyze-b.json" >/dev/null
    cmp "$TMP/analyze-a.json" "$TMP/analyze-b.json"
    "$BIN" lint --report "$TMP/analyze-a.json"

    echo "== $k: mapped II with --analyze is no worse =="
    "$BIN" compile --dfg "$k" --scale "$SCALE" --json > "$TMP/plain.json"
    "$BIN" compile --dfg "$k" --scale "$SCALE" --json --analyze > "$TMP/opt.json"
    plain=$(ii_of "$TMP/plain.json")
    opt=$(ii_of "$TMP/opt.json")
    [ "$opt" -le "$plain" ] || {
        echo "$k: analyzed II $opt worse than plain II $plain" >&2
        exit 1
    }
    echo "$k: II $plain -> $opt"
done

echo "== corpus replay through the analyzer =="
for f in fuzz/corpus/*.dfg; do
    echo "-- $f"
    "$BIN" analyze "$f" >/dev/null
done

echo "== operand order and real arithmetic: the non-commutative pin =="
PIN=fuzz/corpus/analyze-noncommutative-cse.dfg
"$BIN" analyze "$PIN" --json > "$TMP/analyze-pin.json"
grep -q '"merged": 0,' "$TMP/analyze-pin.json" || {
    echo "$PIN: b - a was merged into a - b" >&2
    exit 1
}
grep -q '"folded": 1,' "$TMP/analyze-pin.json"
"$BIN" analyze "$PIN" | grep -q 'ANLZ002.*always computes 0x5$' || {
    echo "$PIN: 2 + 3 did not fold to 5" >&2
    exit 1
}

echo "analyze smoke OK"
