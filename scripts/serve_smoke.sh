#!/usr/bin/env bash
# Smoke test for the `panorama serve` daemon, used by the CI `serve-smoke`
# job and runnable locally. Exercises the full serving surface against a
# release binary: health, compile (checked byte-for-byte against the
# offline CLI), lint, metrics (validated by the SERVE* lints), queue
# saturation (503 + Retry-After), and graceful drain (exit code 0).
#
# Uses bash's /dev/tcp instead of curl so it runs in minimal containers.
set -euo pipefail

BIN=${BIN:-target/release/panorama}
PORT=${PORT:-7878}
ADDR=127.0.0.1:$PORT
TMP=$(mktemp -d)
# Kill the whole job table on exit: the stdin-holding tail, the daemon if
# it is still up, and any in-flight background clients.
trap 'rm -rf "$TMP"; kill $(jobs -p) 2>/dev/null || true' EXIT

# http METHOD PATH [BODY] -> response (head + body) on stdout
http() {
    local method=$1 path=$2 body=${3:-}
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf '%s %s HTTP/1.1\r\nHost: smoke\r\nContent-Length: %d\r\n\r\n%s' \
        "$method" "$path" "${#body}" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
}

status_of() { head -1 <<<"$1" | cut -d' ' -f2; }
body_of() { tail -1 <<<"$1"; }

metric() { # metric JSON-FILE FIELD  (flat grep, fields are unique)
    grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2
}

echo "== starting daemon on $ADDR (workers 1, queue-depth 1)"
# A held-open fifo keeps the daemon's stdin from hitting EOF (stdin EOF is
# the ctrl-c-equivalent drain trigger); the drain comes via the endpoint.
mkfifo "$TMP/stdin-hold"
sleep 1000 > "$TMP/stdin-hold" &
"$BIN" serve --addr "$ADDR" --workers 1 --queue-depth 1 < "$TMP/stdin-hold" &
SERVE_PID=$!
for _ in $(seq 50); do
    sleep 0.1
    if r=$(http GET /healthz 2>/dev/null) && [ "$(status_of "$r")" = 200 ]; then
        break
    fi
done
r=$(http GET /healthz)
[ "$(status_of "$r")" = 200 ] || { echo "healthz failed: $r"; exit 1; }
echo "== healthz ok"
body_of "$(http GET /metrics)" > "$TMP/metrics-before.json"

echo "== compile matches offline CLI byte-for-byte"
body_of "$(http POST /compile '{"kernel":"fir","arch":"8x8","scale":"tiny"}')" \
    > "$TMP/served.json"
"$BIN" compile --dfg fir --arch 8x8 --scale tiny --json > "$TMP/cli.json"
cmp "$TMP/served.json" "$TMP/cli.json"
echo "== bit-identical"

echo "== replay is a cache hit, still identical"
body_of "$(http POST /compile '{"kernel":"fir","arch":"8x8","scale":"tiny"}')" \
    > "$TMP/replay.json"
cmp "$TMP/replay.json" "$TMP/cli.json"

echo "== lint endpoint answers"
r=$(http POST /lint '{"kernel":"fir","arch":"8x8","scale":"tiny"}')
[ "$(status_of "$r")" = 200 ] || { echo "lint failed: $r"; exit 1; }

echo "== deadline produces a 504 cancelled payload"
r=$(http POST /compile '{"kernel":"edn","scale":"scaled","baseline":true,"deadline_ms":0}')
[ "$(status_of "$r")" = 504 ] || { echo "expected 504: $r"; exit 1; }
grep -q '"error":"cancelled"' <<<"$r"

echo "== saturating the bounded queue (depth 1, 1 worker)"
# Paper-scale matched filter does not fit 8x8: ~8 s of failed II attempts
# in a release build (422 at the end), the longest baseline compile there is.
SLOW='{"kernel":"matchedfilter","scale":"paper","baseline":true,"deadline_ms":15000}'
SLOW2='{"kernel":"matchedfilter","scale":"paper","baseline":true,"deadline_ms":15000,"max_ii":40}'
http POST /compile "$SLOW" > "$TMP/slow1" &
for _ in $(seq 100); do
    body_of "$(http GET /metrics)" > "$TMP/m.json"
    [ "$(metric "$TMP/m.json" in_flight)" = 1 ] && break
    sleep 0.05
done
[ "$(metric "$TMP/m.json" in_flight)" = 1 ] || { echo "never in flight"; exit 1; }
http POST /compile "$SLOW2" > "$TMP/slow2" &
for _ in $(seq 100); do
    body_of "$(http GET /metrics)" > "$TMP/m.json"
    [ "$(metric "$TMP/m.json" depth)" = 1 ] && break
    sleep 0.05
done
[ "$(metric "$TMP/m.json" depth)" = 1 ] || { echo "never queued"; exit 1; }
r=$(http POST /compile "$SLOW")
[ "$(status_of "$r")" = 503 ] || { echo "expected 503: $r"; exit 1; }
grep -q 'Retry-After: 1' <<<"$r"
echo "== shed with 503 + Retry-After"

echo "== metrics pass the SERVE lints, counters monotone since start-up"
body_of "$(http GET /metrics)" > "$TMP/metrics.json"
"$BIN" lint --report "$TMP/metrics.json"
{ echo '['; cat "$TMP/metrics-before.json"; echo ','; cat "$TMP/metrics.json"; echo ']'; } \
    > "$TMP/metrics-pair.json"
"$BIN" lint --report "$TMP/metrics-pair.json"

echo "== graceful drain"
r=$(http POST /admin/shutdown)
[ "$(status_of "$r")" = 200 ] || { echo "shutdown refused: $r"; exit 1; }
wait "$SERVE_PID" || { echo "daemon exited non-zero"; exit 1; }
echo "== daemon drained cleanly; smoke passed"
