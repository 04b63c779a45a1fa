#!/usr/bin/env bash
# Prefix-cache smoke test: prove the radix prefix cache end to end.
#  1. Selftest with the cache on: batched/serial regimes plus the
#     shared-prefix client storm — cold and warm passes both bit-identical
#     to the GenerateInto oracle, warm required to hit the cache.
#  2. Chaos selftest with the cache on: cached prefixes must never leak
#     injected corruption into control sessions.
#  3. A live server with the cache on: repeated shared-prompt requests over
#     HTTP, prefix metrics reflecting the hits, then a SIGTERM drain with
#     the cache populated — exit 0, no dangling snapshot ever crashes it.
#
# Usage: scripts/prefix_smoke.sh
set -euo pipefail

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -KILL "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

cd "$(dirname "$0")/.."
go build -o "$WORK/ft2serve" ./cmd/ft2serve

echo "== selftest with prefix cache: cold/warm storm vs GenerateInto oracle"
"$WORK/ft2serve" -selftest -model qwen2-1.5b-sim \
    -prefix-cache-mb 32 -prefill-chunk 8 >"$WORK/selftest.log"
grep -q "selftest storm passed" "$WORK/selftest.log" || {
    echo "FAIL: shared-prefix storm did not run"; cat "$WORK/selftest.log"; exit 1; }

echo "== chaos selftest with prefix cache: no corruption through the cache"
"$WORK/ft2serve" -selftest -chaos -model qwen2-1.5b-sim \
    -prefix-cache-mb 32 -prefill-chunk 8 >/dev/null

echo "== start a cache-enabled server on an ephemeral port"
"$WORK/ft2serve" -model qwen2-1.5b-sim -addr 127.0.0.1:0 \
    -prefix-cache-mb 32 >"$WORK/server.log" 2>&1 &
SERVER_PID=$!

BASE=""
for _ in $(seq 50); do
    BASE="$(sed -n 's/.*listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$WORK/server.log")"
    [ -n "$BASE" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died on startup"; cat "$WORK/server.log"; exit 1; }
    sleep 0.2
done
[ -n "$BASE" ] || { echo "FAIL: server never printed its address"; cat "$WORK/server.log"; exit 1; }
echo "   serving at $BASE"

echo "== shared-prompt client storm over HTTP (2 rounds x 4 clients)"
PROMPT="what city hosts the museum of ancient art and when does it open"
for round in 1 2; do
    pids=()
    for i in 1 2 3 4; do
        curl -sf "$BASE/v1/generate" \
            -d "{\"text\":\"$PROMPT $i\",\"max_tokens\":6,\"protected\":true}" \
            >"$WORK/gen$round.$i.json" &
        pids+=($!)
    done
    for p in "${pids[@]}"; do wait "$p" || { echo "FAIL: a generate request failed"; exit 1; }; done
done
# Round 2 repeats round 1's prompts exactly: tokens, text, and correction
# counters must be identical (queue_ms/gen_ms legitimately differ).
for i in 1 2 3 4; do
    for field in tokens text corrections; do
        a="$(grep -o "\"$field\":[^}]*" "$WORK/gen1.$i.json" | head -1)"
        b="$(grep -o "\"$field\":[^}]*" "$WORK/gen2.$i.json" | head -1)"
        [ -n "$a" ] && [ "$a" = "$b" ] || {
            echo "FAIL: warm response $i differs from cold on $field: '$a' vs '$b'"; exit 1; }
    done
done

echo "== prefix metrics reflect the hits"
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
for metric in ft2serve_prefix_hits ft2serve_prefix_misses ft2serve_prefix_evictions \
              ft2serve_prefix_entries ft2serve_prefill_chunks_total; do
    grep -q "^$metric" "$WORK/metrics.txt" || {
        echo "FAIL: missing $metric"; cat "$WORK/metrics.txt"; exit 1; }
done
hits="$(awk '/^ft2serve_prefix_hits/ {print $2}' "$WORK/metrics.txt")"
[ "$hits" -gt 0 ] || { echo "FAIL: prefix cache never hit (hits=$hits)"; cat "$WORK/metrics.txt"; exit 1; }
echo "   $hits prefix hits"

echo "== SIGTERM with the cache populated: graceful drain"
kill -TERM "$SERVER_PID"
status=0
wait "$SERVER_PID" || status=$?
SERVER_PID=""
[ "$status" -eq 0 ] || { echo "FAIL: server exited $status after SIGTERM, want 0"; cat "$WORK/server.log"; exit 1; }
grep -q "drained, exiting" "$WORK/server.log" || {
    echo "FAIL: no drain notice in the server log"; cat "$WORK/server.log"; exit 1; }

echo "PASS: prefix smoke — cached serving bit-identical, metrics live, drain clean"
