#!/usr/bin/env bash
# obs-smoke: end-to-end check of the observability surface.
#
#   1. build adaptivelinkd and linkbench
#   2. start the daemon with a debug listener, a tiny slow threshold
#      and every-request sampling
#   3. assert X-Request-ID minting + echo on /v1/link
#   4. assert an explain link returns reconciling decision traces
#   5. assert /v1/debug/slowlog retains traces and /v1/debug/requests/{id}
#      serves a forced trace by id
#   6. assert /v1/version and the build_info + latency series in /metrics
#   7. assert the pprof endpoints on the debug listener answer 200
#   8. drive linkbench with the server-p99 crosscheck enabled
#   9. SIGTERM, assert a clean drain, and re-run `make alloc` to prove
#      the tracing layer left the probe hot path allocation-free
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
    echo "obs-smoke: $*" >&2
    [ -f "$tmp/server.log" ] && cat "$tmp/server.log" >&2
    exit 1
}

go build -o "$tmp/adaptivelinkd" ./cmd/adaptivelinkd
go build -o "$tmp/linkbench" ./cmd/linkbench

"$tmp/adaptivelinkd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -debug-addr 127.0.0.1:0 -debug-addr-file "$tmp/debug-addr" \
    -trace-sample 1 -slow-threshold 1ms -slowlog-cap 64 \
    >"$tmp/server.log" 2>&1 &
pid=$!
for _ in $(seq 100); do
    [ -s "$tmp/addr" ] && [ -s "$tmp/debug-addr" ] && break
    sleep 0.1
done
[ -s "$tmp/addr" ] || fail "server did not start"
[ -s "$tmp/debug-addr" ] || fail "debug listener did not start"
addr=$(cat "$tmp/addr")
debug=$(cat "$tmp/debug-addr")

# --- index + request-id echo ----------------------------------------
curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/indexes" \
    -d '{"name":"obs","tuples":[{"id":1,"key":"via monte rosa 7 nord"},{"id":2,"key":"lago di garda sud 3"},{"id":3,"key":"valle verde ovest 9"}]}' \
    | grep -qx 201 || fail "index create failed"

echoed=$(curl -sS -o /dev/null -D - -X POST "http://$addr/v1/link" \
    -H 'X-Request-ID: obs-smoke-42' \
    -d '{"index":"obs","key":"via monte rosa 7 nord"}' \
    | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ "$echoed" = "obs-smoke-42" ] || fail "X-Request-ID not echoed (got '$echoed')"

minted=$(curl -sS -o /dev/null -D - -X POST "http://$addr/v1/link" \
    -d '{"index":"obs","key":"lago di garda sud 3"}' \
    | tr -d '\r' | awk -F': ' 'tolower($1)=="x-request-id"{print $2}')
[ -n "$minted" ] || fail "no X-Request-ID minted"
echo "obs-smoke: request ids OK (echoed obs-smoke-42, minted $minted)"

# --- explain decisions reconcile ------------------------------------
explain=$(curl -sS -X POST "http://$addr/v1/link" \
    -d '{"index":"obs","keys":["via monte rosa 7 nord","via monte rosa 7 nors","no such key at all"],"explain":true}')
decisions=$(echo "$explain" | jq '.decisions | length')
[ "$decisions" = 3 ] || fail "explain returned $decisions decisions, want 3"
hits_d=$(echo "$explain" | jq '[.decisions[] | select(.hit)] | length')
hits_s=$(echo "$explain" | jq '.session.Hits')
[ "$hits_d" = "$hits_s" ] || fail "decision hits $hits_d != session hits $hits_s"
spend=$(echo "$explain" | jq '.decisions[-1].spend_after')
cost=$(echo "$explain" | jq '.session.ModelledCost')
[ "$spend" = "$cost" ] || fail "final spend_after $spend != modelled_cost $cost"
echo "obs-smoke: explain OK (3 decisions, hits and spend reconcile)"

# --- forced trace by id + slowlog -----------------------------------
curl -sS -o /dev/null -X POST "http://$addr/v1/link" \
    -H 'X-Request-ID: obs-smoke-traced' -H 'X-Debug-Trace: 1' \
    -d '{"index":"obs","key":"valle verde ovest 9"}'
trace=$(curl -sS "http://$addr/v1/debug/requests/obs-smoke-traced")
echo "$trace" | jq -e '.request_id == "obs-smoke-traced" and .sampled == true and (.spans | length) > 0' >/dev/null \
    || fail "forced trace not retrievable: $trace"

# Everything above beat a 1ms threshold or not — issue one definitely
# slow request via a large batch to make the slowlog deterministic.
bigkeys=$(jq -cn '[range(2500) | "padding key \(.) for slow request"]')
curl -sS -o /dev/null -X POST "http://$addr/v1/link" \
    -d "{\"index\":\"obs\",\"keys\":$bigkeys}"
slowlog=$(curl -sS "http://$addr/v1/debug/slowlog")
echo "$slowlog" | jq -e '.slow_seen >= 1 and (.traces | length) >= 1 and .threshold_ms == 1' >/dev/null \
    || fail "slowlog not capturing: $slowlog"
echo "obs-smoke: traces OK (by-id fetch + slowlog retention)"

# --- version + metrics ----------------------------------------------
curl -sS "http://$addr/v1/version" | jq -e '.go_version | length > 0' >/dev/null \
    || fail "/v1/version malformed"
metrics=$(curl -sS "http://$addr/metrics")
for series in adaptivelink_build_info adaptivelink_uptime_seconds \
    adaptivelink_goroutines adaptivelink_link_latency_seconds_bucket \
    adaptivelink_link_queue_wait_seconds_count adaptivelink_slow_requests_total \
    adaptivelink_engine_upserts_total adaptivelink_engine_scratch_gets_total \
    adaptivelink_engine_qgram_builds_total adaptivelink_engine_qgram_built_shards \
    adaptivelink_engine_qgram_posting_bytes; do
    echo "$metrics" | grep -q "$series" || fail "/metrics missing $series"
done
echo "obs-smoke: version + metrics OK"

# --- pprof on the debug listener ------------------------------------
for ep in "debug/pprof/" "debug/pprof/heap" "debug/pprof/goroutine" "debug/pprof/cmdline"; do
    code=$(curl -sS -o /dev/null -w '%{http_code}' "http://$debug/$ep")
    [ "$code" = 200 ] || fail "pprof $ep returned $code"
done
echo "obs-smoke: pprof OK"

# --- linkbench with the server-p99 crosscheck -----------------------
"$tmp/linkbench" -addr "http://$addr" -index obs -create=false -n 60 -c 8 -batch 2 \
    -parent 200 -p99-drift-pct 400 \
    || fail "linkbench with p99 crosscheck failed"
echo "obs-smoke: linkbench p99 crosscheck OK"

# --- clean drain, then prove the hot path stayed allocation-free ----
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || fail "server exited $rc (unclean drain)"
grep -q "drained, bye" "$tmp/server.log" || fail "drain banner missing"

make alloc >/dev/null || fail "alloc pins regressed with observability built in"
echo "obs-smoke: OK (tracing on, probe hot path still allocation-free)"
