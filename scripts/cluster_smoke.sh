#!/usr/bin/env bash
# cluster-smoke: end-to-end check of the sharded serving mode. Boots
# three stock node daemons (group A = two replicas, group B = one), a
# router fronting them, and asserts:
#
#   1. linkbench through the router completes with every request 2xx,
#      and the nodes' index sizes (one replica per group) sum to the
#      router's: every key is stored on exactly one group
#   2. /v1/cluster reports the routing table with all replicas healthy
#   3. killing one replica of group A MID-RUN is absorbed: the bench in
#      flight still ends with zero failed requests (reads fail over,
#      linkbench retries transient dials; writes meet the quorum of 1),
#      and /v1/cluster flips the dead replica to unhealthy
#   4. self-healing: writes keep landing while the replica is dead
#      (queued router-side for it), the replica revives BLANK at its
#      recorded address, the replayed writes are refused and collapse
#      into one queued re-seed, and the replica's drainer streams the
#      index from its peer; /v1/cluster must end with an empty queue
#      (no hints_pending, no needs_resync) and, after the next
#      anti-entropy pass observed them, matching content digests
#   5. killing group B entirely makes routed batches fail WHOLE with
#      the node_unavailable envelope (502) — never silent partials
#   6. the router and the surviving node both drain cleanly on SIGTERM
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/adaptivelinkd" ./cmd/adaptivelinkd
go build -o "$tmp/linkbench" ./cmd/linkbench

# start_daemon <name> [extra flags...]: launch one daemon on an
# ephemeral port; records its pid in $pids and address in $tmp/<name>.addr.
start_daemon() {
    local name=$1
    shift
    "$tmp/adaptivelinkd" -addr 127.0.0.1:0 -addr-file "$tmp/$name.addr" "$@" \
        >"$tmp/$name.log" 2>&1 &
    pids+=($!)
    eval "${name}_pid=$!"
    for _ in $(seq 100); do
        [ -s "$tmp/$name.addr" ] && break
        sleep 0.1
    done
    [ -s "$tmp/$name.addr" ] || {
        echo "cluster-smoke: $name did not start" >&2
        cat "$tmp/$name.log" >&2
        exit 1
    }
    eval "${name}_addr=\$(cat "$tmp/$name.addr")"
}

# stop_daemon <name> <pid>: SIGTERM + assert the clean-drain banner.
stop_daemon() {
    local name=$1 p=$2
    kill -TERM "$p"
    local rc=0
    wait "$p" || rc=$?
    if [ "$rc" -ne 0 ] || ! grep -q "drained, bye" "$tmp/$name.log"; then
        echo "cluster-smoke: $name exited $rc without a clean drain" >&2
        cat "$tmp/$name.log" >&2
        exit 1
    fi
}

start_daemon a1
start_daemon a2
start_daemon b1
# Quorum 1: a write succeeds once any replica of its key's home group
# acknowledged; the rest converge via hinted handoff — so a dead
# replica never blocks writes. Probe/repair intervals are shortened so
# the smoke observes convergence quickly.
start_daemon router -cluster "http://$a1_addr,http://$a2_addr;http://$b1_addr" -cluster-shards 4 \
    -cluster-write-quorum 1 -cluster-probe-interval 500ms -cluster-repair-interval 1s

# 1. Load through the router: linkbench creates the routed index and
#    fails the run if any request is non-2xx.
"$tmp/linkbench" -addr "http://$router_addr" -n 100 -c 32 -batch 4 -parent 400

#    R = 1: every key lives on exactly one group, so one replica per
#    group sums to the router's key count, and replicas of a group agree.
index_size() { curl -sS "http://$1/v1/indexes/bench" | jq -e '.size'; }
router_n=$(index_size "$router_addr")
a1_n=$(index_size "$a1_addr")
a2_n=$(index_size "$a2_addr")
b1_n=$(index_size "$b1_addr")
if [ "$a1_n" != "$a2_n" ] || [ "$((a1_n + b1_n))" != "$router_n" ] || [ "$router_n" -lt 1 ]; then
    echo "cluster-smoke: placement is not one group per key: router holds $router_n keys, group A $a1_n/$a2_n, group B $b1_n" >&2
    exit 1
fi

# 2. The routing table, fully healthy.
curl -sS "http://$router_addr/v1/cluster" >"$tmp/cluster1.json"
jq -e '.role == "router"
    and (.groups | length) == 2
    and ([.groups[].replicas[] | select(.healthy)] | length) == 3
    and (.indexes == ["bench"])' "$tmp/cluster1.json" >/dev/null || {
    echo "cluster-smoke: unexpected /v1/cluster before failure:" >&2
    cat "$tmp/cluster1.json" >&2
    exit 1
}

# 3. Kill a replica while a bench is in flight: failover + linkbench's
#    transient-dial retries must absorb it — zero failed requests.
"$tmp/linkbench" -addr "http://$router_addr" -n 2000 -c 16 -batch 4 -parent 400 \
    >"$tmp/bench_failover.log" 2>&1 &
bench_pid=$!
sleep 0.3
kill -9 "$a2_pid"
wait "$a2_pid" 2>/dev/null || true
if ! wait "$bench_pid"; then
    echo "cluster-smoke: bench failed across the replica kill" >&2
    cat "$tmp/bench_failover.log" >&2
    exit 1
fi
curl -sS "http://$router_addr/v1/cluster" >"$tmp/cluster2.json"
jq -e --arg dead "http://$a2_addr" \
    '[.groups[].replicas[] | select(.addr == $dead and (.healthy | not))] | length == 1' \
    "$tmp/cluster2.json" >/dev/null || {
    echo "cluster-smoke: killed replica still reported healthy:" >&2
    cat "$tmp/cluster2.json" >&2
    exit 1
}

# 4. Self-healing: writes land through the router while a2 stays dead
#    — quorum 1 is met by a1, and a2's copies queue as write entries.
#    Then a2 revives BLANK (in-memory daemon, nothing survives the
#    SIGKILL) at its recorded address; the first replayed write is
#    refused by the blank node (no index), the queued writes collapse
#    into one re-seed entry, and the same drainer bootstraps the index
#    from a1's snapshot stream. /v1/cluster must converge to an empty
#    queue on both replicas and — once the repair loop has looked —
#    matching digests.
for i in $(seq 1 8); do
    code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$router_addr/v1/indexes/bench/upsert" \
        -d "{\"tuples\":[{\"key\":\"smoke chaos street nord $i\"}]}")
    [ "$code" = 200 ] || {
        echo "cluster-smoke: quorum-1 upsert $i with a dead replica answered $code, want 200" >&2
        exit 1
    }
done
start_daemon a2r -addr "$a2_addr"
converged=
for _ in $(seq 150); do
    curl -sS "http://$router_addr/v1/cluster" >"$tmp/cluster3.json"
    if jq -e --arg n1 "http://$a1_addr" --arg n2 "http://$a2_addr" '
        [.groups[] | select(any(.replicas[]; .addr == $n2))][0] as $g
        | ($g.replicas | map(select(.addr == $n1 or .addr == $n2))) as $reps
        | ($reps | length) == 2
          and all($reps[]; .healthy and ((.hints_pending // 0) == 0) and (((.needs_resync // []) | length) == 0))
          and ($reps[0].digests.bench != null)
          and ($reps[0].digests.bench == $reps[1].digests.bench)
    ' "$tmp/cluster3.json" >/dev/null; then
        converged=1
        break
    fi
    sleep 0.2
done
[ -n "$converged" ] || {
    echo "cluster-smoke: revived replica never converged:" >&2
    cat "$tmp/cluster3.json" >&2
    cat "$tmp/a2r.log" >&2
    exit 1
}
# The keys written during the outage answer through the router.
code=$(curl -sS -o "$tmp/healed.json" -w '%{http_code}' -X POST "http://$router_addr/v1/link" \
    -d '{"index":"bench","keys":["smoke chaos street nord 3"],"strategy":"exact"}')
[ "$code" = 200 ] || {
    echo "cluster-smoke: post-heal link answered $code" >&2
    cat "$tmp/healed.json" >&2
    exit 1
}
jq -e '.results[0].matches | length >= 1' "$tmp/healed.json" >/dev/null || {
    echo "cluster-smoke: outage-era key lost after healing:" >&2
    cat "$tmp/healed.json" >&2
    exit 1
}

# 5. Kill group B outright: routed batches must fail whole with the
#    node_unavailable envelope, not succeed partially.
kill -9 "$b1_pid"
wait "$b1_pid" 2>/dev/null || true
# An approximate batch asks every group, whatever its keys.
probe_keys='"corso lago maggiore nord 1","via monte bianco sud 2","piazza valle verde est 3","viale porta nuova ovest 4","strada colle alto nord 5","largo ponte vecchio sud 6","borgo santa lucia est 7","canale grande ribera ovest 8"'
code=$(curl -sS -o "$tmp/unavail.json" -w '%{http_code}' -X POST "http://$router_addr/v1/link" \
    -d "{\"index\":\"bench\",\"keys\":[$probe_keys],\"strategy\":\"approximate\"}")
[ "$code" = 502 ] || {
    echo "cluster-smoke: link with a dead group answered $code, want 502" >&2
    cat "$tmp/unavail.json" >&2
    exit 1
}
jq -e '.error.code == "node_unavailable"' "$tmp/unavail.json" >/dev/null || {
    echo "cluster-smoke: wrong envelope for a dead group:" >&2
    cat "$tmp/unavail.json" >&2
    exit 1
}

# 6. Clean drains for the router and the surviving replicas.
stop_daemon router "$router_pid"
stop_daemon a1 "$a1_pid"
stop_daemon a2r "$a2r_pid"
echo "cluster-smoke: OK (routed load, replica failover mid-run, hinted handoff + resync convergence after revival, whole-batch failure on group loss, clean drains)"
