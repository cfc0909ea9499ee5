#!/usr/bin/env bash
# cluster-smoke: boot a ring of real sdserver shards behind sdproxy and
# certify the fault-tolerant cluster contract end to end:
#
#   1. throughput scales when the ring grows from one shard to three
#      (gated leniently — CI boxes are noisy — via CLUSTER_MIN_SCALE),
#   2. fingerprint-affinity routing beats scatter on QR-cache locality:
#      with a frame pool larger than one shard's 64-entry cache but
#      smaller than 3x that, affinity keeps each shard's working set
#      resident while scatter thrashes every cache with the full pool,
#   3. a seeded kill/partition/stall storm drops nothing — sdload's
#      transport_errors stays 0 while shards die under it — and health
#      converges back to ok once the plan clears,
#   4. live membership works over the wire: a join answers with its
#      measured key disruption and a leave drains cleanly,
#   5. SIGINT stops the proxy gracefully and it logs final stats.
#
# Tunables (env): CLUSTER_MIN_SCALE (default 1.2) gates the 3-vs-1 shard
# throughput ratio; CLUSTER_MIN_AFFINITY_GAIN (default 0.10) gates the
# affinity-minus-scatter cache hit-rate margin. Both actual values are
# printed so a regression is visible even while the gates stay lenient.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
base=${SDCLUSTER_PORT:-18120}
shard_addrs=()
shard_urls=()

build sdserver sdproxy sdload

# Heavier frames (8x8 16-QAM) make the decode — not HTTP plumbing — the
# dominant per-frame cost; one worker per shard keeps the per-shard QR
# cache a single 64-entry LRU.
shape=(-tx 8 -rx 8 -mod 16qam)
for i in 0 1 2 3; do
    addr="127.0.0.1:$((base + i))"
    shard_addrs+=("$addr")
    shard_urls+=("http://$addr")
    "$tmp/sdserver" -addr "$addr" "${shape[@]}" -workers 1 \
        -max-batch 8 -max-wait 500us -policy shed-to-linear \
        2> "$tmp/shard$i.log" &
    track $!
done
# Scaling shards: service time is a deterministic injected 8ms stall per
# frame (sleep, not CPU), so capacity grows with shard count even on a
# single-core CI box where three CPU-bound processes could never beat one.
scale_addrs=()
scale_urls=()
for i in 0 1 2; do
    addr="127.0.0.1:$((base + 20 + i))"
    scale_addrs+=("$addr")
    scale_urls+=("http://$addr")
    "$tmp/sdserver" -addr "$addr" -workers 1 \
        -max-batch 1 -max-wait 200us -policy shed-to-linear \
        -chaos "stall=1,stall-for=8ms" -chaos-seed 3 \
        2> "$tmp/scaleshard$i.log" &
    track $!
done
for addr in "${shard_addrs[@]}" "${scale_addrs[@]}"; do
    wait_healthz "$addr" || { echo "cluster-smoke: shard $addr never came up" >&2; exit 1; }
done

ring3="${shard_urls[0]},${shard_urls[1]},${shard_urls[2]}"
proxy_addr="127.0.0.1:$((base + 10))"

start_proxy() { # start_proxy <args...>; sets proxy_pid
    "$tmp/sdproxy" -addr "$proxy_addr" "$@" 2> "$tmp/proxy.log" &
    proxy_pid=$!
    track "$proxy_pid"
    wait_healthz "$proxy_addr" || {
        echo "cluster-smoke: sdproxy never came up" >&2
        cat "$tmp/proxy.log" >&2
        exit 1
    }
}
stop_proxy() { stop "$proxy_pid"; }
cache_totals() { # cache_totals -> "hits misses" summed over the 3 ring shards
    local h=0 m=0 a f
    for a in "${shard_addrs[@]:0:3}"; do
        curl -fsS "http://$a/metrics" > "$tmp/shardmetrics.json"
        f=$(json_field "$tmp/shardmetrics.json" qr_cache_hits);   h=$((h + ${f:-0}))
        f=$(json_field "$tmp/shardmetrics.json" qr_cache_misses); m=$((m + ${f:-0}))
    done
    echo "$h $m"
}

# ---- 1. throughput scaling: 1 shard vs the full 3-shard ring ------------
scale_ring="${scale_urls[0]},${scale_urls[1]},${scale_urls[2]}"
start_proxy -shards "${scale_urls[0]}" -replicas 1 -routing scatter
"$tmp/sdload" -addr "http://$proxy_addr" -duration 2s -conc 24 -pool 64 \
    -min-ok 1 -patience 10s -seed 21 -json > "$tmp/one.json"
stop_proxy
start_proxy -shards "$scale_ring" -replicas 2 -routing scatter
"$tmp/sdload" -addr "http://$proxy_addr" -duration 2s -conc 24 -pool 64 \
    -min-ok 1 -patience 10s -seed 21 -json > "$tmp/three.json"
one=$(json_field "$tmp/one.json" throughput_rps)
three=$(json_field "$tmp/three.json" throughput_rps)
min_scale=${CLUSTER_MIN_SCALE:-1.2}
scale=$(awk -v a="$three" -v b="$one" 'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')
echo "cluster-smoke: scaling 1->3 shards: ${one%%.*} -> ${three%%.*} rps (x$scale, gate x$min_scale)"
awk -v s="$scale" -v m="$min_scale" 'BEGIN { exit !(s >= m) }' || {
    echo "cluster-smoke: 3-shard ring only x$scale over one shard (need x$min_scale; tune CLUSTER_MIN_SCALE for slow boxes)" >&2
    exit 1
}
stop_proxy

# ---- 2. cache locality: affinity routing vs scatter ---------------------
# 151 distinct channels (coprime with the ring size, so scatter's rotation
# shows every shard the whole pool): scatter thrashes the 64-entry caches,
# affinity pins ~50 channels per shard and they stay resident. Scatter
# runs first so its leftovers cannot warm the affinity pass's caches the
# wrong way around.
read -r h0 m0 <<< "$(cache_totals)"
start_proxy -shards "$ring3" -replicas 2 -routing scatter
"$tmp/sdload" -addr "http://$proxy_addr" -duration 2s -conc 12 -pool 151 \
    -min-ok 1 -patience 10s -seed 33 -json > "$tmp/scatter.json"
stop_proxy
read -r h1 m1 <<< "$(cache_totals)"
start_proxy -shards "$ring3" -replicas 2 -routing affinity
"$tmp/sdload" -addr "http://$proxy_addr" -duration 2s -conc 12 -pool 151 \
    -min-ok 1 -patience 10s -seed 33 -json > "$tmp/affinity.json"
stop_proxy
read -r h2 m2 <<< "$(cache_totals)"
min_gain=${CLUSTER_MIN_AFFINITY_GAIN:-0.10}
rates=$(awk -v sh=$((h1 - h0)) -v sm=$((m1 - m0)) -v ah=$((h2 - h1)) -v am=$((m2 - m1)) \
    'BEGIN {
        sr = (sh + sm > 0) ? sh / (sh + sm) : 0
        ar = (ah + am > 0) ? ah / (ah + am) : 0
        printf "%.3f %.3f", sr, ar
    }')
read -r scatter_rate affinity_rate <<< "$rates"
echo "cluster-smoke: QR-cache hit rate: scatter $scatter_rate, affinity $affinity_rate (gate: gap >= $min_gain)"
awk -v s="$scatter_rate" -v a="$affinity_rate" -v g="$min_gain" 'BEGIN { exit !(a >= s + g) }' || {
    echo "cluster-smoke: affinity routing did not beat scatter on cache locality" >&2
    exit 1
}

# ---- 3. seeded chaos storm: zero drops, then health back to ok ----------
start_proxy -shards "$ring3" -replicas 2 -attempt-timeout 150ms \
    -probe-interval 25ms -dark-after 2 \
    -breaker-threshold 2 -breaker-cooldown 20ms -breaker-cooldown-cap 100ms \
    -chaos "kill=0@1s+1200ms,partition=1@1500ms+1s,stall=2@500ms+2s,stall-for=1ms" \
    -chaos-seed 7
"$tmp/sdload" -addr "http://$proxy_addr" -duration 3500ms -conc 8 -pool 64 \
    -min-ok 1 -patience 10s -seed 44 -json > "$tmp/storm.json"
grep -q '"transport_errors": 0' "$tmp/storm.json" || {
    echo "cluster-smoke: frames dropped without an HTTP answer during the storm" >&2
    cat "$tmp/storm.json" >&2
    exit 1
}
curl -fsS "http://$proxy_addr/metrics" > "$tmp/proxymetrics.json"
failovers=$(json_field "$tmp/proxymetrics.json" failovers)
dark=$(json_field "$tmp/proxymetrics.json" dark_skips)
breaker=$(json_field "$tmp/proxymetrics.json" breaker_skips)
[ "$((${failovers:-0} + ${dark:-0} + ${breaker:-0}))" -gt 0 ] || {
    echo "cluster-smoke: the storm never forced a failover or skip (failovers=$failovers dark=$dark breaker=$breaker)" >&2
    exit 1
}
wait_healthz "$proxy_addr" ok || {
    echo "cluster-smoke: cluster health never returned to ok after the storm" >&2
    curl -sS "http://$proxy_addr/healthz" >&2 || true
    exit 1
}
echo "cluster-smoke: storm survived with zero drops (failovers=${failovers:-0} dark_skips=${dark:-0} breaker_skips=${breaker:-0})"

# ---- 4. live membership over the wire -----------------------------------
curl -fsS -X POST "http://$proxy_addr/v1/shards" \
    -H 'Content-Type: application/json' \
    -d "{\"url\":\"${shard_urls[3]}\"}" > "$tmp/join.json"
grep -q '"moved"' "$tmp/join.json" || {
    echo "cluster-smoke: join did not report its key disruption" >&2
    cat "$tmp/join.json" >&2
    exit 1
}
"$tmp/sdload" -addr "http://$proxy_addr" -duration 500ms -conc 4 -pool 32 \
    -min-ok 1 -patience 5s -seed 55 -json > "$tmp/joined.json"
grep -q '"transport_errors": 0' "$tmp/joined.json" || {
    echo "cluster-smoke: drops while serving on the grown ring" >&2
    exit 1
}
curl -fsS -X DELETE "http://$proxy_addr/v1/shards?url=${shard_urls[3]}" > "$tmp/leave.json"
grep -q "\"${shard_urls[3]}\"" "$tmp/leave.json" || {
    echo "cluster-smoke: leave did not acknowledge the departed shard" >&2
    cat "$tmp/leave.json" >&2
    exit 1
}
echo "cluster-smoke: join/leave cycled a fourth shard with zero drops"

# ---- 5. graceful drain ---------------------------------------------------
kill -INT "$proxy_pid"
wait "$proxy_pid" 2>/dev/null || true
untrack "$proxy_pid"
grep -q 'final stats' "$tmp/proxy.log" || {
    echo "cluster-smoke: sdproxy did not log final stats on drain" >&2
    cat "$tmp/proxy.log" >&2
    exit 1
}
echo "cluster-smoke: OK"
