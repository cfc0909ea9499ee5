#!/usr/bin/env bash
# ofdm-smoke: boot a real sdserver and certify the wideband OFDM workload
# tier end to end:
#
#   1. the static-dense scenario (coherent resource grid) passes its SLO
#      gates — exact-fraction floor, BER ceiling, BER no worse than the ZF
#      floor, p99 bound, zero transport errors — deterministically from its
#      seed, and drives the server's QR preprocess cache to a hit rate of
#      at least OFDM_MIN_COHERENT_RATE (default 0.80),
#   2. the incoherent-control scenario (independent channel per frame, same
#      grid geometry) passes its SLOs against a fresh server but leaves the
#      cache hit rate below OFDM_MAX_INCOHERENT_RATE (default 0.30) — the
#      measured delta is the tentpole's whole point,
#   3. the mobility-aging scenario (Doppler drift + CSI noise) passes its
#      SLOs: the serving stack honours the degradation contract even when
#      the detector's channel estimate is stale.
#
# Each scenario gets a freshly booted server (-workers 1 so the per-server
# QR cache is a single 64-entry LRU) so cache measurements don't bleed
# between runs. sdload's exit status enforces the SLO gates; this script
# adds the cache-rate assertions on top.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
port=${SDOFDM_PORT:-18220}
addr="127.0.0.1:$port"

build sdserver sdload

start_server() { # start_server <logname>
    "$tmp/sdserver" -addr "$addr" -workers 1 -max-batch 16 -max-wait 1ms \
        2> "$tmp/$1.log" &
    server_pid=$!
    track "$server_pid"
    wait_healthz "$addr" || {
        echo "ofdm-smoke: sdserver never came up" >&2
        cat "$tmp/$1.log" >&2
        exit 1
    }
}
stop_server() { stop "$server_pid"; }

run_scenario() { # run_scenario <name> <outfile>
    "$tmp/sdload" -addr "http://$addr" -scenario "$1" -seed 1 -conc 8 \
        -min-ok 1 -patience 10s -json > "$2" || {
        echo "ofdm-smoke: scenario $1 failed its gates" >&2
        cat "$2" >&2
        exit 1
    }
    grep -q '"slo_violations": \[\]' "$2" || {
        echo "ofdm-smoke: scenario $1 reported SLO violations" >&2
        cat "$2" >&2
        exit 1
    }
}

min_coherent=${OFDM_MIN_COHERENT_RATE:-0.80}
max_incoherent=${OFDM_MAX_INCOHERENT_RATE:-0.30}

# ---- 1. coherent grid: SLOs pass, cache runs hot ------------------------
start_server static
run_scenario static-dense "$tmp/static.json"
coherent_rate=$(json_field "$tmp/static.json" qr_cache_hit_rate)
stop_server
echo "ofdm-smoke: static-dense SLO ok, QR-cache hit rate $coherent_rate (gate >= $min_coherent)"
awk -v r="$coherent_rate" -v g="$min_coherent" 'BEGIN { exit !(r >= g) }' || {
    echo "ofdm-smoke: coherent grid hit rate $coherent_rate below $min_coherent" >&2
    exit 1
}

# ---- 2. incoherent control: SLOs pass, cache stays cold -----------------
start_server incoherent
run_scenario incoherent-control "$tmp/incoherent.json"
incoherent_rate=$(json_field "$tmp/incoherent.json" qr_cache_hit_rate)
stop_server
echo "ofdm-smoke: incoherent-control SLO ok, QR-cache hit rate $incoherent_rate (gate < $max_incoherent)"
awk -v r="$incoherent_rate" -v g="$max_incoherent" 'BEGIN { exit !(r < g) }' || {
    echo "ofdm-smoke: incoherent control hit rate $incoherent_rate not below $max_incoherent" >&2
    exit 1
}

# ---- 3. mobility: CSI aging stays inside the degradation contract -------
start_server mobility
run_scenario mobility-aging "$tmp/mobility.json"
stop_server
echo "ofdm-smoke: mobility-aging SLO ok"

echo "ofdm-smoke: OK"
