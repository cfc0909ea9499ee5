#!/usr/bin/env bash
# sdc-smoke: boot sdserver with the full integrity stack armed
# (-verify-gemm ABFT checksums, verify-on-hit QR cache, re-encode result
# audit) and a seeded silent-data-corruption plan (-sdc-chaos) flipping
# mantissa bits in cached QR payloads, GEMM outputs, and reported
# metrics, then assert the SDC defense contract end to end:
#
#   1. every injected corruption that lands is detected: the per-site
#      detection counters cover the plan's ground-truth landed counts
#      (detected >= landed for gemm and metric-audit; qr-cache evictions
#      land in (0, landed] — an entry corrupted twice before its next
#      cache hit is one eviction),
#   2. zero corrupted frames are served as exact: the static-dense
#      scenario runs UNDER the storm with its SLO gates live (exact
#      fraction >= 0.95, BER ceiling, served BER <= ZF) — a corruption
#      that escaped detection would serve wrong symbols marked exact and
#      blow the BER gates,
#   3. once the plan clears, health returns to ok,
#   4. SIGINT drains gracefully and the final stats line carries the
#      landed counts that close the loop on assertion 1.
#
# The plan is seeded, so the same faults land every run. Quarantine (the
# give-up state for a worker whose SDC rate blows its per-window budget)
# is soak-tested in internal/serve/sdc_test.go; here the limit is raised
# out of the way so the single worker survives the whole storm.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
addr="127.0.0.1:${SDSERVER_PORT:-18104}"

build sdserver sdload

# One worker keeps the shared fault plan's roll stream serial (and so
# deterministic for a given seed); the rates land roughly one corruption
# in four backend calls until the plan has rolled 150 calls, well inside
# the static-dense scenario, so the storm is over before the calm wave.
"$tmp/sdserver" -addr "$addr" -max-batch 16 -max-wait 1ms -workers 1 \
    -policy shed-to-linear \
    -verify-gemm \
    -sdc-chaos "qr=0.08,gemm=0.1,metric=0.08,clear-after=150" \
    -chaos-seed 7 \
    -sdc-quarantine 100000 \
    2> "$tmp/server.log" &
pid=$!
track "$pid"

# Wave 1: the coherent OFDM grid through the storm. The exit status IS
# the no-corrupt-frames-served assertion: runScenario fails on any SLO
# violation, and a served corruption means wrong exact symbols -> BER
# above the ZF baseline. Coherent traffic also keeps the QR cache hot,
# so the plan's qr-cache corruptions have entries to land on.
"$tmp/sdload" -addr "http://$addr" -scenario static-dense -seed 1 -conc 8 \
    -min-ok 1 -patience 10s -json > "$tmp/storm.json" || {
    echo "sdc-smoke: static-dense failed its gates under the SDC storm" >&2
    cat "$tmp/storm.json" >&2
    exit 1
}
grep -q '"slo_violations": \[\]' "$tmp/storm.json" || {
    echo "sdc-smoke: SLO violations under the SDC storm" >&2
    cat "$tmp/storm.json" >&2
    exit 1
}

# Wave 2: clean traffic that rolls the plan past clear-after (if wave 1
# did not already) and proves nothing is dropped once the storm ends.
"$tmp/sdload" -addr "http://$addr" -duration 2s -conc 8 -min-ok 1 \
    -patience 10s -seed 13 -json > "$tmp/calm.json"
grep -q '"transport_errors": 0' "$tmp/calm.json" || {
    echo "sdc-smoke: requests dropped without an HTTP answer after the storm" >&2
    cat "$tmp/calm.json" >&2
    exit 1
}

# Health must have recovered once the plan went quiet.
wait_healthz "$addr" ok 50 || {
    echo "sdc-smoke: health never returned to ok after the SDC storm" >&2
    curl -sS "http://$addr/healthz" >&2 || true
    exit 1
}

# Every detection site must have fired: the storm exercised all three
# defense layers, and every detection was neutralized before serving.
curl -fsS "http://$addr/metrics?format=prometheus" > "$tmp/metrics.prom"
prom() { # prom <metric-line-prefix> -> integer value (0 if absent)
    grep -F "$1" "$tmp/metrics.prom" | grep -v '^#' | awk '{print int($2)}' | head -1
}
det_gemm=$(prom 'mimosd_sdc_detected_total{site="gemm"}')
det_metric=$(prom 'mimosd_sdc_detected_total{site="metric-audit"}')
det_qr=$(prom 'mimosd_sdc_detected_total{site="qr-cache"}')
evictions=$(prom 'mimosd_qr_cache_sdc_evictions_total')
recovered=$(prom 'mimosd_sdc_recovered_total')
for pair in "gemm:$det_gemm" "metric-audit:$det_metric" "qr-cache:$det_qr"; do
    [ "${pair#*:}" -gt 0 ] 2>/dev/null || {
        echo "sdc-smoke: no detections at site ${pair%%:*} (gemm=$det_gemm metric-audit=$det_metric qr-cache=$det_qr)" >&2
        exit 1
    }
done
[ "${evictions:-0}" -gt 0 ] || {
    echo "sdc-smoke: verify-on-hit never evicted a corrupted QR entry" >&2
    exit 1
}
[ "${recovered:-0}" -gt 0 ] || {
    echo "sdc-smoke: no detected corruption was recovered (recovered=${recovered:-?})" >&2
    exit 1
}

# Graceful drain; the final stats line carries the plan's ground truth.
drain "$pid"
final=$(grep 'final stats' "$tmp/server.log") || {
    echo "sdc-smoke: server did not log final stats on drain" >&2
    cat "$tmp/server.log" >&2
    exit 1
}
landed() { # landed <site> -> count from the sdc_landed ground-truth map
    echo "$final" | grep -o '"sdc_landed":{[^}]*}' | grep -o "\"$1\":[0-9]*" | cut -d: -f2
}
land_gemm=$(landed gemm)
land_metric=$(landed metric-audit)
land_qr=$(landed qr-cache)
echo "sdc-smoke: landed gemm=$land_gemm metric=$land_metric qr=$land_qr;" \
    "detected gemm=$det_gemm metric=$det_metric qr=$det_qr evictions=$evictions"
[ "${land_gemm:-0}" -gt 0 ] && [ "${land_metric:-0}" -gt 0 ] && [ "${land_qr:-0}" -gt 0 ] || {
    echo "sdc-smoke: plan never landed at every site — raise the rates or clear-after" >&2
    exit 1
}
# Detection covers every reachable landing. The Prometheus scrape above
# ran before the drain, so compare against it (counters only grow).
[ "$det_gemm" -ge "$land_gemm" ] || {
    echo "sdc-smoke: gemm detections $det_gemm < landed $land_gemm — a GEMM corruption escaped the ABFT check" >&2
    exit 1
}
[ "$det_metric" -ge "$land_metric" ] || {
    echo "sdc-smoke: metric-audit detections $det_metric < landed $land_metric — a corrupted metric escaped the re-encode audit" >&2
    exit 1
}
[ "$det_qr" -le "$land_qr" ] || {
    echo "sdc-smoke: qr-cache detections $det_qr exceed landed $land_qr — false positives in verify-on-hit" >&2
    exit 1
}
echo "sdc-smoke: OK"
