#!/usr/bin/env bash
# chaos-smoke: boot sdserver with fault injection wrapping every worker
# backend (-chaos), hammer it through the storm, and assert the
# self-healing contract end to end:
#
#   1. the process survives the storm (panics, stalls, garbage, glitches),
#   2. every request is answered or typed-rejected — sdload's
#      transport_errors (requests that never got an HTTP answer) stays 0,
#   3. the circuit breaker actually opened under the storm,
#   4. once the plan clears, health returns to ok,
#   5. SIGINT still drains gracefully.
#
# The plan is seeded, so the storm is the same faults every run. The
# restart budget is raised above the storm's panic count: quarantine (the
# give-up state) is unit-tested separately; this smoke certifies recovery.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
addr="127.0.0.1:${SDSERVER_PORT:-18103}"

build sdserver sdload

# Roughly one backend call in three faults until the plan has rolled 400
# calls, then it goes quiet. Tight breaker cooldowns so open→probe→reclose
# cycles fit a seconds-scale smoke.
"$tmp/sdserver" -addr "$addr" -max-batch 8 -max-wait 1ms -workers 2 \
    -policy shed-to-linear \
    -chaos "panic=0.02,stall=0.05,garbage=0.1,error=0.15,stall-for=2ms,clear-after=400" \
    -chaos-seed 7 \
    -breaker-threshold 3 -breaker-cooldown 5ms -breaker-cooldown-cap 25ms \
    -max-restarts 200 \
    2> "$tmp/server.log" &
pid=$!
track "$pid"

# Wave 1: load through the storm. -min-ok proves liveness; the
# transport_errors check proves nothing was dropped on the floor.
"$tmp/sdload" -addr "http://$addr" -duration 2s -conc 8 -min-ok 1 \
    -patience 10s -seed 11 -json > "$tmp/storm.json"
grep -q '"transport_errors": 0' "$tmp/storm.json" || {
    echo "chaos-smoke: requests dropped without an HTTP answer during the storm" >&2
    cat "$tmp/storm.json" >&2
    exit 1
}

# Wave 2: clean traffic after the storm — half-open probes ride on these
# submits and reclose the breakers.
"$tmp/sdload" -addr "http://$addr" -duration 2s -conc 8 -min-ok 1 \
    -patience 10s -seed 13 -json > "$tmp/calm.json"
grep -q '"transport_errors": 0' "$tmp/calm.json" || {
    echo "chaos-smoke: requests dropped without an HTTP answer after the storm" >&2
    cat "$tmp/calm.json" >&2
    exit 1
}

# Health must have recovered: /healthz answers 200 with status ok.
wait_healthz "$addr" ok 50 || {
    echo "chaos-smoke: health never returned to ok after the storm" >&2
    curl -sS "http://$addr/healthz" >&2 || true
    exit 1
}

# The storm must actually have exercised the breaker and the supervisor.
curl -fsS "http://$addr/metrics?format=prometheus" > "$tmp/metrics.prom"
opened=$(awk '$1 == "mimosd_breaker_opened_total" {print int($2)}' "$tmp/metrics.prom")
[ "${opened:-0}" -gt 0 ] || {
    echo "chaos-smoke: breaker never opened under the storm (opened=${opened:-?})" >&2
    exit 1
}
panics=$(awk '$1 == "mimosd_worker_panics_total" {print int($2)}' "$tmp/metrics.prom")
[ "${panics:-0}" -gt 0 ] || {
    echo "chaos-smoke: no worker panic was injected/recovered (panics=${panics:-?})" >&2
    exit 1
}

# Graceful drain: SIGINT stops the server cleanly and it logs final stats.
drain "$pid"
grep -q 'final stats' "$tmp/server.log" || {
    echo "chaos-smoke: server did not log final stats on drain" >&2
    cat "$tmp/server.log" >&2
    exit 1
}
echo "chaos-smoke: OK"
