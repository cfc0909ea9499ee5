#!/usr/bin/env bash
# serve-smoke: boot sdserver, fire sdload at it for 2 s, and assert a
# non-zero decoded count (sdload exits 1 below -min-ok) and the default
# square-QAM engine (SD-RVD-SE) on /v1/config. No curl needed:
# sdload itself waits for the server to come up (-patience).
set -euo pipefail

. "$(dirname "$0")/lib.sh"
addr="127.0.0.1:${SDSERVER_PORT:-18099}"

build sdserver sdload

"$tmp/sdserver" -addr "$addr" -max-batch 16 -max-wait 1ms -workers 2 &
pid=$!
track "$pid"

"$tmp/sdload" -addr "http://$addr" -duration 2s -conc 8 -min-ok 1 -patience 10s \
    | tee "$tmp/sdload.out"

# With no -strategy, a square-QAM server decodes on the real-valued SE
# engine; sdload echoes the engine /v1/config advertises.
grep -q '4-QAM, SD-RVD-SE/' "$tmp/sdload.out" || {
    echo "serve-smoke: default boot does not advertise SD-RVD-SE" >&2
    exit 1
}

# The runtime-health line (GC pause + allocs/frame from /metrics) must be
# present — it is the live regression signal for the zero-alloc hot path.
grep -q 'server .*gc pause' "$tmp/sdload.out" || {
    echo "serve-smoke: sdload output missing server runtime metrics" >&2
    exit 1
}

# Graceful drain: SIGINT must stop the server cleanly.
drain "$pid"
echo "serve-smoke: OK"
