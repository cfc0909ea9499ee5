#!/usr/bin/env bash
# rvd-smoke: certify the real-valued Schnorr–Euchner hot path end to end:
#
#   1. sdbench's rvd study must beat the complex SortedDFS+GEMM engine by at
#      least RVD_MIN_SPEEDUP (default 1.3x), measured side-by-side in one
#      process so machine noise cancels, with zero comparator/sorting work
#      (SE child enumeration is analytic) and zero allocations per decode,
#   2. an sdserver booted with no engine flags must advertise rvd-se under
#      l2 on /v1/config, decode live sdload traffic with it, and refuse a
#      norm=linf policy pin with 400 (the norm is no serving knob).
set -euo pipefail

. "$(dirname "$0")/lib.sh"
port=${SDRVD_PORT:-18230}
addr="127.0.0.1:$port"

min_speedup=${RVD_MIN_SPEEDUP:-1.3}

# ---- 1. hot-path gate: speedup, comparator-free, zero-alloc --------------
go run ./cmd/sdbench -study rvd -out "$tmp/bench.json" \
    -gate-rvd-speedup "$min_speedup"
echo "rvd-smoke: sdbench gate ok (>= ${min_speedup}x, 0 compare ops, 0 allocs)"

# ---- 2. serving wire-up: the default engine serves traffic ---------------
build sdserver sdload

"$tmp/sdserver" -addr "$addr" -workers 1 2> "$tmp/server.log" &
track $!
wait_healthz "$addr" || {
    echo "rvd-smoke: sdserver never came up" >&2
    cat "$tmp/server.log" >&2
    exit 1
}

cfg="$(curl -fsS "http://$addr/v1/config")"
echo "$cfg" | grep -q '"strategy":"SD-RVD-SE"' || {
    echo "rvd-smoke: /v1/config does not advertise SD-RVD-SE: $cfg" >&2
    exit 1
}
echo "$cfg" | grep -q '"norm":"l2"' || {
    echo "rvd-smoke: /v1/config does not advertise l2: $cfg" >&2
    exit 1
}

"$tmp/sdload" -addr "http://$addr" -duration 1s -conc 4 -min-ok 50 \
    -json > "$tmp/load.json" || {
    echo "rvd-smoke: live decode through the RealSE engine failed" >&2
    cat "$tmp/load.json" >&2
    exit 1
}
status="$(curl -sS -o "$tmp/linf.json" -w '%{http_code}' -X PUT \
    -H 'Content-Type: application/json' -d '{"policy":"norm=linf"}' \
    "http://$addr/v1/policy")"
[ "$status" = 400 ] || {
    echo "rvd-smoke: PUT /v1/policy norm=linf answered $status, want 400" >&2
    cat "$tmp/linf.json" >&2
    exit 1
}
echo "rvd-smoke: serving wire-up ok (config advertises engine, live decodes pass, norm=linf refused)"

echo "rvd-smoke: OK"
