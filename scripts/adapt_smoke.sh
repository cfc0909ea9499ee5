#!/usr/bin/env bash
# adapt-smoke: A/B-certify the adaptive complexity controller end to end.
#
#   A. Baseline arm: sdserver with a fixed per-batch -node-budget sized so
#      the mobility-aging workload exhausts the pool — a static operating
#      point that sheds accuracy it didn't need to shed.
#   B. Adaptive arm: the same server with -adaptive — the controller picks
#      the cheapest ladder rung the observed SNR / node-cost / queue
#      pressure permits, per request class.
#
# Same scenario, same seed, same concurrency on both arms. Gates:
#
#   1. exact-decode fraction: adaptive strictly higher than fixed
#      (worst adaptive round vs best fixed round),
#   2. p99 latency parity: adaptive within ADAPT_P99_FACTOR (default 1.10)
#      of fixed, or within ADAPT_P99_SLACK_NS (default 1.5ms) absolute —
#      whichever is looser. Both arms sit ~500x under the scenario's 2s
#      p99 SLO, so at the ~4ms scale a relative gate alone measures
#      scheduler noise, not policy cost: the absolute slack is the
#      noise floor of a shared CI box. Every freshly booted server is
#      warmed with one discarded run (the first batches pay decoder-cache
#      construction, which lands squarely in a 768-sample p99), each arm
#      then runs ADAPT_ROUNDS (default 3) measured rounds, and the arms
#      compare min-p99 — the stable lower envelope of the distribution.
#   3. runtime reconfiguration: PUT /v1/policy pins "linear" on the live
#      adaptive server and the very next run serves zero exact frames;
#      PUT "adaptive" restores the controller and exact decodes return.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
port=${SDADAPT_PORT:-18240}
addr="127.0.0.1:$port"
rounds=${ADAPT_ROUNDS:-3}
p99_factor=${ADAPT_P99_FACTOR:-1.10}
p99_slack=${ADAPT_P99_SLACK_NS:-1500000}
node_budget=${ADAPT_FIXED_BUDGET:-40}

build sdserver sdload

start_server() { # start_server <logname> [extra flags...]
    local log="$1"; shift
    "$tmp/sdserver" -addr "$addr" -workers 1 -max-batch 16 -max-wait 1ms "$@" \
        2> "$tmp/$log.log" &
    server_pid=$!
    track "$server_pid"
    wait_healthz "$addr" || {
        echo "adapt-smoke: sdserver never came up" >&2
        cat "$tmp/$log.log" >&2
        exit 1
    }
}
stop_server() { stop "$server_pid"; }

run_load() { # run_load <outfile> -> mobility-aging through the live server
    "$tmp/sdload" -addr "http://$addr" -scenario mobility-aging -seed 1 \
        -conc 8 -min-ok 1 -patience 10s -no-slo -json > "$1" || {
        echo "adapt-smoke: sdload run failed" >&2
        cat "$1" >&2
        exit 1
    }
}

# ---- A. fixed baseline: static node budget, N rounds --------------------
fixed_exact="" fixed_p99=""
for i in $(seq 1 "$rounds"); do
    start_server "fixed$i" -node-budget "$node_budget"
    run_load "$tmp/warmup.json" # discarded: absorb cold-start costs
    run_load "$tmp/fixed$i.json"
    stop_server
    e=$(json_field "$tmp/fixed$i.json" exact_fraction)
    p=$(json_field "$tmp/fixed$i.json" p99_ns)
    echo "adapt-smoke: fixed round $i: exact $e, p99 ${p}ns"
    # best fixed round: highest exact fraction, lowest p99
    fixed_exact=$(awk -v a="${fixed_exact:-0}" -v b="$e" 'BEGIN { print (b > a) ? b : a }')
    fixed_p99=$(awk -v a="${fixed_p99:-1e18}" -v b="$p" 'BEGIN { print (b < a) ? b : a }')
done

# The baseline must actually be starved — otherwise the A/B says nothing.
awk -v e="$fixed_exact" 'BEGIN { exit !(e < 0.95) }' || {
    echo "adapt-smoke: fixed baseline not starved (exact $fixed_exact); raise traffic or lower ADAPT_FIXED_BUDGET" >&2
    exit 1
}

# ---- B. adaptive arm: same traffic, controller decides ------------------
adapt_exact="" adapt_p99=""
for i in $(seq 1 "$rounds"); do
    start_server "adapt$i" -adaptive
    run_load "$tmp/warmup.json" # discarded: absorb cold-start costs
    run_load "$tmp/adapt$i.json"
    [ "$i" -lt "$rounds" ] && stop_server
    e=$(json_field "$tmp/adapt$i.json" exact_fraction)
    p=$(json_field "$tmp/adapt$i.json" p99_ns)
    echo "adapt-smoke: adaptive round $i: exact $e, p99 ${p}ns"
    # worst adaptive round: lowest exact fraction; min p99 for the envelope
    adapt_exact=$(awk -v a="${adapt_exact:-1e18}" -v b="$e" 'BEGIN { print (b < a) ? b : a }')
    adapt_p99=$(awk -v a="${adapt_p99:-1e18}" -v b="$p" 'BEGIN { print (b < a) ? b : a }')
done
# the last adaptive server stays up for the live-reconfiguration check

# ---- gate 1: adaptive serves strictly more exact decodes ----------------
awk -v a="$adapt_exact" -v f="$fixed_exact" 'BEGIN { exit !(a > f) }' || {
    echo "adapt-smoke: FAIL: adaptive exact $adapt_exact not above fixed $fixed_exact" >&2
    exit 1
}
echo "adapt-smoke: exact fraction $adapt_exact (adaptive) > $fixed_exact (fixed)"

# ---- gate 2: p99 parity -------------------------------------------------
awk -v a="$adapt_p99" -v f="$fixed_p99" -v k="$p99_factor" -v s="$p99_slack" \
    'BEGIN { exit !(a <= k * f || a <= f + s) }' || {
    echo "adapt-smoke: FAIL: adaptive p99 ${adapt_p99}ns exceeds ${p99_factor}x fixed ${fixed_p99}ns (+${p99_slack}ns slack)" >&2
    exit 1
}
echo "adapt-smoke: p99 parity ${adapt_p99}ns (adaptive) vs ${fixed_p99}ns (fixed), gate ${p99_factor}x or +${p99_slack}ns"

# ---- gate 3: PUT /v1/policy reconfigures the live server ----------------
curl -fsS -X PUT -H 'Content-Type: application/json' \
    -d '{"policy":"linear"}' "http://$addr/v1/policy" > "$tmp/pin.json" || {
    echo "adapt-smoke: PUT /v1/policy (pin) failed" >&2
    exit 1
}
grep -q '"mode":"override"' "$tmp/pin.json" || {
    echo "adapt-smoke: pin not echoed as override:" >&2
    cat "$tmp/pin.json" >&2
    exit 1
}
curl -fsS "http://$addr/v1/config" | grep -q '"decode_policy":"linear"' || {
    echo "adapt-smoke: /v1/config does not echo the pinned policy" >&2
    exit 1
}
run_load "$tmp/pinned.json"
pinned_exact=$(json_field "$tmp/pinned.json" exact_fraction)
awk -v e="$pinned_exact" 'BEGIN { exit !(e == 0) }' || {
    echo "adapt-smoke: pinned-linear server still served exact decodes ($pinned_exact)" >&2
    exit 1
}
curl -fsS -X PUT -H 'Content-Type: application/json' \
    -d '{"policy":"adaptive"}' "http://$addr/v1/policy" > "$tmp/resume.json"
grep -q '"mode":"adaptive"' "$tmp/resume.json" || {
    echo "adapt-smoke: resume not echoed as adaptive:" >&2
    cat "$tmp/resume.json" >&2
    exit 1
}
run_load "$tmp/resumed.json"
resumed_exact=$(json_field "$tmp/resumed.json" exact_fraction)
awk -v e="$resumed_exact" -v f="$fixed_exact" 'BEGIN { exit !(e > f) }' || {
    echo "adapt-smoke: resumed controller exact $resumed_exact not above fixed $fixed_exact" >&2
    exit 1
}
stop_server
echo "adapt-smoke: live PUT /v1/policy pin (exact 0 under linear) and resume (exact $resumed_exact) verified"

echo "adapt-smoke: OK"
