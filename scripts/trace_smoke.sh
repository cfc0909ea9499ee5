#!/usr/bin/env bash
# trace-smoke: boot sdserver, capture a short self-stimulated trace with
# sdtrace, and assert the stream is schema-valid end to end. sdtrace itself
# re-validates every line (counter-consistency included) and exits 1 on any
# violation, so a zero exit here certifies the whole observability path:
# recorder → hub → /v1/trace → capture → summary.
set -euo pipefail

. "$(dirname "$0")/lib.sh"
addr="127.0.0.1:${SDSERVER_PORT:-18101}"

build sdserver sdtrace

"$tmp/sdserver" -addr "$addr" -max-batch 8 -max-wait 1ms -workers 2 &
pid=$!
track "$pid"

# Wait for the server to accept config requests.
for _ in $(seq 1 100); do
    if "$tmp/sdtrace" capture -url "http://$addr" -frames 1 -stim -timeout 5s \
        -jsonl > /dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.1
done
[ "${up:-}" = 1 ] || { echo "trace-smoke: server never came up" >&2; exit 1; }

# Capture a real trace: raw lines for the schema check, then the summary
# renderer over the same lines.
"$tmp/sdtrace" capture -url "http://$addr" -frames 6 -stim -timeout 20s \
    -jsonl > "$tmp/trace.jsonl"

lines=$(wc -l < "$tmp/trace.jsonl")
[ "$lines" -eq 6 ] || {
    echo "trace-smoke: captured $lines lines, want 6" >&2
    exit 1
}
grep -q '"schema":"mimosd.trace.v1"' "$tmp/trace.jsonl" || {
    echo "trace-smoke: lines missing schema tag" >&2
    exit 1
}
grep -q '"source":"serve"' "$tmp/trace.jsonl" || {
    echo "trace-smoke: lines not tagged as serve traces" >&2
    exit 1
}

"$tmp/sdtrace" summary -in "$tmp/trace.jsonl" | tee "$tmp/summary.out"
grep -q 'counter self-check OK' "$tmp/summary.out" || {
    echo "trace-smoke: summary missing counter self-check" >&2
    exit 1
}

# Graceful drain.
drain "$pid"
echo "trace-smoke: OK"
