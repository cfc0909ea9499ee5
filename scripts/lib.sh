# Shared plumbing for the scripts/*_smoke.sh gates. Source it right after
# `set -euo pipefail`:
#
#   . "$(dirname "$0")/lib.sh"
#
# Sourcing moves to the repo root, makes a scratch directory $tmp, and
# installs an EXIT trap that stops every tracked background process and
# removes $tmp, so a failing assertion never leaks a server.

cd "$(dirname "${BASH_SOURCE[0]}")/.."
tmp="$(mktemp -d)"
pids=()

cleanup() {
    local p
    for p in ${pids[@]+"${pids[@]}"}; do kill "$p" 2>/dev/null || true; done
    for p in ${pids[@]+"${pids[@]}"}; do wait "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

# track <pid>: stop this background process when the script exits.
track() { pids+=("$1"); }

# untrack <pid>: forget a process the script has reaped itself.
untrack() {
    local keep=() p
    for p in ${pids[@]+"${pids[@]}"}; do [ "$p" = "$1" ] || keep+=("$p"); done
    pids=(${keep[@]+"${keep[@]}"})
}

# stop <pid>: terminate a tracked process and reap it, whatever its status.
stop() {
    kill "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null || true
    untrack "$1"
}

# drain <pid>: graceful shutdown. SIGINT, then wait; under `set -e` a
# non-zero exit status from the process fails the script.
drain() {
    kill -INT "$1"
    wait "$1"
    untrack "$1"
}

# build <cmd>...: go build each ./cmd/<cmd> into $tmp/<cmd>.
build() {
    local c
    for c in "$@"; do go build -o "$tmp/$c" "./cmd/$c"; done
}

# wait_healthz <addr> [ok [tries]]: poll http://<addr>/healthz every 0.1 s,
# up to tries times (default 100). With "ok", the body must also report
# "status":"ok"; without it any 2xx answer counts. Returns 1 on timeout.
wait_healthz() {
    local url="http://$1/healthz" want="${2:-}" tries="${3:-100}" body
    for _ in $(seq 1 "$tries"); do
        if body="$(curl -fsS "$url" 2>/dev/null)"; then
            if [ -z "$want" ] || echo "$body" | grep -q "\"status\":\"$want\""; then
                return 0
            fi
        fi
        sleep 0.1
    done
    return 1
}

# json_field <file> <key>: the first numeric value of "key" in a JSON file
# (empty when absent).
json_field() {
    grep -o "\"$2\": *[0-9.e+-]*" "$1" | head -1 | sed 's/.*: *//'
}
