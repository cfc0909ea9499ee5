GO ?= go

.PHONY: check vet build test race race-serve race-cluster serve-smoke trace-smoke chaos-smoke cluster-smoke ofdm-smoke rvd-smoke adapt-smoke sdc-smoke fuzz fuzz-wire fuzz-ingest fuzz-preprocess fuzz-encode bench bench-check

# check is the gate: static analysis, build, a single-iteration pass over
# every benchmark (so the bench harness itself cannot rot), the serving
# scheduler under the race detector (its tests are the most
# concurrency-sensitive, so they run first and fail fast), the cluster
# proxy and breaker under the race detector, the full suite under the race
# detector, then the observability path, the single-node self-healing
# contract, the cluster failover contract, the OFDM workload tier's
# SLO and cache-delta gates, the real-valued SE hot-path gate
# (speedup, comparator-free, zero-alloc, servable), the adaptive
# complexity controller's A/B gate end to end, the silent-data-
# corruption defense under seeded fault injection, and short fuzzes of
# the wire parser against encoding/json, of the envelope ingest against
# encoding/json plus per-frame conversion, of the serving QR kernel
# against cmatrix.QR, and of the response appender against encoding/json.
check: vet build bench-check race-serve race-cluster race trace-smoke chaos-smoke cluster-smoke ofdm-smoke rvd-smoke adapt-smoke sdc-smoke fuzz-wire fuzz-ingest fuzz-preprocess fuzz-encode

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -cpu 1,2,4 ./...

race-serve:
	$(GO) vet ./...
	$(GO) test -race -cpu 1,2,4 ./internal/serve/...

# race-cluster runs the sharding/failover/hedging layer and the circuit
# breaker (whose half-open exclusivity the proxy leans on) under the race
# detector — the cluster race loop is the most contended code in the repo.
# Both race targets run at several GOMAXPROCS settings: the breaker's probe
# race only showed on more than one CPU.
race-cluster:
	$(GO) vet ./internal/cluster/... ./internal/resilience/...
	$(GO) test -race -cpu 1,2,4 ./internal/cluster/... ./internal/resilience/...

# serve-smoke boots sdserver, fires sdload at it for 2 s, and asserts a
# non-zero decoded count (end-to-end liveness of the serving stack).
serve-smoke:
	bash scripts/serve_smoke.sh

# trace-smoke boots sdserver, captures a self-stimulated trace via sdtrace,
# and asserts every streamed line passes schema validation (recorder → hub →
# /v1/trace → capture, end to end).
trace-smoke:
	bash scripts/trace_smoke.sh

# chaos-smoke boots sdserver with fault injection on every worker backend,
# drives load through the storm, and asserts the self-healing contract:
# no crash, no dropped requests, breaker opens, health returns to ok.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# cluster-smoke boots a ring of sdserver shards behind sdproxy and asserts
# the cluster contract: throughput scales with shard count, affinity
# routing beats scatter on QR-cache locality, a seeded kill/partition/
# stall storm drops nothing and health recovers, and join/leave work live.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# ofdm-smoke boots sdserver and runs the wideband scenario suite against
# it: static-dense must pass its SLOs and drive the QR cache >= 80% hits,
# incoherent-control must pass while staying < 30%, and mobility-aging
# must hold the degradation contract under CSI aging.
ofdm-smoke:
	bash scripts/ofdm_smoke.sh

# rvd-smoke gates the real-valued Schnorr–Euchner engine: >= 1.3x over the
# complex SortedDFS+GEMM hot path measured side-by-side, zero comparator
# work, zero allocs/op, and an sdserver booted with no engine flags
# advertising rvd-se under l2, decoding live traffic, and answering a
# norm=linf policy pin with 400.
rvd-smoke:
	bash scripts/rvd_smoke.sh

# adapt-smoke A/B-certifies the adaptive complexity controller: under the
# same mobility-aging traffic and seed, -adaptive must serve a strictly
# higher exact-decode fraction than a starved fixed -node-budget baseline
# at p99 latency parity, and PUT /v1/policy must reconfigure the live
# server (pin to linear, resume to adaptive) observably.
adapt-smoke:
	bash scripts/adapt_smoke.sh

# sdc-smoke boots sdserver with the integrity stack armed (-verify-gemm,
# verify-on-hit QR cache, re-encode audit) plus a seeded bit-flip plan
# (-sdc-chaos) and asserts the SDC defense contract: every landed GEMM
# and metric corruption detected, corrupted cache entries evicted, zero
# corrupted frames served as exact (static-dense SLOs hold through the
# storm), and health recovering once the plan clears.
sdc-smoke:
	bash scripts/sdc_smoke.sh

# bench regenerates BENCH_decode.json: the software hot-path figures
# (ns/decode, allocs/op, nodes/s, the QR-reuse batch speedup, and the
# integrity-stack overheads, with the ABFT GEMM-verify overhead on the
# single-frame hot path gated at 15%).
bench:
	$(GO) run ./cmd/sdbench -out BENCH_decode.json -gate-sdc-overhead 0.15

# bench-check smoke-runs every benchmark for one iteration — a compile-and-
# liveness gate for the bench harness, cheap enough to sit inside check.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzz-wire fuzzes the POST /v1/decode parser differentially against
# encoding/json for 20 s: its hand-written number conversion must stay
# bit-identical to encoding/json's, and its grammar must accept and reject
# the same bodies.
fuzz-wire:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=20s ./internal/serve/

# fuzz-ingest fuzzes the envelope ingest differentially for 10 s: the
# handler's parse (channel memo, slabs) and one-arena conversion must
# accept, reject and decode every body as encoding/json plus ToBatchInput
# frame by frame does, with no two frames sharing storage.
fuzz-ingest:
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeIngest -fuzztime=10s ./internal/serve/

# fuzz-preprocess fuzzes the serving QR kernel differentially against
# cmatrix.QR for 10 s: the same error class on every input (NaN/Inf, N < M,
# rank deficiency, overflowing norms), and on success the same R and ȳ.
fuzz-preprocess:
	$(GO) test -run='^$$' -fuzz=FuzzPreprocess -fuzztime=10s ./internal/sphere/

# fuzz-encode fuzzes the POST /v1/decode response appender differentially
# against encoding/json for 10 s: the single-frame and envelope bodies must
# be byte-identical to json.Encoder on the exported response types, and
# must fail exactly where it fails (a non-finite metric).
fuzz-encode:
	$(GO) test -run='^$$' -fuzz=FuzzEncodeResponse -fuzztime=10s ./internal/serve/

# fuzz runs the native fuzzers for a short budget each (they also run as
# plain regression tests under `make test` via their seed corpora).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzQR -fuzztime=30s ./internal/cmatrix/
	$(GO) test -run='^$$' -fuzz=FuzzPreprocess -fuzztime=30s ./internal/sphere/
	$(GO) test -run='^$$' -fuzz=FuzzSlice -fuzztime=30s ./internal/constellation/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeIngest -fuzztime=30s ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzEncodeResponse -fuzztime=30s ./internal/serve/
