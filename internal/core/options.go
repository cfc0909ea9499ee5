package core

import (
	"repro/internal/decoder"
	"repro/internal/trace"
)

// batchConfig is the resolved option set of one DecodeBatch call.
type batchConfig struct {
	budget BatchBudget
	// policy, when non-nil, retargets this batch: a Linear policy routes the
	// whole batch to the fallback detector, anything else selects (and
	// caches) a policy-derived sphere decoder. shedReason is the DegradedBy
	// tag the linear route stamps on its results — "overload" when the
	// caller came through WithFallback (a full-queue shed), "policy" when an
	// explicit linear policy asked for it.
	policy     *DecodePolicy
	shedReason string
	bt         *trace.BatchTrace
}

// BatchOption configures one DecodeBatch call. The zero option set is the
// plain exhaustive batch decode; options compose (a traced, budgeted batch
// is DecodeBatch(in, WithBudget(b), WithTrace(bt))).
type BatchOption func(*batchConfig)

// WithBudget bounds the whole batch (modeled-time deadline and/or shared
// node budget). Overrunning batches are cut, never late: every frame still
// gets a decision, flagged via Result.Quality. Composes with WithPolicy: the
// batch budget caps whatever per-frame budget the policy set.
func WithBudget(b BatchBudget) BatchOption {
	return func(c *batchConfig) { c.budget = b }
}

// WithPolicy decodes the batch under p instead of the accelerator's base
// configuration: strategy, norm, SNR-scaled radius, per-frame node budget
// and GEMM verification all come from the policy. A Linear policy skips
// the tree search entirely. Policy-derived decoders are cached per
// accelerator, so steady-state batches under a repeated policy build
// nothing.
func WithPolicy(p DecodePolicy) BatchOption {
	return func(c *batchConfig) {
		c.policy = &p
		c.shedReason = decoder.DegradedByPolicy
	}
}

// WithFallback decodes the batch entirely with the linear fallback detector
// (no tree search) — the path a scheduler sheds whole batches to under
// overload. It is WithPolicy(DecodePolicy{Linear: true}) with results tagged
// DegradedBy "overload", and overrides WithBudget (there is no search to
// budget).
func WithFallback() BatchOption {
	return func(c *batchConfig) {
		WithPolicy(DecodePolicy{Linear: true})(c)
		c.shedReason = decoder.DegradedByOverload
	}
}

// WithTrace records the batch into bt: per-frame SearchTraces (in input
// order) plus preprocess/search phase spans under bt's batch span. Each
// frame's recorder travels with its own decode call, so a traced batch runs
// on the same workers and yields the same decisions as an untraced one. A
// nil bt is ignored.
func WithTrace(bt *trace.BatchTrace) BatchOption {
	return func(c *batchConfig) { c.bt = bt }
}
