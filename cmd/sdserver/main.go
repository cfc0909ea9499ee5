// Command sdserver serves the sphere-decoder accelerator over HTTP: it
// accepts single-frame detection requests, coalesces them into batches (the
// shape the paper's GEMM refactoring is built for), decodes them on a worker
// pool under anytime budgets, and exposes live metrics.
//
// Endpoints:
//
//	POST /v1/decode  one frame (h/y/noise_var) or a batch (frames: [...]) in,
//	                 detections out (JSON, complex as [re,im])
//	GET  /v1/config  the server's MIMO and scheduler configuration
//	GET  /v1/policy  the live decode-policy state (mode, pinned policy,
//	                 adaptive ladder and per-class controller EWMAs)
//	PUT  /v1/policy  pin a decode policy at runtime ({"policy": "..."}) or
//	                 resume the controller ({"policy": "adaptive"})
//	GET  /v1/trace   JSON-lines search traces (?frames=N); subscribing arms tracing
//	GET  /metrics    scheduler counters, histograms, quality mix (JSON by
//	                 default, Prometheus text with ?format=prometheus)
//	GET  /healthz    graded health (ok|degraded → 200, draining|unhealthy → 503)
//	                 with per-backend breaker/quarantine state
//	/debug/pprof/*   Go profiling endpoints (only with -pprof)
//
// Usage:
//
//	sdserver -addr :8080 -tx 4 -rx 4 -mod qpsk -max-batch 16 -max-wait 1ms \
//	         -workers 2 -queue-cap 256 -policy reject
//
// SIGINT/SIGTERM drain gracefully: admission stops, queued frames decode,
// in-flight batches finish, then the process exits with a final stats line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fpga"
	"repro/internal/serve"
	"repro/internal/sphere"
)

// options collects the flag values; split out so tests can build configs
// without touching the flag package.
type options struct {
	tx, rx     int
	mod        string
	variant    string
	maxBatch   int
	maxWait    time.Duration
	workers    int
	queueCap   int
	policy     string
	deadline   time.Duration
	nodeBudget int64
	strategy   string
	pprof      bool

	// Decode-policy knobs: a fixed core.DecodePolicy for every batch, or the
	// adaptive complexity controller (mutually exclusive; both runtime-
	// overridable via PUT /v1/policy).
	decodePolicy     string
	adaptive         bool
	adaptNodeCeiling float64

	// Resilience knobs (zero values = library defaults).
	noResilience  bool
	failThreshold int
	cooldownBase  time.Duration
	cooldownCap   time.Duration
	maxRestarts   int
	retryMax      int
	retryBudget   float64
	hedgeAfter    time.Duration
	hedgeBudget   float64
	wedgeTimeout  time.Duration

	// Integrity knobs: ABFT verification of the GEMM hot path, the serving
	// layer's re-encode audit (on by default), and the per-worker quarantine
	// allowance for detected silent corruptions.
	verifyGEMM    bool
	noAudit       bool
	sdcQuarantine int

	// chaos is a faultinject.ParseServePlan spec wrapping every worker
	// backend with injected faults ("" = no chaos).
	chaos     string
	chaosSeed uint64
	// sdcChaos is a faultinject.ParseSDCPlan spec injecting *silent* data
	// corruptions (poisoned QR cache entries, GEMM bit flips, corrupted
	// metrics) that must be caught by the integrity defenses, not crash.
	sdcChaos string
}

// buildServer turns options into a running scheduler plus its HTTP handler.
// The returned SDC plan is non-nil when -sdc-chaos is armed, so the exit path
// can log ground-truth landed-injection counts for the smoke harness.
func buildServer(o options) (*serve.Scheduler, http.Handler, *faultinject.SDCPlan, error) {
	mod, err := constellation.ParseModulation(o.mod)
	if err != nil {
		return nil, nil, nil, err
	}
	var v fpga.Variant
	switch o.variant {
	case "baseline":
		v = fpga.Baseline
	case "optimized":
		v = fpga.Optimized
	default:
		return nil, nil, nil, fmt.Errorf("unknown variant %q (want baseline or optimized)", o.variant)
	}
	policy, err := serve.ParseOverloadPolicy(o.policy)
	if err != nil {
		return nil, nil, nil, err
	}
	// The rvd-se engine needs a square-QAM PAM decomposition; gate it the
	// same way sphere.New does.
	squareQAM := constellation.New(mod).PAMLevels() != nil
	strat, err := resolveStrategy(o.strategy, o.verifyGEMM, squareQAM)
	if err != nil {
		return nil, nil, nil, err
	}
	var fixedPolicy *core.DecodePolicy
	if o.decodePolicy != "" {
		// A policy that names no strategy runs the engine this server serves.
		p, err := core.ParsePolicyOn(strat, o.decodePolicy)
		if err != nil {
			return nil, nil, nil, err
		}
		fixedPolicy = &p
	}
	var controller *adapt.Controller
	if o.adaptive {
		if fixedPolicy != nil {
			return nil, nil, nil, fmt.Errorf("-adaptive and -decode-policy are mutually exclusive (pin at runtime via PUT /v1/policy instead)")
		}
		controller, err = adapt.NewController(adapt.Config{
			Levels:      adapt.DefaultLevels(strat, o.nodeBudget),
			NodeCeiling: o.adaptNodeCeiling,
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	cfg := serve.Config{
		MaxBatch:     o.maxBatch,
		MaxWait:      o.maxWait,
		Workers:      o.workers,
		QueueCap:     o.queueCap,
		Policy:       policy,
		DecodePolicy: fixedPolicy,
		Controller:   controller,
		Budget:       core.BatchBudget{Deadline: o.deadline, NodeBudget: o.nodeBudget},
		Resilience: serve.ResilienceConfig{
			Disable:            o.noResilience,
			FailureThreshold:   o.failThreshold,
			CooldownBase:       o.cooldownBase,
			CooldownCap:        o.cooldownCap,
			MaxRestarts:        o.maxRestarts,
			RetryMax:           o.retryMax,
			RetryBudget:        o.retryBudget,
			HedgeAfter:         o.hedgeAfter,
			HedgeBudget:        o.hedgeBudget,
			WedgeTimeout:       o.wedgeTimeout,
			DisableAudit:       o.noAudit,
			SDCQuarantineLimit: o.sdcQuarantine,
		},
	}
	var sdcPlan *faultinject.SDCPlan
	if o.sdcChaos != "" {
		spec := o.sdcChaos
		if o.chaosSeed != 0 {
			spec = fmt.Sprintf("%s,seed=%d", spec, o.chaosSeed)
		}
		sdcPlan, err = faultinject.ParseSDCPlan(spec)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	if o.chaos != "" || sdcPlan != nil {
		var servePlan *faultinject.ServePlan
		if o.chaos != "" {
			spec := o.chaos
			if o.chaosSeed != 0 {
				spec = fmt.Sprintf("%s,seed=%d", spec, o.chaosSeed)
			}
			servePlan, err = faultinject.ParseServePlan(spec)
			if err != nil {
				return nil, nil, nil, err
			}
		}
		cfg.WrapWorker = func(_ int, be serve.Backend) serve.Backend {
			// SDC wraps innermost so its fault hooks reach the accelerator
			// directly; crash/latency chaos layers on top.
			if sdcPlan != nil {
				be = serve.NewSDCBackend(be, sdcPlan)
			}
			if servePlan != nil {
				be = serve.NewFaultyBackend(be, servePlan)
			}
			return be
		}
	}
	// The scalar evaluation path decodes identically and faster in
	// simulation; -verify-gemm still forces GEMM, which it checks.
	factory := func() (serve.Backend, error) {
		return core.New(v, mod, o.tx, o.rx, core.Options{
			ScalarEval: true,
			Strategy:   strat,
			VerifyGEMM: o.verifyGEMM,
		})
	}
	s, err := serve.New(cfg, factory)
	if err != nil {
		return nil, nil, nil, err
	}
	handler := serve.NewHandler(s, o.tx, o.rx, mod.String())
	if o.pprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	return s, handler, sdcPlan, nil
}

// resolveStrategy picks the serving engine. An explicit -strategy wins
// (core refuses anything but rvd-se and sorted-dfs, and rvd-se under
// -verify-gemm); an empty one means the real-valued Schnorr–Euchner engine
// for square QAM (exact and comparator-free) and the complex sorted DFS
// otherwise. The GEMM verification of -verify-gemm only exists on sorted
// DFS, so it keeps an empty -strategy there.
func resolveStrategy(name string, verifyGEMM, squareQAM bool) (sphere.Strategy, error) {
	if name == "" {
		if squareQAM && !verifyGEMM {
			return sphere.RealSE, nil
		}
		return sphere.SortedDFS, nil
	}
	return sphere.ParseStrategy(name)
}

// registerFlags binds every sdserver flag to o on fs and returns the listen
// address flag; split out so tests can parse argument lists.
func registerFlags(fs *flag.FlagSet, o *options) *string {
	addr := fs.String("addr", ":8080", "listen address")
	fs.IntVar(&o.tx, "tx", 4, "transmit antennas (M)")
	fs.IntVar(&o.rx, "rx", 4, "receive antennas (N >= M)")
	fs.StringVar(&o.mod, "mod", "qpsk", "modulation: bpsk, 4qam/qpsk, 16qam, 64qam")
	fs.StringVar(&o.variant, "variant", "optimized", "FPGA design variant: baseline, optimized")
	fs.IntVar(&o.maxBatch, "max-batch", 16, "coalescing ceiling: dispatch when a batch reaches this size")
	fs.DurationVar(&o.maxWait, "max-wait", time.Millisecond, "coalescing deadline: dispatch when the oldest frame has waited this long")
	fs.IntVar(&o.workers, "workers", 2, "decode workers (one accelerator instance each)")
	fs.IntVar(&o.queueCap, "queue-cap", 256, "admission queue bound (frames)")
	fs.StringVar(&o.policy, "policy", "reject", "overload policy: reject, shed-to-linear, block")
	fs.DurationVar(&o.deadline, "batch-deadline", 0, "modeled-time budget per dispatched batch (0 = none)")
	fs.Int64Var(&o.nodeBudget, "node-budget", 0, "tree-expansion budget per dispatched batch (0 = none)")
	fs.StringVar(&o.strategy, "strategy", "", "decode engine: rvd-se or sorted-dfs (default: rvd-se for square QAM without -verify-gemm, else sorted-dfs)")
	fs.StringVar(&o.decodePolicy, "decode-policy", "", "fixed decode policy for every batch: strategy=, radius-scale=, max-nodes=, verify, or linear, e.g. radius-scale=2,max-nodes=4096; without strategy= it runs the served engine (empty = backend default)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "enable the adaptive complexity controller (per-class policy from SNR, node cost, and queue depth)")
	fs.Float64Var(&o.adaptNodeCeiling, "adapt-node-ceiling", 0, "node-cost EWMA that reads as pressure 1.0 to the controller (0 = default 1048576)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose Go profiling under /debug/pprof/")
	fs.BoolVar(&o.noResilience, "no-resilience", false, "disable worker supervision, breakers, and retries (seed behaviour)")
	fs.IntVar(&o.failThreshold, "breaker-threshold", 0, "consecutive failures tripping a worker's circuit breaker (0 = default 5)")
	fs.DurationVar(&o.cooldownBase, "breaker-cooldown", 0, "breaker open-dwell jitter base (0 = default 100ms)")
	fs.DurationVar(&o.cooldownCap, "breaker-cooldown-cap", 0, "breaker open-dwell cap (0 = default 5s)")
	fs.IntVar(&o.maxRestarts, "max-restarts", 0, "backend restarts per 30s window before quarantine (0 = default 3)")
	fs.IntVar(&o.retryMax, "retry-max", 0, "extra decode attempts per batch for transient faults (0 = default 2)")
	fs.Float64Var(&o.retryBudget, "retry-budget", 0, "retry tokens earned per successful batch (0 = default 0.2, negative disables)")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 0, "abandon a primary decode running this long and answer from the fallback (0 = off)")
	fs.Float64Var(&o.hedgeBudget, "hedge-budget", 0, "hedge tokens earned per successful batch (0 = default 0.1)")
	fs.DurationVar(&o.wedgeTimeout, "wedge-timeout", 0, "declare a primary decode wedged after this long (0 = off)")
	fs.BoolVar(&o.verifyGEMM, "verify-gemm", false, "ABFT-verify every GEMM product against Huang-Abraham checksums (implies the GEMM evaluation path)")
	fs.BoolVar(&o.noAudit, "no-audit", false, "disable the serving layer's re-encode result audit (on by default)")
	fs.IntVar(&o.sdcQuarantine, "sdc-quarantine", 0, "detected silent corruptions per worker per window before quarantine (0 = default 8)")
	fs.StringVar(&o.chaos, "chaos", "", "chaos plan for worker backends, e.g. panic=0.05,error=0.1,clear-after=500 (empty = off)")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 0, "seed override for the -chaos and -sdc-chaos roll streams")
	fs.StringVar(&o.sdcChaos, "sdc-chaos", "", "silent-corruption plan for worker backends, e.g. qr=0.05,gemm=0.1,metric=0.05,clear-after=400 (empty = off)")
	return addr
}

func main() {
	var o options
	addr := registerFlags(flag.CommandLine, &o)
	flag.Parse()

	sched, handler, sdcPlan, err := buildServer(o)
	if err != nil {
		log.Fatalf("sdserver: %v", err)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		<-sigs
		log.Printf("sdserver: draining (in-flight batches finish, queue empties)")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("sdserver: http shutdown: %v", err)
		}
		sched.Close()
	}()

	cfg := sched.Config()
	log.Printf("sdserver: %dx%d %s on %s — max-batch %d, max-wait %v, %d workers, queue %d, policy %s",
		o.tx, o.rx, o.mod, *addr, cfg.MaxBatch, cfg.MaxWait, cfg.Workers, cfg.QueueCap, cfg.Policy)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("sdserver: %v", err)
	}
	<-done

	st := sched.Stats()
	fields := map[string]any{
		"completed": st.Completed, "rejected": st.Rejected, "shed": st.Shed,
		"batches": st.Batches, "mean_batch_size": st.MeanBatchSize,
		"quality": st.QualityCounts, "health": st.Health,
		"panics": st.Panics, "worker_restarts": st.Restarts, "quarantines": st.Quarantines,
		"retries": st.Retries, "hedges": st.Hedges, "wedges": st.Wedges,
		"abandoned_frames": st.Abandoned, "breaker_opened": st.BreakerOpened,
		"breaker_reclosed": st.BreakerReclosed, "fallback_by_reason": st.FallbackByReason,
		"sdc_detected": st.SDCDetected, "sdc_recovered": st.SDCRecovered,
		"qr_cache_sdc_evictions": st.QRCacheSDCEvictions,
	}
	if sdcPlan != nil {
		// Ground truth for the smoke harness: how many injections actually
		// landed, by site, so it can check detected >= landed-reachable.
		fields["sdc_landed"] = map[string]int64{
			"qr-cache":     sdcPlan.LandedCount(faultinject.SDCQR),
			"gemm":         sdcPlan.LandedCount(faultinject.SDCGEMM),
			"metric-audit": sdcPlan.LandedCount(faultinject.SDCMetric),
		}
	}
	summary, _ := json.Marshal(fields)
	log.Printf("sdserver: final stats %s", summary)
}
