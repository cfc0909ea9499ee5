package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/faultinject"
	"repro/internal/fpga"
	"repro/internal/integrity"
)

// honestReport decodes inputs directly (no scheduler) and returns the report,
// giving the audit tests real metrics to corrupt.
func honestReport(t *testing.T, inputs []core.BatchInput) *core.BatchReport {
	t.Helper()
	acc, err := core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx, core.Options{ScalarEval: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := acc.DecodeBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// cloneReport deep-copies results so each table case corrupts its own copy.
func cloneReport(rep *core.BatchReport) *core.BatchReport {
	out := &core.BatchReport{Results: make([]*decoder.Result, len(rep.Results))}
	for i, res := range rep.Results {
		if res == nil {
			continue
		}
		c := *res
		c.SymbolIdx = append([]int(nil), res.SymbolIdx...)
		c.Symbols = append(cmatrix.Vector(nil), res.Symbols...)
		out.Results[i] = &c
	}
	return out
}

// TestCheckReportAudit is the table over the report checker's verdicts: honest
// reports pass every mode, shape/finiteness garbage is errGarbage, and
// metrics inconsistent with the re-encoded residual — negative, inflated, or
// plain wrong — are errIntegrityAudit. The "absurd but finite" rows pin the
// fix for the original checker, which accepted any finite metric.
func TestCheckReportAudit(t *testing.T) {
	inputs := genInputs(t, 2, 41)
	rep := honestReport(t, inputs)

	residual0 := integrity.ReEncode(inputs[0].H, inputs[0].Y, rep.Results[0].Symbols, nil).ResidualSq

	cases := []struct {
		name   string
		mutate func(r *core.BatchReport)
		audit  bool
		want   error // nil, errGarbage, or errIntegrityAudit
		// report overrides the default (a fresh clone of the honest report)
		// for the shape cases.
		report func() *core.BatchReport
	}{
		{name: "honest exact-l2", audit: true, want: nil},
		{name: "honest audit off", audit: false, want: nil},
		{
			name: "zero metric", audit: true, want: errIntegrityAudit,
			// Every served decode is ℓ², so the metric must equal the
			// residual: one that understates it is corruption too.
			mutate: func(r *core.BatchReport) { r.Results[0].Metric = 0 },
		},
		{
			name: "negative metric", audit: true, want: errIntegrityAudit,
			mutate: func(r *core.BatchReport) { r.Results[0].Metric = -r.Results[0].Metric - 1 },
		},
		{
			name: "sign-flipped metric", audit: true, want: errIntegrityAudit,
			mutate: func(r *core.BatchReport) {
				m := &r.Results[1].Metric
				*m = math.Float64frombits(math.Float64bits(*m) ^ (1 << 63))
			},
		},
		{
			name: "inflated finite metric", audit: true, want: errIntegrityAudit,
			mutate: func(r *core.BatchReport) { r.Results[0].Metric = residual0*1.5 + 1 },
		},
		{
			name: "corrupted metric with audit off", audit: false, want: nil,
			// The escape hatch really does disable the defense.
			mutate: func(r *core.BatchReport) { r.Results[0].Metric = residual0 + 1e6 },
		},
		{
			name: "corrupted symbol vector", audit: true, want: errIntegrityAudit,
			mutate: func(r *core.BatchReport) { r.Results[0].Symbols[0] *= 4 },
		},
		{
			name: "NaN symbols", audit: true, want: errGarbage,
			// NaN ŝ makes the residual NaN and every tolerance comparison
			// false — this must be caught as garbage, not pass the audit.
			mutate: func(r *core.BatchReport) { r.Results[0].Symbols[1] = complex(math.NaN(), 0) },
		},
		{
			name: "short symbol vector", audit: true, want: errGarbage,
			mutate: func(r *core.BatchReport) { r.Results[0].Symbols = r.Results[0].Symbols[:1] },
		},
		{
			name: "NaN metric", audit: false, want: errGarbage,
			mutate: func(r *core.BatchReport) { r.Results[0].Metric = math.NaN() },
		},
		{
			name: "empty decision", audit: false, want: errGarbage,
			mutate: func(r *core.BatchReport) { r.Results[1].SymbolIdx = nil },
		},
		{
			name: "nil report", audit: false, want: errGarbage,
			report: func() *core.BatchReport { return nil },
		},
		{
			name: "length mismatch", audit: false, want: errGarbage,
			report: func() *core.BatchReport { return &core.BatchReport{Results: rep.Results[:1]} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r *core.BatchReport
			if tc.report != nil {
				r = tc.report()
			} else {
				r = cloneReport(rep)
			}
			if tc.mutate != nil {
				tc.mutate(r)
			}
			err := checkReport(r, inputs, tc.audit)
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("checkReport = %v, want nil", err)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("checkReport = %v, want %v", err, tc.want)
			}
			if tc.want == errIntegrityAudit && !errors.Is(err, integrity.ErrIntegrity) {
				t.Fatalf("audit failure %v does not carry integrity.ErrIntegrity", err)
			}
		})
	}
}

// sdcFactory builds verified-GEMM accelerators: the soak needs the ABFT
// defense on so injected GEMM flips are repaired rather than propagated.
func sdcFactory(t *testing.T) func() (Backend, error) {
	t.Helper()
	return func() (Backend, error) {
		return core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx, core.Options{VerifyGEMM: true})
	}
}

// TestSDCSoak drives sustained traffic through a worker wrapped with a seeded
// silent-corruption plan targeting all three sites and checks the end-to-end
// contract: every frame served as exact carries a metric consistent with its
// re-encoded residual (zero corrupted frames shipped), each site's detection
// counters account for the injections that landed, and the Prometheus surface
// exposes them.
func TestSDCSoak(t *testing.T) {
	plan := faultinject.NewSDCPlan(faultinject.SDCPlanConfig{
		QRRate: 0.1, GEMMRate: 0.15, MetricRate: 0.15, Seed: 23,
	})
	s, err := New(Config{
		MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1,
		WrapWorker: func(_ int, be Backend) Backend { return NewSDCBackend(be, plan) },
		Resilience: ResilienceConfig{
			RetryBudget: 1, RetryMax: 2,
			// The soak injects far more corruption than real hardware ever
			// would; keep the worker in play so every site accumulates.
			SDCQuarantineLimit: 1 << 20,
		},
	}, sdcFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A small channel pool, cycled: repeats hit the QR cache, so poisoned
	// entries are reached and verify-on-hit gets to answer for them.
	pool := genInputs(t, 4, 17)
	const frames = 240
	scratch := make(cmatrix.Vector, testMIMO.Rx)
	for i := 0; i < frames; i++ {
		in := pool[i%len(pool)]
		resp, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		res := resp.Result
		if res.Metric < 0 || math.IsNaN(res.Metric) || math.IsInf(res.Metric, 0) {
			t.Fatalf("frame %d served corrupted metric %g (quality %v)", i, res.Metric, res.Quality)
		}
		if res.Quality == decoder.QualityExact {
			audit := integrity.ReEncode(in.H, in.Y, res.Symbols, scratch)
			if aerr := audit.CheckExactL2(res.Metric); aerr != nil {
				t.Fatalf("frame %d served as exact but corrupted: %v", i, aerr)
			}
		}
	}

	st := s.Stats()
	landedQR := plan.LandedCount(faultinject.SDCQR)
	landedGEMM := plan.LandedCount(faultinject.SDCGEMM)
	landedMetric := plan.LandedCount(faultinject.SDCMetric)
	t.Logf("landed: qr=%d gemm=%d metric=%d; detected: %v recovered=%d",
		landedQR, landedGEMM, landedMetric, st.SDCDetected, st.SDCRecovered)
	if landedQR == 0 || landedGEMM == 0 || landedMetric == 0 {
		t.Fatalf("soak landed nothing at some site: qr=%d gemm=%d metric=%d", landedQR, landedGEMM, landedMetric)
	}

	// Every armed-and-consumed GEMM flip is caught by the ABFT checksum in
	// the same decode, so detection matches landings exactly.
	if got := st.SDCDetected[integrity.SiteGEMM]; got != uint64(landedGEMM) {
		t.Fatalf("gemm detections %d != landed %d", got, landedGEMM)
	}
	// Every landed metric flip fails the re-encode audit of its attempt.
	if got := st.SDCDetected[integrity.SiteMetricAudit]; got < uint64(landedMetric) {
		t.Fatalf("metric-audit detections %d < landed %d", got, landedMetric)
	}
	// Poisoned cache entries are detected on their next hit. Back-to-back
	// corruptions of the same entry collapse into one eviction, so the
	// counter is bounded by landings but must account for most of them.
	if ev := st.QRCacheSDCEvictions; ev == 0 || ev > uint64(landedQR) {
		t.Fatalf("qr-cache evictions %d outside (0, landed=%d]", ev, landedQR)
	}
	if st.SDCDetected[integrity.SiteQRCache] != st.QRCacheSDCEvictions {
		t.Fatalf("qr-cache site %d != evictions %d", st.SDCDetected[integrity.SiteQRCache], st.QRCacheSDCEvictions)
	}
	if st.SDCRecovered == 0 || st.SDCRecovered < st.SDCDetected[integrity.SiteGEMM] {
		t.Fatalf("recovered %d does not cover detections %v", st.SDCRecovered, st.SDCDetected)
	}

	_, hr := s.Health()
	if hr.SDCDetected == 0 {
		t.Fatal("health report shows zero worker-attributed SDC detections")
	}

	var buf bytes.Buffer
	WritePrometheus(&buf, st)
	out := buf.String()
	for _, want := range []string{
		`mimosd_sdc_detected_total{site="gemm"}`,
		`mimosd_sdc_detected_total{site="metric-audit"}`,
		`mimosd_sdc_detected_total{site="qr-cache"}`,
		"mimosd_sdc_recovered_total",
		"mimosd_qr_cache_sdc_evictions_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %s", want)
		}
	}
}

// TestSDCQuarantineFlakyWorker pins the quarantine contract: a worker whose
// decodes keep failing the integrity audit exhausts its SDC allowance and is
// taken out of rotation, while every frame is still answered (honestly
// degraded, never corrupted).
func TestSDCQuarantineFlakyWorker(t *testing.T) {
	plan := faultinject.NewSDCPlan(faultinject.SDCPlanConfig{MetricRate: 1, Seed: 5})
	s, err := New(Config{
		MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1,
		WrapWorker: func(_ int, be Backend) Backend { return NewSDCBackend(be, plan) },
		Resilience: ResilienceConfig{
			RetryBudget: 1, RetryMax: 1,
			SDCQuarantineLimit: 3, SDCWindow: time.Minute,
		},
	}, sdcFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i, in := range genInputs(t, 8, 3) {
		resp, err := s.Submit(context.Background(), in)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		res := resp.Result
		if res.Quality == decoder.QualityExact {
			// With every metric flipped and retries capped, no primary result
			// should survive the audit; exact frames would mean corruption
			// slipped through.
			audit := integrity.ReEncode(in.H, in.Y, res.Symbols, nil)
			if aerr := audit.CheckExactL2(res.Metric); aerr != nil {
				t.Fatalf("frame %d served as exact but corrupted: %v", i, aerr)
			}
		}
		if res.DegradedBy != "" && res.DegradedBy != DegradedByIntegrity && res.DegradedBy != DegradedByQuarantine {
			t.Fatalf("frame %d degraded by %q, want integrity or quarantine", i, res.DegradedBy)
		}
	}

	_, hr := s.Health()
	if len(hr.Backends) != 1 || !hr.Backends[0].Quarantined {
		t.Fatalf("flaky worker not quarantined: %+v", hr.Backends)
	}
	if hr.Backends[0].SDCDetected < 3 {
		t.Fatalf("worker SDC count %d < quarantine limit 3", hr.Backends[0].SDCDetected)
	}
	st := s.Stats()
	if st.Quarantines == 0 {
		t.Fatal("Stats.Quarantines is zero after SDC quarantine")
	}
	if st.FallbackByReason[DegradedByIntegrity]+st.FallbackByReason[DegradedByQuarantine] == 0 {
		t.Fatalf("no frames shed for integrity/quarantine: %v", st.FallbackByReason)
	}
}
