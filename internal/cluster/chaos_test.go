package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/faultinject"
	"repro/internal/fpga"
	"repro/internal/mimo"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sphere"
)

// newRealShard spins up a genuine sdserver stack — scheduler, workers, HTTP
// handler — behind an httptest listener, so the chaos soak exercises the
// same code path production shards run.
func newRealShard(t *testing.T) *httptest.Server {
	t.Helper()
	return newRealShardOn(t, sphere.SortedDFS)
}

// newRealShardOn is newRealShard serving the given search engine.
func newRealShardOn(t *testing.T, engine sphere.Strategy) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{MaxBatch: 4, Workers: 1}, func() (serve.Backend, error) {
		return core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx, core.Options{ScalarEval: true, Strategy: engine})
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(serve.NewHandler(s, testMIMO.Tx, testMIMO.Rx, "qpsk"))
	t.Cleanup(srv.Close)
	return srv
}

// TestClusterChaosSoak is the acceptance scenario: a 3-shard ring under a
// seeded kill/partition/stall timeline. Every frame must be answered (zero
// drops), the served detections must be no worse than the plain
// zero-forcing floor, failover and the local fallback must both have fired,
// and once the plan clears health must return to ok.
func TestClusterChaosSoak(t *testing.T) {
	shards := []*httptest.Server{newRealShard(t), newRealShard(t), newRealShard(t)}
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.URL
	}
	// Shard 0 dies at 30ms, shard 1 is partitioned away at 100ms, and shard 2
	// dies at 120ms — so in [30ms, 120ms) single-shard faults exercise
	// failover, and in [120ms, 440ms) the whole ring is dark and every frame
	// must ride the local fallback, whatever the ring's vnode layout. Both
	// windows are wide enough that even a heavily loaded single-core box
	// (race detector, parallel packages) cannot schedule past them without
	// a frame landing inside. Shard 2 limps under a 1ms stall when up.
	plan, err := faultinject.ParseClusterPlan(
		"kill=0@30ms+410ms,partition=1@100ms+340ms,kill=2@120ms+320ms,stall=2@0ms+440ms,stall-for=1ms,seed=5")
	if err != nil {
		t.Fatalf("ParseClusterPlan: %v", err)
	}
	p, err := New(Config{
		Shards:           urls,
		Replicas:         2,
		AttemptTimeout:   60 * time.Millisecond,
		ProbeInterval:    10 * time.Millisecond,
		ProbeTimeout:     15 * time.Millisecond,
		DarkAfter:        2,
		FailureThreshold: 2,
		CooldownBase:     10 * time.Millisecond,
		CooldownCap:      30 * time.Millisecond,
		Seed:             5,
		Fallback:         testFallback,
		Chaos:            plan,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()

	r := rng.New(2026)
	cons := constellation.New(testMIMO.Mod)
	zf := decoder.NewZF(cons)
	var servedErrs, zfErrs, bits, frames int
	start := time.Now()
	// Storm phase: pour frames through the whole fault timeline. Every
	// single one must come back answered.
	for time.Since(start) < plan.Horizon()+20*time.Millisecond || frames < 60 {
		f, err := mimo.GenerateFrame(r, testMIMO, 14)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := p.Decode(ctx, toWire(f))
		cancel()
		if err != nil {
			t.Fatalf("frame %d dropped under chaos: %v", frames, err)
		}
		if len(resp.SymbolIndices) != testMIMO.Tx {
			t.Fatalf("frame %d: %d decisions for %d antennas", frames, len(resp.SymbolIndices), testMIMO.Tx)
		}
		servedErrs += mimo.CountBitErrors(cons, f.SymbolIdx, resp.SymbolIndices)
		zfRes, err := zf.Decode(f.H, f.Y, f.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		zfErrs += mimo.CountBitErrors(cons, f.SymbolIdx, zfRes.SymbolIdx)
		bits += len(f.Bits)
		frames++
	}

	st := p.Stats()
	if st.OK != uint64(frames) {
		t.Fatalf("served %d of %d frames: %+v", st.OK, frames, st)
	}
	if st.Failovers == 0 {
		t.Fatalf("the storm never forced a failover: %+v", st)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("the kill+partition overlap never reached the local fallback: %+v", st)
	}
	if st.DarkSkips == 0 && st.BreakerSkips == 0 {
		t.Fatalf("routing never skipped a broken shard: %+v", st)
	}
	if servedErrs > zfErrs {
		t.Fatalf("served BER %d/%d worse than ZF floor %d/%d under chaos", servedErrs, bits, zfErrs, bits)
	}

	// Recovery phase: faults cleared; clean traffic re-closes breakers and
	// probes restore liveness. Health must converge back to ok.
	deadline := time.Now().Add(3 * time.Second)
	for {
		f, err := mimo.GenerateFrame(r, testMIMO, 14)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Decode(context.Background(), toWire(f)); err != nil {
			t.Fatalf("frame dropped during recovery: %v", err)
		}
		if state, _ := p.Health(); state == StateOK {
			break
		}
		if time.Now().After(deadline) {
			state, rep := p.Health()
			t.Fatalf("health stuck at %s after recovery: %+v", state, rep)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
