package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cmatrix"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
)

// directDecisions decodes ins one at a time on a fresh accelerator: the
// reference every served envelope frame must match.
func directDecisions(t *testing.T, ins []core.BatchInput) []string {
	t.Helper()
	direct, err := core.New(fpga.Optimized, testMIMO.Mod, testMIMO.Tx, testMIMO.Rx, core.Options{ScalarEval: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ins))
	for i, in := range ins {
		if direct.ValidateInput(in) != nil {
			continue
		}
		res, err := direct.Decode(in.H, in.Y, in.NoiseVar)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprint(res.SymbolIdx)
	}
	return out
}

// postEnvelope sends ins as one batch envelope and decodes the 200 answer.
// The body must arrive in one piece with its Content-Length, not chunked.
func postEnvelope(t *testing.T, url string, ins []core.BatchInput) BatchDecodeResponse {
	t.Helper()
	var env DecodeRequest
	for _, in := range ins {
		env.Frames = append(env.Frames, wireFrame(in.H, in.Y, in.NoiseVar))
	}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(raw)) {
		t.Fatalf("transfer encoding %v, content length %d for a %d-byte body",
			resp.TransferEncoding, resp.ContentLength, len(raw))
	}
	var out BatchDecodeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(ins) {
		t.Fatalf("%d results for %d frames", len(out.Results), len(ins))
	}
	return out
}

// TestHTTPEnvelopeOverflowingFrame: a frame whose finite entries overflow
// the search metric is refused on its own at admission; the frames around
// it decode exactly instead of failing with it in one coalesced batch.
// Frame 1 overflows ‖y‖² itself; frame 3 (H = 6e153·I, y = 1.3e154·e₁) has
// finite ‖H‖²_F and ‖y‖² but puts every leaf's ‖ȳ − Rs‖² past MaxFloat64.
func TestHTTPEnvelopeOverflowingFrame(t *testing.T) {
	s, srv := newTestServer(t, Config{MaxBatch: 4, MaxWait: 5 * time.Millisecond})
	ins := genInputs(t, 4, 151)
	ins[1].Y = make(cmatrix.Vector, len(ins[1].Y))
	for i := range ins[1].Y {
		ins[1].Y[i] = 1e200
	}
	ins[3].H = cmatrix.NewMatrix(testMIMO.Rx, testMIMO.Tx)
	for i := range testMIMO.Tx {
		ins[3].H.Set(i, i, 6e153)
	}
	ins[3].Y = make(cmatrix.Vector, testMIMO.Rx)
	ins[3].Y[0] = 1.3e154
	want := directDecisions(t, ins)
	out := postEnvelope(t, srv.URL, ins)
	for _, i := range []int{0, 2} {
		r := out.Results[i]
		if r.Error != "" || r.DecodeResponse == nil {
			t.Fatalf("frame %d: error %q", i, r.Error)
		}
		if got := fmt.Sprint(r.SymbolIndices); got != want[i] || r.Quality != "exact" {
			t.Fatalf("frame %d: %s (%s), want %s exact", i, got, r.Quality, want[i])
		}
	}
	for _, i := range []int{1, 3} {
		if r := out.Results[i]; r.DecodeResponse != nil || !strings.Contains(r.Error, core.ErrInvalidInput.Error()) {
			t.Fatalf("overflowing frame %d: %+v, want an invalid-input error", i, r)
		}
	}
	if st := s.Stats(); st.Completed != 2 || st.Failed != 0 || st.Invalid != 2 {
		t.Fatalf("stats completed=%d failed=%d invalid=%d, want 2/0/2", st.Completed, st.Failed, st.Invalid)
	}
}

// gatedBackend lets its first DecodeBatch through and holds every later one
// until release closes.
type gatedBackend struct {
	Backend
	calls   *atomic.Int32
	release chan struct{}
}

func (b *gatedBackend) DecodeBatch(inputs []core.BatchInput, opts ...core.BatchOption) (*core.BatchReport, error) {
	if b.calls.Add(1) > 1 {
		<-b.release
	}
	return b.Backend.DecodeBatch(inputs, opts...)
}

// TestEnvelopeContextExpiry: when ctx expires mid-envelope, the frames
// already decoded are delivered, the rest answer ctx.Err(), and those are
// decoded anyway and counted as abandoned exactly once.
func TestEnvelopeContextExpiry(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	s := newScheduler(t, Config{
		MaxBatch: 2, MaxWait: time.Second, Workers: 1,
		WrapWorker: func(_ int, be Backend) Backend {
			return &gatedBackend{Backend: be, calls: &calls, release: release}
		},
	})
	t.Cleanup(open) // runs before s.Close, which waits for the held batch

	ins := genInputs(t, 4, 157)
	want := directDecisions(t, ins)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make([]result, len(ins))
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.submitFrames(ctx, ins, make([]string, len(ins)), out)
	}()
	// Frames 0 and 1 form the first batch and decode; 2 and 3 are held.
	waitStats(t, s, "first batch", func(st Stats) bool { return st.Completed == 2 })
	cancel()
	<-done
	for i := 0; i < 2; i++ {
		if out[i].err != nil || fmt.Sprint(out[i].out.Result.SymbolIdx) != want[i] {
			t.Fatalf("decoded frame %d: %+v, want %s", i, out[i], want[i])
		}
	}
	for i := 2; i < 4; i++ {
		if out[i].out != nil || !errors.Is(out[i].err, context.Canceled) {
			t.Fatalf("held frame %d: %+v, want context.Canceled", i, out[i])
		}
	}
	open()
	waitStats(t, s, "abandoned frames decoded", func(st Stats) bool {
		return st.Completed == 4 && st.Abandoned == 2
	})
	time.Sleep(10 * time.Millisecond)
	if st := s.Stats(); st.Abandoned != 2 || st.Submitted != 4 {
		t.Fatalf("abandoned %d submitted %d, want 2 and 4", st.Abandoned, st.Submitted)
	}
}

// newOverloadServer serves a scheduler whose one worker holds every batch
// for delay behind a queue of one or two frames.
func newOverloadServer(t *testing.T, policy OverloadPolicy, queueCap int, delay time.Duration) (*Scheduler, *httptest.Server) {
	t.Helper()
	s, err := New(Config{MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1, QueueCap: queueCap, Policy: policy},
		newSlowFactory(t, delay))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewHandler(s, testMIMO.Tx, testMIMO.Rx, "4-QAM"))
	t.Cleanup(srv.Close)
	return s, srv
}

// TestEnvelopeOverloadReject: frames of an envelope that find the queue
// full under reject fail one by one with the overload error; the admitted
// frames decode exactly.
func TestEnvelopeOverloadReject(t *testing.T) {
	s, srv := newOverloadServer(t, Reject, 2, 20*time.Millisecond)
	ins := genInputs(t, 8, 163)
	want := directDecisions(t, ins)
	out := postEnvelope(t, srv.URL, ins)
	var rejected, decoded uint64
	for i, r := range out.Results {
		switch {
		case r.Error == ErrOverloaded.Error():
			rejected++
		case r.Error == "" && fmt.Sprint(r.SymbolIndices) == want[i] && r.Quality == "exact":
			decoded++
		default:
			t.Fatalf("frame %d: %+v", i, r)
		}
	}
	if rejected == 0 || decoded < 2 {
		t.Fatalf("rejected %d, decoded %d of 8 behind a queue of 2", rejected, decoded)
	}
	if st := s.Stats(); st.Rejected != rejected || st.Completed != decoded || st.Submitted != decoded {
		t.Fatalf("stats rejected=%d completed=%d submitted=%d, observed %d/%d",
			st.Rejected, st.Completed, st.Submitted, rejected, decoded)
	}
}

// TestEnvelopeOverloadShedToLinear: frames the full queue turns away under
// shed-to-linear are served inline at fallback quality, the rest exactly;
// no frame fails.
func TestEnvelopeOverloadShedToLinear(t *testing.T) {
	s, srv := newOverloadServer(t, ShedToLinear, 2, 20*time.Millisecond)
	ins := genInputs(t, 8, 167)
	want := directDecisions(t, ins)
	out := postEnvelope(t, srv.URL, ins)
	var shed, decoded uint64
	for i, r := range out.Results {
		switch {
		case r.Error != "":
			t.Fatalf("frame %d: %s (shed-to-linear never fails on overload)", i, r.Error)
		case r.Shed:
			if r.Quality != decoder.QualityFallback.String() || r.DegradedBy != decoder.DegradedByOverload || r.BatchSize != 1 {
				t.Fatalf("shed frame %d: %+v", i, r.DecodeResponse)
			}
			shed++
		case fmt.Sprint(r.SymbolIndices) == want[i] && r.Quality == "exact":
			decoded++
		default:
			t.Fatalf("frame %d: %+v, want %s", i, r.DecodeResponse, want[i])
		}
	}
	if shed == 0 || decoded < 2 {
		t.Fatalf("shed %d, decoded %d of 8 behind a queue of 2", shed, decoded)
	}
	if st := s.Stats(); st.Shed != shed || st.Completed != decoded {
		t.Fatalf("stats shed=%d completed=%d, observed %d/%d", st.Shed, st.Completed, shed, decoded)
	}
}

// TestEnvelopeOverloadBlock: under block an envelope larger than the queue
// waits for room frame by frame and every frame decodes exactly.
func TestEnvelopeOverloadBlock(t *testing.T) {
	s, srv := newOverloadServer(t, Block, 1, 5*time.Millisecond)
	ins := genInputs(t, 6, 173)
	want := directDecisions(t, ins)
	out := postEnvelope(t, srv.URL, ins)
	for i, r := range out.Results {
		if r.Error != "" || fmt.Sprint(r.SymbolIndices) != want[i] || r.Quality != "exact" {
			t.Fatalf("frame %d: %+v, want %s exact", i, r, want[i])
		}
	}
	if st := s.Stats(); st.Completed != 6 || st.Rejected != 0 || st.Shed != 0 {
		t.Fatalf("stats %+v", st)
	}
}
