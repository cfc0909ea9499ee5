package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/rng"
)

// mirrorResponse builds the exported DecodeResponse for resp the way the
// reflection path did: the parity reference for the appender.
func mirrorResponse(cons *constellation.Constellation, resp *Response) *DecodeResponse {
	buf := make([]int, cons.BitsPerSymbol())
	bits := make([]int, 0, len(resp.Result.SymbolIdx)*cons.BitsPerSymbol())
	for _, idx := range resp.Result.SymbolIdx {
		bits = append(bits, cons.BitsOf(idx, buf)...)
	}
	return &DecodeResponse{
		APIVersion:    APIVersion,
		SymbolIndices: resp.Result.SymbolIdx,
		Bits:          bits,
		Metric:        resp.Result.Metric,
		NodesExplored: resp.Result.Counters.NodesExpanded,
		Quality:       resp.Result.Quality.String(),
		DegradedBy:    resp.Result.DegradedBy,
		BatchSize:     resp.BatchSize,
		QueueWaitNS:   int64(resp.QueueWait),
		ServiceNS:     int64(resp.Service),
		SimulatedNS:   int64(resp.SimulatedTime),
		Shed:          resp.Shed,
	}
}

// mirrorBatch is mirrorResponse for an envelope's outcomes.
func mirrorBatch(cons *constellation.Constellation, out []result) BatchDecodeResponse {
	results := make([]BatchDecodeResult, len(out))
	for i, r := range out {
		if r.err != nil {
			results[i] = BatchDecodeResult{Error: r.err.Error()}
		} else {
			results[i] = BatchDecodeResult{DecodeResponse: mirrorResponse(cons, r.out)}
		}
	}
	return BatchDecodeResponse{APIVersion: APIVersion, Results: results}
}

// encodeJSON is what the reflection path sent: json.NewEncoder(w).Encode(v).
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkEncodeParity holds both appender forms to encoding/json on resp: the
// same bytes, or both failing.
func checkEncodeParity(t *testing.T, cons *constellation.Constellation, resp *Response, frameErr error) {
	t.Helper()
	e := getEncoder(cons)
	defer putEncoder(e)
	want, wantErr := encodeJSON(mirrorResponse(cons, resp))
	err := e.appendDecodeResponse(resp)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("single: appender error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(e.buf, want) {
		t.Fatalf("single:\n got %s\nwant %s", e.buf, want)
	}

	out := []result{{out: resp}, {err: frameErr}, {out: resp}}
	e.buf = e.buf[:0]
	want, wantErr = encodeJSON(mirrorBatch(cons, out))
	err = e.appendBatchDecodeResponse(out)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("envelope: appender error %v, encoding/json error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(e.buf, want) {
		t.Fatalf("envelope:\n got %s\nwant %s", e.buf, want)
	}
}

var encodeMods = []constellation.Modulation{
	constellation.BPSK, constellation.QAM4, constellation.QAM16, constellation.QAM64,
}

// fuzzResponse assembles a Response from fuzzer-chosen fields.
func fuzzResponse(syms []byte, nilSyms bool, metric float64, nodes int64, quality int8,
	degradedBy string, batchSize int, queueWait, service, simulated int64, shed bool) *Response {
	res := &decoder.Result{
		Metric:     metric,
		Quality:    decoder.Quality(quality),
		DegradedBy: degradedBy,
	}
	res.Counters.NodesExpanded = nodes
	if !nilSyms {
		res.SymbolIdx = make([]int, len(syms))
		for i, s := range syms {
			res.SymbolIdx[i] = int(s)
		}
	}
	return &Response{
		Result:        res,
		BatchSize:     batchSize,
		QueueWait:     time.Duration(queueWait),
		Service:       time.Duration(service),
		SimulatedTime: time.Duration(simulated),
		Shed:          shed,
	}
}

func FuzzEncodeResponse(f *testing.F) {
	type seed struct {
		mod        uint8
		syms       []byte
		nilSyms    bool
		metric     float64
		nodes      int64
		quality    int8
		degradedBy string
		batchSize  int
		qw, sv, sm int64
		shed       bool
		errMsg     string
	}
	plain := seed{mod: 2, syms: []byte{3, 0, 15, 9}, metric: 1.25, nodes: 48, batchSize: 16,
		qw: 1200, sv: 35000, sm: 9000, errMsg: "serve: overloaded, request rejected"}
	seeds := []seed{plain}
	add := func(edit func(*seed)) {
		s := plain
		edit(&s)
		seeds = append(seeds, s)
	}
	// omitempty members present.
	add(func(s *seed) { s.degradedBy, s.shed, s.quality = decoder.DegradedByOverload, true, 2 })
	// null symbol_indices with [] bits; empty symbol_indices.
	add(func(s *seed) { s.nilSyms = true })
	add(func(s *seed) { s.syms = []byte{} })
	// HTML-escaped, control, separator and invalid-UTF-8 strings.
	add(func(s *seed) {
		s.degradedBy = "<a href=\"x\">&\u2028\u2029\\\b\f\n\r\t\x00\x1f\x7f\xff\xc3"
		s.errMsg = "frame <1> & \"two\"\u2029\xfe"
	})
	// An empty error string is an empty object.
	add(func(s *seed) { s.errMsg = "" })
	// Unknown quality grades and negative durations.
	add(func(s *seed) { s.quality, s.qw = -7, -1 })
	// The float format: 'e' below 1e-6 and at or above 1e21, the e-0N
	// clean-up, negative zero, subnormals, the largest float and the
	// non-finite values encoding/json refuses.
	for _, m := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1.5e-9, -3e-8,
		1e-300, 5e-324, 1e20, 9.999999999999999e20, 1e21, -1e21, 1.7976931348623157e308,
		123456.789, 0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		add(func(s *seed) { s.metric = m })
	}
	for i, s := range seeds {
		f.Add(s.mod+uint8(i), s.syms, s.nilSyms, s.metric, s.nodes, s.quality, s.degradedBy,
			s.batchSize, s.qw, s.sv, s.sm, s.shed, s.errMsg)
	}
	f.Fuzz(func(t *testing.T, mod uint8, syms []byte, nilSyms bool, metric float64, nodes int64,
		quality int8, degradedBy string, batchSize int, qw, sv, sm int64, shed bool, errMsg string) {
		cons := constellation.New(encodeMods[int(mod)%len(encodeMods)])
		resp := fuzzResponse(syms, nilSyms, metric, nodes, quality, degradedBy, batchSize, qw, sv, sm, shed)
		checkEncodeParity(t, cons, resp, errors.New(errMsg))
	})
}

// TestEncodeResponseMatchesEncodingJSON runs the parity check over seeded
// random result sets shaped like what the server produces.
func TestEncodeResponseMatchesEncodingJSON(t *testing.T) {
	r := rng.New(5)
	grades := []string{"", decoder.DegradedByBudget, decoder.DegradedByOverload, DegradedByHedge}
	for i := 0; i < 2000; i++ {
		mod := encodeMods[r.Intn(len(encodeMods))]
		cons := constellation.New(mod)
		syms := make([]byte, r.Intn(12))
		for k := range syms {
			syms[k] = byte(r.Intn(cons.Size()))
		}
		// Metrics across many decades, so both float formats occur.
		metric := r.Float64() * math.Pow(10, float64(r.Intn(40)-15))
		resp := fuzzResponse(syms, r.Intn(20) == 0, metric, int64(r.Intn(1<<20)), int8(r.Intn(3)),
			grades[r.Intn(len(grades))], 1+r.Intn(256), int64(r.Intn(1e7)), int64(r.Intn(1e7)),
			int64(r.Intn(1e7)), r.Intn(8) == 0)
		checkEncodeParity(t, cons, resp, ErrOverloaded)
	}
}

// TestEncodeFailureIsTyped500: a value encoding/json cannot encode is
// answered with a typed 500, not its status and an empty body — for the
// decode appender and for every writeJSON endpoint.
func TestEncodeFailureIsTyped500(t *testing.T) {
	check := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", name, rec.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body.Bytes(), err)
		}
		if eb.Code != CodeInternal || eb.Error == "" {
			t.Fatalf("%s: error body %+v", name, eb)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	check("writeJSON", rec)

	h := &handler{s: newScheduler(t, Config{})}
	bad := &Response{Result: &decoder.Result{SymbolIdx: []int{0, 1, 2, 3}, Metric: math.NaN()}}
	rec = httptest.NewRecorder()
	h.writeDecode(rec, bad)
	check("single frame", rec)
	rec = httptest.NewRecorder()
	h.writeBatchDecode(rec, []result{{err: ErrOverloaded}, {out: bad}})
	check("envelope", rec)
}

// BenchmarkEncodeResponse prices encoding the answer to the two benchmark
// envelopes from decoded results: the appender against the reflection path
// it replaced (DecodeResponse per frame, then json.Encoder).
func BenchmarkEncodeResponse(b *testing.B) {
	for _, c := range []struct {
		name string
		body []byte
		mod  constellation.Modulation
		n    int
	}{
		{"grid-dense-4x4-qpsk-256", gridDenseEnvelope(b, 1, 256), constellation.QAM4, 4},
		{"mimo-search-10x10-16qam-16", rayleighEnvelope(b, 16, 1), constellation.QAM16, 10},
	} {
		out := decodedEnvelope(b, c.body, c.mod, c.n)
		cons := constellation.New(c.mod)
		run := func(b *testing.B, encode func(*bytes.Buffer)) {
			var buf bytes.Buffer
			var before, after runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				buf.Reset()
				encode(&buf)
			}
			runtime.ReadMemStats(&after)
			b.StopTimer()
			b.SetBytes(int64(buf.Len()))
			n := float64(b.N * len(out))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/frame")
		}
		b.Run(c.name+"/append", func(b *testing.B) {
			run(b, func(buf *bytes.Buffer) {
				e := getEncoder(cons)
				if err := e.appendBatchDecodeResponse(out); err != nil {
					b.Fatal(err)
				}
				buf.Write(e.buf)
				putEncoder(e)
			})
		})
		b.Run(c.name+"/json.Encoder", func(b *testing.B) {
			run(b, func(buf *bytes.Buffer) {
				if err := json.NewEncoder(buf).Encode(mirrorBatch(cons, out)); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// decodedEnvelope decodes an envelope body on a fresh accelerator and
// shapes the outcomes as the scheduler hands them to the encoder: frames
// coalesced 16 to a dispatch, as sdserver's default MaxBatch does, share
// their batch's size, service and simulated times.
func decodedEnvelope(tb testing.TB, body []byte, mod constellation.Modulation, n int) []result {
	tb.Helper()
	req, err := ReadDecodeRequest(bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	ins := make([]core.BatchInput, len(req.Frames))
	for i := range req.Frames {
		if ins[i], err = req.Frames[i].ToBatchInput(); err != nil {
			tb.Fatal(err)
		}
	}
	acc, err := core.New(fpga.Optimized, mod, n, n, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := acc.DecodeBatch(ins)
	if err != nil {
		tb.Fatal(err)
	}
	const maxBatch = 16
	out := make([]result, len(ins))
	for i, res := range rep.Results {
		out[i] = result{out: &Response{
			Result:        res,
			BatchSize:     min(maxBatch, len(ins)),
			QueueWait:     time.Duration(40000 + 37*i),
			Service:       time.Duration(900000 + 11*(i/maxBatch)),
			SimulatedTime: rep.SimulatedTime + time.Duration(i/maxBatch),
		}}
	}
	return out
}
