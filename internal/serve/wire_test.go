package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/ofdm"
	"repro/internal/ofdm/scenario"
	"repro/internal/rng"
)

// refRequest mirrors DecodeRequest without its UnmarshalJSON, so decoding
// into it runs encoding/json's reflection path: the parity reference for
// the wire parser.
type refRequest struct {
	H        [][][2]float64 `json:"h,omitempty"`
	Y        [][2]float64   `json:"y,omitempty"`
	NoiseVar float64        `json:"noise_var,omitempty"`
	Frames   []refRequest   `json:"frames,omitempty"`
	Scenario string         `json:"scenario,omitempty"`
}

// TestRefRequestMirrorsDecodeRequest keeps the reference in step with the
// wire type: same field names, tags and types (Frames up to element type).
func TestRefRequestMirrorsDecodeRequest(t *testing.T) {
	a, b := reflect.TypeOf(DecodeRequest{}), reflect.TypeOf(refRequest{})
	if a.NumField() != b.NumField() {
		t.Fatalf("DecodeRequest has %d fields, refRequest %d", a.NumField(), b.NumField())
	}
	for i := 0; i < a.NumField(); i++ {
		fa, fb := a.Field(i), b.Field(i)
		if fa.Name != fb.Name || fa.Tag != fb.Tag {
			t.Errorf("field %d: %s %q vs %s %q", i, fa.Name, fa.Tag, fb.Name, fb.Tag)
		}
		if fa.Name != "Frames" && fa.Type != fb.Type {
			t.Errorf("field %s: type %v vs %v", fa.Name, fa.Type, fb.Type)
		}
	}
}

// diffPairs compares pair slices bit for bit, nil distinct from empty.
func diffPairs(path string, got, want [][2]float64) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%s: got %v (nil %v), want %v (nil %v)", path, got, got == nil, want, want == nil)
	}
	for i := range got {
		for k := 0; k < 2; k++ {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				return fmt.Sprintf("%s[%d][%d]: got %v, want %v", path, i, k, got[i][k], want[i][k])
			}
		}
	}
	return ""
}

// diffRequest reports the first field where got and want differ, or "".
func diffRequest(path string, got *DecodeRequest, want *refRequest) string {
	if got.Scenario != want.Scenario {
		return fmt.Sprintf("%sscenario: got %q, want %q", path, got.Scenario, want.Scenario)
	}
	if math.Float64bits(got.NoiseVar) != math.Float64bits(want.NoiseVar) {
		return fmt.Sprintf("%snoise_var: got %v, want %v", path, got.NoiseVar, want.NoiseVar)
	}
	if (got.H == nil) != (want.H == nil) || len(got.H) != len(want.H) {
		return fmt.Sprintf("%sh: got %d rows (nil %v), want %d (nil %v)", path, len(got.H), got.H == nil, len(want.H), want.H == nil)
	}
	for i := range got.H {
		if d := diffPairs(fmt.Sprintf("%sh[%d]", path, i), got.H[i], want.H[i]); d != "" {
			return d
		}
	}
	if d := diffPairs(path+"y", got.Y, want.Y); d != "" {
		return d
	}
	if (got.Frames == nil) != (want.Frames == nil) || len(got.Frames) != len(want.Frames) {
		return fmt.Sprintf("%sframes: got %d (nil %v), want %d (nil %v)", path, len(got.Frames), got.Frames == nil, len(want.Frames), want.Frames == nil)
	}
	for i := range got.Frames {
		if d := diffRequest(fmt.Sprintf("%sframes[%d].", path, i), &got.Frames[i], &want.Frames[i]); d != "" {
			return d
		}
	}
	return ""
}

// checkParity decodes data with the wire parser and with encoding/json and
// fails unless they agree on accept/reject and, on accept, on every field.
// It covers both entry points: the front ends' body parse against
// json.Decoder with DisallowUnknownFields (trailing bytes ignored), and
// json.Unmarshal through UnmarshalJSON against a strict decode of an input
// json.Valid accepts.
func checkParity(t *testing.T, data []byte) {
	t.Helper()
	var want refRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	werr := dec.Decode(&want)

	var got DecodeRequest
	_, gerr := parseDecodeRequest(data, &got)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("body parse of %q: wire err %v, encoding/json err %v", data, gerr, werr)
	}
	if werr == nil {
		if d := diffRequest("", &got, &want); d != "" {
			t.Fatalf("body parse of %q: %s", data, d)
		}
	}

	var viaUnmarshal DecodeRequest
	uerr := json.Unmarshal(data, &viaUnmarshal)
	wantOK := werr == nil && json.Valid(data)
	if (uerr == nil) != wantOK {
		t.Fatalf("json.Unmarshal of %q: err %v, want ok=%v (decoder err %v)", data, uerr, wantOK, werr)
	}
	if wantOK {
		if d := diffRequest("", &viaUnmarshal, &want); d != "" {
			t.Fatalf("json.Unmarshal of %q: %s", data, d)
		}
	}
}

// wireQuirks are inputs that pin encoding/json behaviours the wire parser
// must reproduce, each accepted or rejected exactly as encoding/json does.
var wireQuirks = []string{
	// Case-insensitive and Unicode-folded keys, escaped keys.
	`{"H":[[[1,2]]],"Y":[[3,4]],"NOISE_VAR":0.5,"Frames":null,"SCENARIO":"x"}`,
	`{"ſcenario":"a","noiſe_var":1,"frameſ":[]}`,
	`{"h":[[[1,2]]],"noise_var":2,"Scenario":"k"}`,
	`{"noise_var":1,"h\u0000":1}`,
	`{"h\t":1}`,
	// Repeated keys: the last wins but reuses the earlier slices.
	`{"y":[[1,2],[3,4]],"y":[[5,6]],"y":[[7,8],[null,9]]}`,
	`{"h":[[[1,2],[3,4]],[[5,6]]],"h":[[[null,7]]],"h":[[[8,9]],[[null,null]]]}`,
	`{"h":[[[1,2]]],"h":[],"h":[[[null,3]]]}`,
	`{"frames":[{"h":[[[1,2]]],"noise_var":1},{"y":[[1,1]]}],"frames":[{"y":[[3,4]]}],"frames":[null,{"scenario":"s"}]}`,
	`{"noise_var":1,"noise_var":2,"scenario":"a","scenario":"b"}`,
	// null: floats, pairs, frames and strings unchanged; slices nil.
	`{"h":null,"y":null,"noise_var":null,"frames":null,"scenario":null}`,
	`{"y":[null,[1,null],[null,2]],"h":[null,[null,[3,4]]]}`,
	`{"frames":[null,null]}`,
	`{"scenario":"a","scenario":null,"noise_var":3,"noise_var":null}`,
	// Short pairs zero-fill; extra elements are skipped but validated.
	`{"y":[[],[1],[1,2,3],[1,2,"x",{"a":[true,false,null]},1e999,-0.0e-0]]}`,
	`{"y":[[1,2,]]}`,
	`{"y":[[1,2,tru]]}`,
	`{"y":[[1,2,{"a" 1}]]}`,
	`{"y":[[1,2,{1:2}]]}`,
	`{"y":[[1,2,"\x"]]}`,
	// Numbers: range, grammar, signed zero.
	`{"noise_var":1e309}`,
	`{"y":[[-1e400,0]]}`,
	`{"noise_var":1e-400}`,
	`{"noise_var":4.9e-324,"y":[[2.2250738585072014e-308,1.7976931348623157e308]]}`,
	`{"noise_var":-0}`,
	`{"noise_var":1E+2,"y":[[1e-2,0.5E1]]}`,
	`{"noise_var":01}`,
	`{"noise_var":-}`,
	`{"noise_var":1.}`,
	`{"noise_var":.5}`,
	`{"noise_var":1e}`,
	`{"noise_var":+1}`,
	`{"noise_var":0x10}`,
	`{"noise_var":NaN}`,
	`{"noise_var":1.5.3}`,
	// Wrong types.
	`{"noise_var":"1"}`,
	`{"noise_var":true}`,
	`{"h":{}}`,
	`{"h":[1]}`,
	`{"h":[[1]]}`,
	`{"y":[1]}`,
	`{"y":"s"}`,
	`{"frames":[1]}`,
	`{"frames":[[]]}`,
	`{"frames":{}}`,
	`{"scenario":1}`,
	`{"scenario":["a"]}`,
	`[]`, `"x"`, `1`, `true`, `false`,
	// Empty containers are non-nil.
	`{"h":[],"y":[],"frames":[]}`,
	`{"h":[[]],"y":[[]]}`,
	`{}`,
	// Top level: null is a no-op, trailing bytes are ignored by the body
	// parse (json.Unmarshal still rejects them).
	`null`, `  null  `, `null garbage`, `nul`, `nullx`,
	`{"noise_var":1} trailing`, `{}{}`, "{}\n",
	``, `   `, `{`, `{"h"`, `{"h":`, `{"h":[`, `{"h":[[[1,`, `{"scenario":"ab`,
	// Scenario strings: escapes, non-ASCII, invalid UTF-8, surrogates.
	`{"scenario":"café 😀 \n\/\b\f\r\t\"\\"}`,
	"{\"scenario\":\"caf\xc3\xa9\"}",
	"{\"scenario\":\"\xff\xfe\"}",
	`{"scenario":"\ud800"}`,
	`{"scenario":"\u12"}`,
	`{"scenario":"\q"}`,
	"{\"scenario\":\"a\tb\"}",
	"{\"scenario\":\"\x7f\"}",
	// Unknown fields, even empty or repeated ones.
	`{"surprise":1}`,
	`{"":1}`,
	`{"h":[[[1,0]]],"y":[[1,0]],"noise_var":0.1,"surprise":{"deep":[1,2,3]}}`,
	// Separators and whitespace.
	" {\t\"h\" :\n[ [ [ 1 , 2 ] ] ] ,\r\"y\":[[3 ,4]] } ",
	`{"h":[[[1,2]]],}`,
	`{,"h":null}`,
	`{"h":null "y":null}`,
	`{"h" null}`,
	`{"y":[[1 2]]}`,
	`{"y":[,[1,2]]}`,
	// Pairs through the whitespace-free path and the general one: signed
	// zero, out-of-range and subnormal numbers, mantissas past 19 digits,
	// whitespace, long and short pairs, upper-case exponents, and a tight
	// pair at the nesting limit and one level past it.
	`{"y":[[-0,0]]}`,
	`{"y":[[1e400,0]]}`,
	`{"y":[[1e-400,0]]}`,
	`{"y":[[5e-324,0]]}`,
	`{"y":[[123456789012345678901234,0]]}`,
	`{"y":[[1.00000000000000000001,0]]}`,
	`{"y":[[ 1 , 2 ]]}`,
	`{"y":[[1,2,3]]}`,
	`{"y":[[1]]}`,
	`{"y":[[1E+2,1e-2]]}`,
	pairAtDepth(maxNestingDepth),
	pairAtDepth(maxNestingDepth + 1),
}

// pairAtDepth is a body whose one [1,2] pair opens at nesting depth depth
// (≥ 3), reached by nesting frames; an h pair sits one level deeper than
// a y pair.
func pairAtDepth(depth int) string {
	k, inner := (depth-3)/2, `{"y":[[1,2]]}`
	if depth%2 == 0 {
		k, inner = (depth-4)/2, `{"h":[[[1,2]]]}`
	}
	return strings.Repeat(`{"frames":[`, k) + inner + strings.Repeat(`]}`, k)
}

// deepPair nests an extra pair element depth levels deep; the body's own
// object, y array and pair add three more levels.
func deepPair(depth int) string {
	return `{"y":[[1,2,` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `]]}`
}

// httpAPIBodies are the request bodies TestHTTPAPIVersionAndTypedErrors
// sends.
var httpAPIBodies = []string{
	`{"h":[[[1,0]]],"y":[[1,0]],"noise_var":0.1,"surprise":1}`,
	`{"h":[[[1,0]]],"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":0.1}]}`,
	`{"frames":[{"frames":[{"h":[[[1,0]]]}]}]}`,
	`{"h":[[[1,0]]],"y":[[1,0],[0,1]],"noise_var":0.1}`,
	`{"h":[[]],"y":[[1,0]],"noise_var":0.1}`,
	`{"frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":0.1},{"h":[[],[]]}]}`,
}

// wireFrame is the wire form of one detection problem.
func wireFrame(h *cmatrix.Matrix, y cmatrix.Vector, noiseVar float64) DecodeRequest {
	req := DecodeRequest{NoiseVar: noiseVar, H: make([][][2]float64, h.Rows), Y: make([][2]float64, len(y))}
	for i := range req.H {
		row := h.Row(i)
		req.H[i] = make([][2]float64, len(row))
		for j, v := range row {
			req.H[i][j] = [2]float64{real(v), imag(v)}
		}
	}
	for i, v := range y {
		req.Y[i] = [2]float64{real(v), imag(v)}
	}
	return req
}

// gridDenseEnvelope is the first n frames of one coherence block of the
// static-dense OFDM scenario (256 frames of 4×4 QPSK) as a batch envelope.
func gridDenseEnvelope(tb testing.TB, seed uint64, n int) []byte {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return gridDenseFrames(tb, seed, idx...)
}

// gridDenseFrames is the frames idx of one static-dense coherence block as
// a batch envelope. The block's channel repeats every 32 frames.
func gridDenseFrames(tb testing.TB, seed uint64, idx ...int) []byte {
	tb.Helper()
	sc, err := scenario.Lookup("static-dense")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := ofdm.NewGenerator(sc.Grid, seed)
	if err != nil {
		tb.Fatal(err)
	}
	block, err := g.Block()
	if err != nil {
		tb.Fatal(err)
	}
	var env DecodeRequest
	for _, i := range idx {
		env.Frames = append(env.Frames, wireFrame(block[i].H, block[i].Y, block[i].NoiseVar))
	}
	body, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// rayleighEnvelope is a batch envelope of n frames of 10×10 16-QAM, each
// under its own i.i.d. Rayleigh channel at 14 dB Es/N0.
func rayleighEnvelope(tb testing.TB, n int, seed uint64) []byte {
	tb.Helper()
	const tx, rx, snrDB = 10, 10, 14.0
	cons := constellation.New(constellation.QAM16)
	nv := channel.NoiseVariance(channel.PerTransmitSymbol, snrDB, tx)
	r := rng.New(seed)
	s := make(cmatrix.Vector, tx)
	var env DecodeRequest
	for i := 0; i < n; i++ {
		h := channel.Rayleigh(r, rx, tx)
		for a := range s {
			s[a] = cons.Symbol(r.Intn(cons.Size()))
		}
		env.Frames = append(env.Frames, wireFrame(h, channel.Transmit(r, h, s, nv), nv))
	}
	body, err := json.Marshal(env)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range httpAPIBodies {
		f.Add([]byte(s))
	}
	for _, s := range wireQuirks {
		f.Add([]byte(s))
	}
	f.Add([]byte(deepPair(maxNestingDepth - 3)))
	f.Add([]byte(deepPair(maxNestingDepth - 2)))
	for _, s := range memoBodies {
		f.Add([]byte(s))
	}
	f.Add(gridDenseFrames(f, 1, 0, 1, 32, 33, 64))
	// A short envelope: the fuzzer spends up to a minute minimizing each
	// new input derived from a seed, which a full 226 KB block would
	// stretch into most of the budget.
	f.Add(gridDenseEnvelope(f, 1, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParity(t, data)
	})
}

// TestReadDecodeRequestForm: the shared body parse owns the envelope form
// checks and the scenario inheritance both front ends rely on.
func TestReadDecodeRequestForm(t *testing.T) {
	for _, c := range []struct {
		name, body, err string
	}{
		{"mixed h", `{"h":[[[1,0]]],"frames":[{}]}`, "mixes single-frame fields"},
		{"mixed noise_var", `{"noise_var":1,"frames":[{}]}`, "mixes single-frame fields"},
		{"nested", `{"frames":[{},{"frames":[{}]}]}`, "frames[1] nests a frames array"},
		{"malformed", `{"frames":[}`, "malformed request body"},
		{"unknown", `{"frames":[{"x":1}]}`, `unknown field "x"`},
	} {
		_, err := ReadDecodeRequest(strings.NewReader(c.body))
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err %v, want it to mention %q", c.name, err, c.err)
		}
	}
	req, err := ReadDecodeRequest(strings.NewReader(`{"scenario":"env","frames":[{},{"scenario":"own"},{"scenario":""}]} tail`))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"env", "own", "env"} {
		if got := req.Frames[i].Scenario; got != want {
			t.Errorf("frames[%d] scenario %q, want %q", i, got, want)
		}
	}
	// An empty frames array is the single-frame form, as it always was.
	if _, err := ReadDecodeRequest(strings.NewReader(`{"frames":[],"noise_var":1}`)); err != nil {
		t.Errorf("empty frames with single-frame fields: %v", err)
	}
}

// TestWireRowsShareBacking: a fresh h is laid out as rows sliced from one
// backing array, each capped at its own length so appending to one row can
// never overwrite the next.
func TestWireRowsShareBacking(t *testing.T) {
	var req DecodeRequest
	if err := json.Unmarshal([]byte(`{"h":[[[1,2],[3,4]],[],null,[[5,6]]]}`), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.H) != 4 || req.H[2] != nil || req.H[1] == nil || len(req.H[1]) != 0 {
		t.Fatalf("rows %v", req.H)
	}
	const pairSize = 16
	if p0, p3 := reflect.ValueOf(req.H[0]).Pointer(), reflect.ValueOf(req.H[3]).Pointer(); p3 != p0+2*pairSize {
		t.Errorf("row 3 starts at %#x, want %#x: rows do not share one backing array", p3, p0+2*pairSize)
	}
	for i, row := range req.H {
		if cap(row) != len(row) {
			t.Errorf("row %d: cap %d, len %d", i, cap(row), len(row))
		}
	}
}

// BenchmarkDecodeRequest prices what the HTTP front end does to an
// envelope before any frame is submitted: the wire parse and form checks
// (ReadDecodeRequest) plus the envelope conversion decodeBatch runs, per
// frame.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"grid-dense-4x4-qpsk-256", gridDenseEnvelope(b, 1, 256)},
		{"mimo-search-10x10-16qam-16", rayleighEnvelope(b, 16, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			req, err := ReadDecodeRequest(bytes.NewReader(c.body))
			if err != nil {
				b.Fatal(err)
			}
			frames := len(req.Frames)
			var before, after runtime.MemStats
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				req, err := ReadDecodeRequest(bytes.NewReader(c.body))
				if err != nil {
					b.Fatal(err)
				}
				ins := make([]core.BatchInput, len(req.Frames))
				if _, err := toBatchInputs(req.Frames, ins); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			b.StopTimer()
			n := float64(b.N * frames)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/frame")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/frame")
		})
	}
}
