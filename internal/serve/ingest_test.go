package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// memoH is an h longer than the memo's hash prefix, so a repeat of it is
// looked up by its own bytes, not by what follows it.
const memoH = `[[[1.0000000001,2.0000000002],[3.0000000003,4.0000000004]],[[5.0000000005,6.0000000006],[7.0000000007,8.0000000008]]]`

// memoBodies are bodies whose h values repeat, pinning what the channel
// memo must not change: every decode equals a fresh parse of the same
// bytes.
var memoBodies = []string{
	// Plain repeats, a ragged h and an h with null and empty rows.
	`{"frames":[{"h":` + memoH + `,"y":[[1,0],[0,1]],"noise_var":1},{"h":` + memoH + `,"y":[[2,0],[0,2]],"noise_var":2}]}`,
	`{"frames":[{"h":[[[1,2]],[[1,2],[3,4]]],"y":[[1,0]],"noise_var":1},{"h":[[[1,2]],[[1,2],[3,4]]],"y":[[1,0]],"noise_var":1}]}`,
	`{"frames":[{"h":[null,[],[[1,2]],null,[[3,4],[5,6]]],"noise_var":1},{"h":[null,[],[[1,2]],null,[[3,4],[5,6]]],"noise_var":1}]}`,
	// Empty matrices, repeated.
	`{"frames":[{"h":[],"y":[],"noise_var":1},{"h":[],"y":[],"noise_var":1},{"h":[[]],"y":[[]]},{"h":[[]],"y":[[]]},{"h":null},{}]}`,
	// A repeated h key rewrites the remembered rows in place; a later
	// frame repeating the first value must still decode to it.
	`{"frames":[{"h":` + memoH + `,"h":[[[9,9],[9,9]],[[9,9],[9,9]]],"y":[[1,0],[0,1]],"noise_var":1},{"h":` + memoH + `,"y":[[1,0],[0,1]],"noise_var":1}]}`,
	`{"frames":[{"h":` + memoH + `,"h":[[[9,9]],null],"noise_var":1},{"h":` + memoH + `,"noise_var":1}]}`,
	// A repeated frames key decodes into the frames (and rows) already
	// there.
	`{"frames":[{"h":` + memoH + `,"noise_var":1},{"h":` + memoH + `,"noise_var":1}],"frames":[{"h":[[[7,7],[7,7]],[[7,7],[7,7]]]},{"y":[[1,1]]},{"h":` + memoH + `}]}`,
	// Whitespace inside and around a remembered span.
	`{"frames":[{"h":` + memoH + `,"noise_var":1},{"h": ` + memoH + ` ,"noise_var":1},{"h":` + strings.ReplaceAll(memoH, ",", " , ") + `,"noise_var":1},{"h":` + strings.ReplaceAll(memoH, "[", "[ ") + `}]}`,
	// The same h at two depths, the deeper copy's pairs at the nesting
	// limit and past it.
	memoAtDepth(maxNestingDepth),
	memoAtDepth(maxNestingDepth + 2),
	// A repeat that is a prefix of a longer h, and a truncated repeat.
	`{"frames":[{"h":` + memoH + `},{"h":` + strings.TrimSuffix(memoH, "]") + `,[[1,2],[3,4]]]}]}`,
	`{"frames":[{"h":` + memoH + `},{"h":` + strings.TrimSuffix(memoH, "]]]"),
}

// memoAtDepth is an envelope whose first frame carries memoH and whose
// second nests frames until memoH's pairs open at nesting depth depth
// (even, ≥ 6).
func memoAtDepth(depth int) string {
	k := (depth - 4) / 2
	return `{"frames":[{"h":` + memoH + `},` + strings.Repeat(`{"frames":[`, k-1) + `{"h":` + memoH + `}` + strings.Repeat(`]}`, k-1) + `]}`
}

// fromRef copies an encoding/json decode into the wire type.
func fromRef(r *refRequest) DecodeRequest {
	out := DecodeRequest{H: r.H, Y: r.Y, NoiseVar: r.NoiseVar, Scenario: r.Scenario}
	if r.Frames != nil {
		out.Frames = make([]DecodeRequest, len(r.Frames))
		for i := range r.Frames {
			out.Frames[i] = fromRef(&r.Frames[i])
		}
	}
	return out
}

// refForm applies ReadDecodeRequest's form checks and scenario inheritance
// to a reference decode.
func refForm(r *DecodeRequest) error {
	if len(r.Frames) == 0 {
		return nil
	}
	if len(r.H) > 0 || len(r.Y) > 0 || r.NoiseVar != 0 {
		return errors.New("request mixes single-frame fields (h/y/noise_var) with the batch form (frames)")
	}
	for i := range r.Frames {
		f := &r.Frames[i]
		if len(f.Frames) > 0 {
			return fmt.Errorf("frames[%d] nests a frames array", i)
		}
		if f.Scenario == "" {
			f.Scenario = r.Scenario
		}
	}
	return nil
}

// diffInput reports where two decoder inputs differ, bit for bit, or "".
func diffInput(got, want core.BatchInput) string {
	if got.H.Rows != want.H.Rows || got.H.Cols != want.H.Cols || len(got.Y) != len(want.Y) {
		return fmt.Sprintf("shape %dx%d/%d, want %dx%d/%d", got.H.Rows, got.H.Cols, len(got.Y), want.H.Rows, want.H.Cols, len(want.Y))
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for k := range got.H.Data {
		if !same(got.H.Data[k], want.H.Data[k]) {
			return fmt.Sprintf("H[%d] = %v, want %v", k, got.H.Data[k], want.H.Data[k])
		}
	}
	for k := range got.Y {
		if !same(got.Y[k], want.Y[k]) {
			return fmt.Sprintf("y[%d] = %v, want %v", k, got.Y[k], want.Y[k])
		}
	}
	if math.Float64bits(got.NoiseVar) != math.Float64bits(want.NoiseVar) {
		return fmt.Sprintf("noise_var %v, want %v", got.NoiseVar, want.NoiseVar)
	}
	return ""
}

// checkDisjoint fails if two decoded pair slices share storage: every h
// row and y of every frame must be its own.
func checkDisjoint(t *testing.T, frames []DecodeRequest) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var spans []span
	add := func(s [][2]float64) {
		if len(s) > 0 {
			p := reflect.ValueOf(s).Pointer()
			spans = append(spans, span{p, p + uintptr(len(s))*16})
		}
	}
	for i := range frames {
		for _, row := range frames[i].H {
			add(row)
		}
		add(frames[i].Y)
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	for k := 1; k < len(spans); k++ {
		if spans[k].lo < spans[k-1].hi {
			t.Fatalf("decoded pair slices overlap: [%#x, %#x) and [%#x, %#x)", spans[k-1].lo, spans[k-1].hi, spans[k].lo, spans[k].hi)
		}
	}
}

// checkIngest runs the handler's ingest on data (ReadDecodeRequest, then
// the envelope conversion decodeBatch runs, or ToBatchInput for a single
// frame) and fails unless it matches encoding/json's decode of the same
// bytes put through ToBatchInput one frame at a time: the same
// accept/reject, the same form and conversion errors, and on success the
// same inputs value for value, each checked against the decoded pairs too.
func checkIngest(t *testing.T, data []byte) {
	t.Helper()
	var ref refRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	werr := dec.Decode(&ref)
	want := fromRef(&ref)
	if werr == nil {
		werr = refForm(&want)
	}

	got, gerr := ReadDecodeRequest(bytes.NewReader(data))
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("ingest of %q: wire err %v, reference err %v", data, gerr, werr)
	case gerr != nil:
		if !strings.HasPrefix(gerr.Error(), "malformed request body") && gerr.Error() != werr.Error() {
			t.Fatalf("ingest of %q: form error %q, reference %q", data, gerr, werr)
		}
		return
	}
	checkDisjoint(t, got.Frames)

	envelope := len(got.Frames) > 0
	frames, wantFrames := got.Frames, want.Frames
	if !envelope {
		frames, wantFrames = []DecodeRequest{got}, []DecodeRequest{want}
	}
	ins := make([]core.BatchInput, len(frames))
	bad, err := toBatchInputs(frames, ins)
	if !envelope {
		in, oneErr := got.ToBatchInput()
		if (oneErr == nil) != (err == nil) || (err == nil && diffInput(in, ins[0]) != "") {
			t.Fatalf("ingest of %q: ToBatchInput err %v, envelope conversion err %v", data, oneErr, err)
		}
	}
	for i := range wantFrames {
		wantIn, wantErr := wantFrames[i].ToBatchInput()
		if wantErr != nil {
			if err == nil || bad != i || err.Error() != wantErr.Error() {
				t.Fatalf("ingest of %q: conversion failed at frame %d with %v, reference at %d with %v", data, bad, err, i, wantErr)
			}
			return
		}
		if err != nil && bad == i {
			t.Fatalf("ingest of %q: frame %d: %v, reference converts it", data, i, err)
		}
		if err != nil {
			continue
		}
		if d := diffInput(ins[i], wantIn); d != "" {
			t.Fatalf("ingest of %q: frame %d: %s", data, i, d)
		}
		f := &wantFrames[i]
		for k, row := range f.H {
			for j, e := range row {
				if v := ins[i].H.Data[k*ins[i].H.Cols+j]; v != complex(e[0], e[1]) {
					t.Fatalf("ingest of %q: frame %d: H[%d][%d] = %v, pair %v", data, i, k, j, v, e)
				}
			}
		}
		if frames[i].Scenario != f.Scenario {
			t.Fatalf("ingest of %q: frame %d scenario %q, want %q", data, i, got.Frames[i].Scenario, f.Scenario)
		}
	}
	if err != nil {
		t.Fatalf("ingest of %q: frame %d: %v, reference converts every frame", data, bad, err)
	}
}

// FuzzEnvelopeIngest holds the handler's ingest (channel memo, slabs, the
// one-arena envelope conversion) to encoding/json plus ToBatchInput frame
// by frame.
func FuzzEnvelopeIngest(f *testing.F) {
	for _, s := range memoBodies {
		f.Add([]byte(s))
	}
	for _, s := range httpAPIBodies {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"h":[[[1,2],[3,4]],[[5,6]]],"y":[[1,0],[0,1]],"noise_var":1}`))
	f.Add([]byte(`{"frames":[],"h":[[[0]]]}`))
	f.Add([]byte(`{"scenario":"e","frames":[{"h":[[[1,0]]],"y":[[1,0]],"noise_var":1},{"h":[[[1,0]],[]],"scenario":"own"}]}`))
	// Frames 32, 33 and 64 repeat the channels of frames 0 and 1.
	f.Add(gridDenseFrames(f, 1, 0, 1, 32, 33, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIngest(t, data)
	})
}

// TestWireMemoHits: an envelope whose 256 frames carry 32 distinct
// channels parses each channel once; every other h is a memo hit.
func TestWireMemoHits(t *testing.T) {
	body := gridDenseEnvelope(t, 1, 256)
	p := newWireParser()
	p.data = body
	var req DecodeRequest
	if err := p.object(&req); err != nil {
		t.Fatal(err)
	}
	if n := len(p.memo.entries); n != 32 {
		t.Errorf("%d h values parsed from their bytes, want 32 distinct channels", n)
	}
	checkDisjoint(t, req.Frames)
	// A hit is a copy: writing one frame's channel leaves its repeat alone.
	want := req.Frames[32].H[0][0]
	req.Frames[0].H[0][0] = [2]float64{math.Pi, math.Pi}
	if req.Frames[32].H[0][0] != want {
		t.Errorf("frame 32's h changed with frame 0's")
	}
}

// TestIngestBenchmarkEnvelopes runs the two benchmark envelopes, too large
// for fuzz seeds, through both differential checks.
func TestIngestBenchmarkEnvelopes(t *testing.T) {
	for _, b := range [][]byte{gridDenseEnvelope(t, 1, 256), rayleighEnvelope(t, 16, 1)} {
		checkParity(t, b)
		checkIngest(t, b)
	}
}
