package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// TestEncodeFailureIsTyped500: a value encoding/json cannot encode is
// answered with a typed 500 internal, not its status and an empty body.
func TestEncodeFailureIsTyped500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, DecodeResponse{DecodeResponse: serve.DecodeResponse{Metric: math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("body %q: %v", rec.Body.Bytes(), err)
	}
	if eb.Code != serve.CodeInternal || eb.Error == "" {
		t.Fatalf("error body %+v", eb)
	}

	// An encodable value is written as json.Encoder writes it.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, errorBody{Error: "<x>", Code: "c"})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"error\":\"\\u003cx\\u003e\",\"code\":\"c\"}\n" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
}
