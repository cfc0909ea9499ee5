package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/cmatrix"
	"repro/internal/core"
)

// APIVersion is the wire version echoed by every /v1 response body.
const APIVersion = "v1"

// Wire format: complex numbers travel as [re, im] pairs so clients need no
// custom marshalling.

// DecodeRequest is the JSON body of POST /v1/decode. Two forms are accepted:
// a single frame (h, y, noise_var) or a batch envelope (frames: [...]), never
// both in one body. Unknown fields are rejected with a typed 400. It decodes
// through the schema-specific parser in wire.go, not reflection.
type DecodeRequest struct {
	// H is the Rx×Tx channel estimate, row-major, entries as [re, im].
	H [][][2]float64 `json:"h,omitempty"`
	// Y is the received vector, entries as [re, im].
	Y [][2]float64 `json:"y,omitempty"`
	// NoiseVar is the complex noise variance σ².
	NoiseVar float64 `json:"noise_var,omitempty"`
	// Frames is the batch form: each entry is a single-frame request. The
	// envelope is submitted as one unit so the scheduler can coalesce its
	// frames into shared dispatches. Entries may not themselves carry frames.
	Frames []DecodeRequest `json:"frames,omitempty"`
	// Scenario is an optional workload label: frames carrying it accumulate
	// into the per-scenario quality and QR-cache splits on /metrics. On a
	// batch envelope it applies to every frame that does not set its own.
	Scenario string `json:"scenario,omitempty"`
}

// DecodeResponse is the JSON body answering a single-frame POST /v1/decode.
type DecodeResponse struct {
	APIVersion    string  `json:"api_version"`
	SymbolIndices []int   `json:"symbol_indices"`
	Bits          []int   `json:"bits"`
	Metric        float64 `json:"metric"`
	NodesExplored int64   `json:"nodes_explored"`
	Quality       string  `json:"quality"`
	DegradedBy    string  `json:"degraded_by,omitempty"`
	BatchSize     int     `json:"batch_size"`
	QueueWaitNS   int64   `json:"queue_wait_ns"`
	ServiceNS     int64   `json:"service_ns"`
	SimulatedNS   int64   `json:"simulated_ns"`
	Shed          bool    `json:"shed,omitempty"`
}

// BatchDecodeResult is one frame's outcome inside a BatchDecodeResponse:
// either a DecodeResponse or an error, never both.
type BatchDecodeResult struct {
	*DecodeResponse
	Error string `json:"error,omitempty"`
}

// BatchDecodeResponse answers the batch form of POST /v1/decode. The HTTP
// status is 200 whenever the envelope itself was well-formed; per-frame
// failures ride in Results[i].Error.
type BatchDecodeResponse struct {
	APIVersion string              `json:"api_version"`
	Results    []BatchDecodeResult `json:"results"`
}

// ConfigInfo is the JSON body of GET /v1/config: what a client needs to
// build well-formed requests (and what a load generator needs to match the
// server's MIMO configuration).
type ConfigInfo struct {
	APIVersion string `json:"api_version"`
	Backend    string `json:"backend"`
	// Epoch/Instance identify the scheduler incarnation (see
	// Scheduler.Identity): a restart yields a larger epoch and a fresh
	// instance, telling clients any affinity assumptions are stale.
	Epoch      int64  `json:"epoch"`
	Instance   string `json:"instance"`
	TxAntennas int    `json:"tx_antennas"`
	RxAntennas int    `json:"rx_antennas"`
	Modulation string `json:"modulation"`
	MaxBatch   int    `json:"max_batch"`
	MaxWaitNS  int64  `json:"max_wait_ns"`
	Workers    int    `json:"workers"`
	QueueCap   int    `json:"queue_cap"`
	Policy     string `json:"policy"`
	BudgetNS   int64  `json:"budget_deadline_ns"`
	NodeBudget int64  `json:"node_budget"`
	// Strategy names the engine of the backend's BasePolicy ("SD-RVD-SE"
	// or "SD-SortedDFS", the latter also for a backend exposing none).
	// Norm is always "l2", the only served norm; it stays on the wire for
	// clients that check it.
	Strategy string `json:"strategy,omitempty"`
	Norm     string `json:"norm,omitempty"`
	// DecodePolicy/PolicyMode echo the live decode-policy state (see
	// GET /v1/policy): the effective policy spelling and which authority is
	// choosing it ("default", "fixed", "adaptive", "override").
	DecodePolicy string `json:"decode_policy"`
	PolicyMode   string `json:"policy_mode"`
}

// Machine-readable error codes carried by errorBody.Code.
const (
	CodeBadRequest   = "bad_request"   // malformed body, unknown field, bad envelope
	CodeInvalidInput = "invalid_input" // well-formed but undecodable (shape, NaN, σ²≤0)
	CodeOverloaded   = "overloaded"    // admission queue full under Reject
	CodeUnavailable  = "unavailable"   // scheduler draining/closed
	CodeTimeout      = "timeout"       // client context expired
	CodeInternal     = "internal"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// handler serves the scheduler over HTTP.
type handler struct {
	s   *Scheduler
	tx  int
	rx  int
	mod string
	mux *http.ServeMux
}

// NewHandler wraps a scheduler in the HTTP/JSON front end. tx, rx, mod
// describe the MIMO configuration the backends were built for and are
// echoed by /v1/config, with the engine the scheduler's backend serves.
func NewHandler(s *Scheduler, tx, rx int, mod string) http.Handler {
	h := &handler{s: s, tx: tx, rx: rx, mod: mod, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/decode", h.decode)
	h.mux.HandleFunc("GET /v1/config", h.config)
	h.mux.HandleFunc("GET /v1/policy", h.policyGet)
	h.mux.HandleFunc("PUT /v1/policy", h.policyPut)
	h.mux.HandleFunc("GET /v1/trace", h.trace)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	return h
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// writeJSON encodes v before anything is sent, so a value encoding/json
// cannot encode answers a typed 500 instead of its status with an empty
// body. The bytes are what json.NewEncoder(w).Encode(v) writes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("serve: encode response: %w", err))
		return
	}
	writeBody(w, code, append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// submitStatus maps a Submit error to (HTTP status, wire code).
func submitStatus(r *http.Request, err error) (int, string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, CodeOverloaded
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, CodeUnavailable
	case errors.Is(err, core.ErrInvalidInput):
		return http.StatusBadRequest, CodeInvalidInput
	case r.Context().Err() != nil:
		return http.StatusGatewayTimeout, CodeTimeout
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// ToBatchInput converts the wire request into the decoder's input form. It
// is exported for the cluster proxy, which needs the parsed channel matrix
// to fingerprint-route a frame before forwarding it. It is the one-frame
// call of the conversion an envelope goes through.
func (r *DecodeRequest) ToBatchInput() (core.BatchInput, error) {
	var in [1]core.BatchInput
	if _, err := toBatchInputs([]DecodeRequest{*r}, in[:]); err != nil {
		return core.BatchInput{}, err
	}
	return in[0], nil
}

// toBatchInputs converts frames into ins, the decoder's input form. Every
// frame's H and y are laid out in one []complex128 and every H header in
// one []cmatrix.Matrix, allocated per call and never recycled: the QR
// cache keeps the matrix a handle was factored from and checks later hits
// against it, so that storage must not change while the handle is cached.
// On failure nothing is converted and bad is the index of the first frame
// that is not a channel matrix.
func toBatchInputs(frames []DecodeRequest, ins []core.BatchInput) (bad int, err error) {
	n := 0
	for i := range frames {
		r := &frames[i]
		if len(r.H) == 0 || len(r.H[0]) == 0 {
			return i, errors.New("empty channel matrix")
		}
		cols := len(r.H[0])
		for k, row := range r.H {
			if len(row) != cols {
				return i, fmt.Errorf("ragged channel matrix: row %d has %d entries, row 0 has %d", k, len(row), cols)
			}
		}
		n += len(r.H)*cols + len(r.Y)
	}
	vals := make([]complex128, n)
	mats := make([]cmatrix.Matrix, len(frames))
	for i := range frames {
		r := &frames[i]
		rows, cols := len(r.H), len(r.H[0])
		h := vals[: rows*cols : rows*cols]
		for k, row := range r.H {
			dst := h[k*cols : (k+1)*cols]
			for j, e := range row {
				dst[j] = complex(e[0], e[1])
			}
		}
		y := vals[rows*cols : rows*cols+len(r.Y) : rows*cols+len(r.Y)]
		for k, e := range r.Y {
			y[k] = complex(e[0], e[1])
		}
		vals = vals[rows*cols+len(r.Y):]
		mats[i] = cmatrix.Matrix{Rows: rows, Cols: cols, Data: h}
		ins[i] = core.BatchInput{H: &mats[i], Y: y, NoiseVar: r.NoiseVar}
	}
	return 0, nil
}

func (h *handler) decode(w http.ResponseWriter, r *http.Request) {
	req, err := ReadDecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if len(req.Frames) > 0 {
		h.decodeBatch(w, r, req.Frames)
		return
	}
	in, err := req.ToBatchInput()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	resp, err := h.s.SubmitScenario(r.Context(), in, req.Scenario)
	if err != nil {
		status, code := submitStatus(r, err)
		writeError(w, status, code, err)
		return
	}
	h.writeDecode(w, resp)
}

// decodeBatch serves the frames form: every frame is converted first, so a
// bad frame rejects the whole envelope before any frame is submitted, then
// the envelope is submitted as one unit so the scheduler's batcher can
// coalesce its frames into shared dispatches.
func (h *handler) decodeBatch(w http.ResponseWriter, r *http.Request, frames []DecodeRequest) {
	ins := make([]core.BatchInput, len(frames))
	if i, err := toBatchInputs(frames, ins); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("frames[%d]: %w", i, err))
		return
	}
	scenarios := make([]string, len(frames))
	for i := range frames {
		scenarios[i] = frames[i].Scenario
	}
	out := make([]result, len(frames))
	h.s.submitFrames(r.Context(), ins, scenarios, out)
	h.writeBatchDecode(w, out)
}

// trace streams JSON-lines search traces (GET /v1/trace?frames=N). The
// subscription itself is what arms tracing: batches dispatched while at
// least one subscriber is connected record spans and publish frames.
func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	n := 16
	if q := r.URL.Query().Get("frames"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("frames must be a positive integer, got %q", q))
			return
		}
		n = v
	}
	buf := n
	if buf > 1024 {
		buf = 1024
	}
	ch := h.s.Traces().Subscribe(buf)
	defer h.s.Traces().Unsubscribe(ch)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers so clients see the stream open
	}
	for sent := 0; sent < n; {
		select {
		case f, ok := <-ch:
			if !ok {
				return
			}
			line, err := f.MarshalLine()
			if err != nil {
				continue
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent++
		case <-r.Context().Done():
			return
		case <-h.s.stop:
			return
		}
	}
}

func (h *handler) config(w http.ResponseWriter, _ *http.Request) {
	cfg := h.s.Config()
	epoch, instance := h.s.Identity()
	writeJSON(w, http.StatusOK, ConfigInfo{
		APIVersion:   APIVersion,
		Backend:      h.s.Backend().Name(),
		Epoch:        epoch,
		Instance:     instance,
		TxAntennas:   h.tx,
		RxAntennas:   h.rx,
		Modulation:   h.mod,
		MaxBatch:     cfg.MaxBatch,
		MaxWaitNS:    int64(cfg.MaxWait),
		Workers:      cfg.Workers,
		QueueCap:     cfg.QueueCap,
		Policy:       cfg.Policy.String(),
		BudgetNS:     int64(cfg.Budget.Deadline),
		NodeBudget:   cfg.Budget.NodeBudget,
		Strategy:     h.s.basePol.Strategy.String(),
		Norm:         "l2",
		DecodePolicy: h.s.PolicyInfo().Policy,
		PolicyMode:   h.s.PolicyMode(),
	})
}

// PolicyUpdate is the JSON body of PUT /v1/policy: a core.ParsePolicyOn
// spelling (relative to the served engine) to pin, or "adaptive" to resume
// the configured controller.
type PolicyUpdate struct {
	Policy string `json:"policy"`
}

// policyGet serves the live decode-policy state: deciding authority, pinned
// spelling, adaptive ladder, per-class controller EWMAs, decision counts.
func (h *handler) policyGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.s.PolicyInfo())
}

// policyPut applies a runtime policy change and answers with the resulting
// state, so a caller can confirm the override took effect in one round trip.
func (h *handler) policyPut(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var upd PolicyUpdate
	if err := dec.Decode(&upd); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("malformed request body: %w", err))
		return
	}
	if err := h.s.SetPolicy(upd.Policy); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidInput, err)
		return
	}
	writeJSON(w, http.StatusOK, h.s.PolicyInfo())
}

// metrics serves the stats snapshot: JSON by default (what sdload and the
// smoke scripts parse), Prometheus text exposition when the client asks via
// ?format=prometheus or an Accept header preferring text/plain.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	st := h.s.Stats()
	format := r.URL.Query().Get("format")
	accept := r.Header.Get("Accept")
	if format == "prometheus" || (format == "" && strings.Contains(accept, "text/plain")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		WritePrometheus(w, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// healthz serves the graded health report. ok and degraded answer 200 (the
// service is still doing useful work, possibly at reduced quality); draining
// and unhealthy answer 503 so load balancers route away.
func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	state, report := h.s.Health()
	code := http.StatusOK
	if state == HealthDraining || state == HealthUnhealthy {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, report)
}
