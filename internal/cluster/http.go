package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/serve"
)

// ConfigInfo is the proxy's GET /v1/config body. It carries the same MIMO
// fields sdserver serves so sdload and other clients work unchanged against
// a proxy, plus the cluster topology.
type ConfigInfo struct {
	APIVersion string   `json:"api_version"`
	Backend    string   `json:"backend"`
	TxAntennas int      `json:"tx_antennas"`
	RxAntennas int      `json:"rx_antennas"`
	Modulation string   `json:"modulation"`
	Replicas   int      `json:"replicas"`
	Routing    string   `json:"routing"`
	Shards     []string `json:"shards"`
}

// JoinRequest is the POST /v1/shards body.
type JoinRequest struct {
	URL string `json:"url"`
}

// MembershipResponse answers shard join/leave calls.
type MembershipResponse struct {
	URL string `json:"url"`
	// Moved is the measured fraction of the keyspace whose primary owner
	// changed — the consistent-hashing disruption bound made observable.
	Moved  float64  `json:"moved"`
	Shards []string `json:"shards"`
}

// handler serves the proxy over HTTP with the same wire conventions as
// internal/serve: JSON bodies, typed error codes, graded /healthz.
type handler struct {
	p   *Proxy
	mux *http.ServeMux
}

// NewHandler wraps the proxy in its HTTP front end.
func NewHandler(p *Proxy) http.Handler {
	h := &handler{p: p, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/decode", h.decode)
	h.mux.HandleFunc("GET /v1/config", h.config)
	h.mux.HandleFunc("GET /v1/policy", h.policyGet)
	h.mux.HandleFunc("PUT /v1/policy", h.policyPut)
	h.mux.HandleFunc("GET /v1/shards", h.listShards)
	h.mux.HandleFunc("POST /v1/shards", h.join)
	h.mux.HandleFunc("DELETE /v1/shards", h.leave)
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
		writeError(w, http.StatusInternalServerError, serve.CodeInternal, fmt.Errorf("cluster: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client is gone; there is nobody to tell.
	_, _ = w.Write(append(body, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// decodeStatus maps a Proxy.Decode error to (HTTP status, wire code),
// preserving a shard's own verdict when one propagated through.
func decodeStatus(r *http.Request, err error) (int, string) {
	var she *shardHTTPError
	switch {
	case errors.As(err, &she):
		return she.status, she.code
	case errors.Is(err, core.ErrInvalidInput):
		return http.StatusBadRequest, serve.CodeInvalidInput
	case r.Context().Err() != nil:
		return http.StatusGatewayTimeout, serve.CodeTimeout
	default:
		return http.StatusInternalServerError, serve.CodeInternal
	}
}

func (h *handler) decode(w http.ResponseWriter, r *http.Request) {
	req, err := serve.ReadDecodeRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, serve.CodeBadRequest, err)
		return
	}
	if len(req.Frames) > 0 {
		h.decodeBatch(w, r, req.Frames)
		return
	}
	resp, err := h.p.Decode(r.Context(), &req)
	if err != nil {
		status, code := decodeStatus(r, err)
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchDecodeResult is one frame's outcome inside a BatchDecodeResponse.
type BatchDecodeResult struct {
	*DecodeResponse
	Error string `json:"error,omitempty"`
}

// BatchDecodeResponse answers the batch form of POST /v1/decode.
type BatchDecodeResponse struct {
	APIVersion string              `json:"api_version"`
	Results    []BatchDecodeResult `json:"results"`
}

// decodeBatch fans the frames out concurrently; each routes independently,
// since different channels hash to different shards.
func (h *handler) decodeBatch(w http.ResponseWriter, r *http.Request, frames []serve.DecodeRequest) {
	results := make([]BatchDecodeResult, len(frames))
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := h.p.Decode(r.Context(), &frames[i])
			if err != nil {
				results[i] = BatchDecodeResult{Error: err.Error()}
				return
			}
			results[i] = BatchDecodeResult{DecodeResponse: resp}
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchDecodeResponse{APIVersion: serve.APIVersion, Results: results})
}

func (h *handler) config(w http.ResponseWriter, _ *http.Request) {
	h.p.mu.RLock()
	shards := append([]string(nil), h.p.ring.Shards()...)
	h.p.mu.RUnlock()
	writeJSON(w, http.StatusOK, ConfigInfo{
		APIVersion: serve.APIVersion,
		Backend:    "cluster-proxy",
		TxAntennas: h.p.cfg.Fallback.Tx,
		RxAntennas: h.p.cfg.Fallback.Rx,
		Modulation: h.p.cfg.Fallback.Modulation,
		Replicas:   h.p.cfg.Replicas,
		Routing:    h.p.cfg.Routing.String(),
		Shards:     shards,
	})
}

// ShardPolicyResult is one shard's outcome in a proxy policy fan-out:
// the shard's own /v1/policy body, or the error that kept it from answering.
type ShardPolicyResult struct {
	URL    string          `json:"url"`
	Policy json.RawMessage `json:"policy,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// PolicyFanoutResponse answers proxy GET/PUT /v1/policy: per-shard decode-
// policy state in ring order. The proxy holds no policy of its own — the
// DecodePolicy lives on the shards; the proxy is a broadcast/aggregate pane.
type PolicyFanoutResponse struct {
	APIVersion string              `json:"api_version"`
	Shards     []ShardPolicyResult `json:"shards"`
}

// policyFanout performs one policy exchange (method, optional body) against
// every shard concurrently and reports per-shard outcomes in ring order,
// whether every shard answered 200, and whether every shard refused the
// request with a 4xx.
func (h *handler) policyFanout(ctx context.Context, method string, body []byte) (out PolicyFanoutResponse, allOK, allRefused bool) {
	h.p.mu.RLock()
	ids := append([]string(nil), h.p.ring.Shards()...)
	shards := make([]*shard, len(ids))
	for i, id := range ids {
		shards[i] = h.p.shards[id]
	}
	h.p.mu.RUnlock()

	out = PolicyFanoutResponse{APIVersion: serve.APIVersion, Shards: make([]ShardPolicyResult, len(ids))}
	allOK = true
	refused := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := range ids {
		res := &out.Shards[i]
		res.URL = ids[i]
		sh := shards[i]
		if sh == nil {
			res.Error = "shard departed"
			allOK = false
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rd io.Reader
			if body != nil {
				rd = bytes.NewReader(body)
			}
			req, err := http.NewRequestWithContext(ctx, method, sh.id+"/v1/policy", rd)
			if err != nil {
				res.Error = err.Error()
				mu.Lock()
				allOK = false
				mu.Unlock()
				return
			}
			if body != nil {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := sh.httpc.Do(req)
			if err != nil {
				res.Error = err.Error()
				mu.Lock()
				allOK = false
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			if err != nil {
				res.Error = err.Error()
			} else if resp.StatusCode != http.StatusOK {
				res.Error = fmt.Sprintf("shard answered %d: %s", resp.StatusCode, raw)
				if resp.StatusCode >= 400 && resp.StatusCode < 500 {
					mu.Lock()
					refused++
					mu.Unlock()
				}
			} else if json.Valid(raw) {
				res.Policy = json.RawMessage(raw)
				return
			} else {
				res.Error = "shard answered non-JSON body"
			}
			mu.Lock()
			allOK = false
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, allOK, len(ids) > 0 && refused == len(ids)
}

// policyGet aggregates every shard's live decode-policy state.
func (h *handler) policyGet(w http.ResponseWriter, r *http.Request) {
	out, _, _ := h.policyFanout(r.Context(), http.MethodGet, nil)
	writeJSON(w, http.StatusOK, out)
}

// policyPut broadcasts a policy change to every shard. A malformed body fails
// fast without touching any shard. The policy spelling itself is vetted by
// each shard, relative to the engine it serves, so the proxy gives the verdict
// a shard would: 400 when every shard refuses it, and 502 with per-shard
// outcomes when only some shards moved.
func (h *handler) policyPut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, serve.CodeBadRequest, err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var upd serve.PolicyUpdate
	if err := dec.Decode(&upd); err != nil {
		writeError(w, http.StatusBadRequest, serve.CodeBadRequest, fmt.Errorf("malformed request body: %w", err))
		return
	}
	out, allOK, allRefused := h.policyFanout(r.Context(), http.MethodPut, body)
	code := http.StatusOK
	switch {
	case allRefused:
		code = http.StatusBadRequest
	case !allOK:
		code = http.StatusBadGateway
	}
	writeJSON(w, code, out)
}

func (h *handler) listShards(w http.ResponseWriter, _ *http.Request) {
	_, rep := h.p.Health()
	writeJSON(w, http.StatusOK, rep.Shards)
}

func (h *handler) join(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
		writeError(w, http.StatusBadRequest, serve.CodeBadRequest,
			errors.New(`join needs a JSON body like {"url": "http://host:port"}`))
		return
	}
	moved, err := h.p.Join(req.URL)
	if err != nil {
		writeError(w, http.StatusConflict, serve.CodeBadRequest, err)
		return
	}
	h.p.mu.RLock()
	shards := append([]string(nil), h.p.ring.Shards()...)
	h.p.mu.RUnlock()
	writeJSON(w, http.StatusOK, MembershipResponse{URL: req.URL, Moved: moved, Shards: shards})
}

func (h *handler) leave(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		writeError(w, http.StatusBadRequest, serve.CodeBadRequest,
			errors.New("leave needs ?url=http://host:port"))
		return
	}
	// Drain patiently but within the request's own lifetime.
	ctx := r.Context()
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.p.cfg.AttemptTimeout*2)
		defer cancel()
	}
	moved, err := h.p.Leave(ctx, url)
	if err != nil {
		writeError(w, http.StatusNotFound, serve.CodeBadRequest, err)
		return
	}
	h.p.mu.RLock()
	shards := append([]string(nil), h.p.ring.Shards()...)
	h.p.mu.RUnlock()
	writeJSON(w, http.StatusOK, MembershipResponse{URL: url, Moved: moved, Shards: shards})
}

func (h *handler) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.p.Stats())
}

// healthz serves the graded cluster report. ok, degraded, and partitioned
// answer 200 — the proxy is still answering every frame, possibly via
// failover or the local fallback; only a fully unreachable cluster (all
// traffic on the fallback floor) answers 503.
func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	state, report := h.p.Health()
	code := http.StatusOK
	if state == StateUnhealthy {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, report)
}
