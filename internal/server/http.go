package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
	"unicode"
)

// isJSONArray reports whether the body's first non-space byte opens an array.
func isJSONArray(body []byte) bool {
	for _, b := range body {
		if unicode.IsSpace(rune(b)) {
			continue
		}
		return b == '['
	}
	return false
}

// decodeJobSpecs decodes a POST /v1/jobs body: a single JobSpec object or
// an array of them.
func decodeJobSpecs(body []byte) ([]JobSpec, error) {
	if isJSONArray(body) {
		var specs []JobSpec
		if err := json.Unmarshal(body, &specs); err != nil {
			return nil, fmt.Errorf("decoding jobs: %w", err)
		}
		return specs, nil
	}
	var one JobSpec
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, fmt.Errorf("decoding job: %w", err)
	}
	return []JobSpec{one}, nil
}

// API paths served by Handler.
const (
	PathJobs      = "/v1/jobs"
	PathDecisions = "/v1/decisions"
	PathStatus    = "/v1/status"
	PathMetrics   = "/metrics"
	// PathRounds serves the slowest scheduling rounds' stage breakdowns;
	// /v1/jobs/{id}/trace (under PathJobs) serves sampled job lifecycles.
	PathRounds = "/v1/rounds/slowest"
	// PathQuery and PathAlerts serve the metrics flight recorder: windowed
	// queries over recorded series and burn-rate SLO alert states. 404
	// unless recording is enabled (RecordConfig / -record-metrics).
	PathQuery  = "/v1/query"
	PathAlerts = "/v1/alerts"
)

// SubmitResponse is the POST /v1/jobs reply.
type SubmitResponse struct {
	Accepted []int  `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

// DecisionsResponse is the GET /v1/decisions reply.
type DecisionsResponse struct {
	Decisions []MergedDecision `json:"decisions"`
	// Next is the cursor to pass as ?since= on the next poll.
	Next uint64 `json:"next"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs             — submit one JobSpec or an array of them
//	GET  /v1/decisions        — merged decision log; ?since=<seq>&limit=<n>
//	GET  /v1/status           — service snapshot
//	GET  /metrics             — Prometheus text metrics
//	GET  /v1/rounds/slowest   — slowest rounds' stage breakdowns; ?recent=<n>
//	GET  /v1/jobs/{id}/trace  — sampled job lifecycle trace
//	GET  /v1/query            — windowed queries over recorded metrics history
//	GET  /v1/alerts           — burn-rate SLO alert states
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathJobs, s.serveJobs)
	mux.HandleFunc(PathDecisions, getOnly(s.serveDecisions))
	mux.HandleFunc(PathStatus, getOnly(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	}))
	mux.HandleFunc(PathMetrics, s.serveMetrics)
	mux.HandleFunc(PathRounds, getOnly(s.serveRounds))
	mux.HandleFunc(PathJobs+"/", getOnly(s.serveJobTrace))
	mux.HandleFunc(PathQuery, s.serveQuery)
	mux.HandleFunc(PathAlerts, getOnly(s.serveAlerts))
	return mux
}

func (s *Server) serveDecisions(w http.ResponseWriter, r *http.Request) {
	since, limit, err := parseDecisionsQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: err.Error()})
		return
	}
	resp := DecisionsResponse{Decisions: s.Decisions(since, limit), Next: since}
	if n := len(resp.Decisions); n > 0 {
		resp.Next = resp.Decisions[n-1].Seq
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.MetricsText())
}

// getOnly answers anything but GET with 405 and an Allow header.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeJSON(w, http.StatusMethodNotAllowed, SubmitResponse{Error: "GET only"})
			return
		}
		h(w, r)
	}
}

// writeJSON writes v as a JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// parseDecisionsQuery parses GET /v1/decisions' since/limit parameters.
func parseDecisionsQuery(q url.Values) (since uint64, limit int, err error) {
	if v := q.Get("since"); v != "" {
		since, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, errors.New("bad since")
		}
	}
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return 0, 0, errors.New("bad limit")
		}
	}
	return since, limit, nil
}

// serveJobs is POST /v1/jobs: 16 MiB body cap, single-or-array decode,
// per-job submit loop with partial-accept reply, typed status mapping.
// The ingest histogram times the whole request, outside any lock.
func (s *Server) serveJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, SubmitResponse{Error: "POST only"})
		return
	}
	defer func(t0 time.Time) { s.ingest.Record(time.Since(t0).Seconds()) }(time.Now())
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: fmt.Sprintf("reading body: %v", err)})
		return
	}
	specs, err := decodeJobSpecs(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: err.Error()})
		return
	}
	ids := make([]int, 0, len(specs))
	for _, spec := range specs {
		id, err := s.Submit(spec)
		if err != nil {
			writeJSON(w, submitErrorStatus(err), SubmitResponse{Accepted: ids, Error: err.Error()})
			return
		}
		ids = append(ids, id)
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{Accepted: ids})
}

// submitErrorStatus maps a Submit rejection to its HTTP status. The typed
// ingest errors get distinct codes — 429 backpressure, 503 stopped, 409
// duplicate id, 404 unroutable home region — and anything else (bad
// benchmark, out-of-horizon instant, malformed spec) is the client's 400.
func submitErrorStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrStopped):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownRegion):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}
