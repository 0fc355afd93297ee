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

	"waterwise/internal/obs"
	"waterwise/internal/tsdb"
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

// DecodeJobSpecs decodes a POST /v1/jobs body: a single JobSpec object or
// an array of them. Shared by this server's handler and the fleet gateway.
func DecodeJobSpecs(body []byte) ([]JobSpec, error) {
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

// SubmitResponse is the POST /v1/jobs reply — shared with the fleet
// gateway so clients drive a shard and a gateway with the same code.
type SubmitResponse struct {
	Accepted []int  `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

// DecisionsResponse is the GET /v1/decisions reply. Decisions holds the
// log page — []Decision from a single server, []fleet.Decision through
// the gateway.
type DecisionsResponse struct {
	Decisions interface{} `json:"decisions"`
	// Next is the cursor to pass as ?since= on the next poll.
	Next uint64 `json:"next"`
}

// Backend is what the HTTP API needs from a serving surface; a server
// and the fleet gateway each fill one in from their own methods.
type Backend struct {
	Submit func(JobSpec) (int, error)
	// Decisions returns the log page after since — []Decision from a
	// server, []fleet.Decision through the gateway — and the cursor to
	// resume from (NextCursor).
	Decisions   func(since uint64, limit int) (page interface{}, next uint64)
	Status      func() interface{}
	MetricsText func() []byte
	// SlowestRounds, RecentRounds and JobTrace serve the trace routes.
	SlowestRounds func() []RoundTraceWire
	RecentRounds  func(n int) []RoundTraceWire
	JobTrace      func(id int) (JobTraceResponse, bool)
	// Recorder returns nil when recording is off (served as 404).
	Recorder func() *tsdb.Recorder
	// Ingest records POST /v1/jobs wall time.
	Ingest *obs.Histogram
}

// NewMux mounts the service's HTTP API over a backend:
//
//	POST /v1/jobs             — submit one JobSpec or an array of them
//	GET  /v1/decisions        — decision log; ?since=<seq>&limit=<n>
//	GET  /v1/status           — service snapshot
//	GET  /metrics             — Prometheus text metrics
//	GET  /v1/rounds/slowest   — slowest rounds' stage breakdowns; ?recent=<n>
//	GET  /v1/jobs/{id}/trace  — sampled job lifecycle trace
//	GET  /v1/query            — windowed queries over recorded metrics history
//	GET  /v1/alerts           — burn-rate SLO alert states
func NewMux(be Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathJobs, be.serveJobs)
	mux.HandleFunc(PathDecisions, getOnly(be.serveDecisions))
	mux.HandleFunc(PathStatus, getOnly(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, be.Status())
	}))
	mux.HandleFunc(PathMetrics, be.serveMetrics)
	mux.HandleFunc(PathRounds, getOnly(be.serveRounds))
	mux.HandleFunc(PathJobs+"/", getOnly(be.serveJobTrace))
	mux.HandleFunc(PathQuery, be.serveQuery)
	mux.HandleFunc(PathAlerts, getOnly(be.serveAlerts))
	return mux
}

func (be *Backend) serveDecisions(w http.ResponseWriter, r *http.Request) {
	since, limit, err := ParseDecisionsQuery(r.URL.Query())
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, SubmitResponse{Error: err.Error()})
		return
	}
	page, next := be.Decisions(since, limit)
	WriteJSON(w, http.StatusOK, DecisionsResponse{Decisions: page, Next: next})
}

func (be *Backend) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(be.MetricsText())
}

// getOnly answers anything but GET with 405 and an Allow header.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteJSON(w, http.StatusMethodNotAllowed, SubmitResponse{Error: "GET only"})
			return
		}
		h(w, r)
	}
}

// NextCursor is the cursor rule every decision reader shares: resume
// behind the last decision of the page, or stay at since when the page
// is empty.
func NextCursor[D interface{ LogSeq() uint64 }](since uint64, page []D) uint64 {
	if n := len(page); n > 0 {
		return page[n-1].LogSeq()
	}
	return since
}

// Handler returns the server's HTTP API (see NewMux for the routes).
func (s *Server) Handler() http.Handler {
	return NewMux(Backend{
		Submit: s.Submit,
		Decisions: func(since uint64, limit int) (interface{}, uint64) {
			ds := s.Decisions(since, limit)
			return ds, NextCursor(since, ds)
		},
		Status:        func() interface{} { return s.Status() },
		MetricsText:   s.MetricsText,
		SlowestRounds: func() []RoundTraceWire { return WireRoundTraces(s.SlowestRounds(), nil) },
		RecentRounds:  func(n int) []RoundTraceWire { return WireRoundTraces(s.RecentRounds(n), nil) },
		JobTrace: func(id int) (JobTraceResponse, bool) {
			jt, ok := s.JobTrace(id)
			return JobTraceResponse{Trace: jt, SampleEvery: s.JobSampleEvery()}, ok
		},
		Recorder: s.Recorder,
		Ingest:   s.obs.ingest,
	})
}

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ParseDecisionsQuery parses GET /v1/decisions' since/limit parameters —
// one cursor grammar for the single server and the fleet gateway.
func ParseDecisionsQuery(q url.Values) (since uint64, limit int, err error) {
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
func (be *Backend) serveJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteJSON(w, http.StatusMethodNotAllowed, SubmitResponse{Error: "POST only"})
		return
	}
	defer func(t0 time.Time) { be.Ingest.Record(time.Since(t0).Seconds()) }(time.Now())
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, SubmitResponse{Error: fmt.Sprintf("reading body: %v", err)})
		return
	}
	specs, err := DecodeJobSpecs(body)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, SubmitResponse{Error: err.Error()})
		return
	}
	ids := make([]int, 0, len(specs))
	for _, spec := range specs {
		id, err := be.Submit(spec)
		if err != nil {
			WriteJSON(w, SubmitErrorStatus(err), SubmitResponse{Accepted: ids, Error: err.Error()})
			return
		}
		ids = append(ids, id)
	}
	WriteJSON(w, http.StatusAccepted, SubmitResponse{Accepted: ids})
}

// SubmitErrorStatus maps a Submit rejection to its HTTP status. The typed
// ingest errors get distinct codes — 429 backpressure, 503 stopped, 409
// duplicate id, 404 unroutable home region — and anything else (bad
// benchmark, out-of-horizon instant, malformed spec) is the client's 400.
// Shared by this server's own handler and the fleet gateway.
func SubmitErrorStatus(err error) int {
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
