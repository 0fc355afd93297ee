package server

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"waterwise/internal/obs"
	"waterwise/internal/tsdb"
)

// Version identifies the build in waterwise_build_info; override at link
// time with -ldflags "-X waterwise/internal/server.Version=v1.2.3".
var Version = "dev"

// RecordConfig configures the metrics flight recorder: when enabled the
// server scrapes its own /metrics exposition at the end of each
// scheduling round into an in-process time-series store (internal/tsdb),
// making windowed rate/increase/quantile queries and burn-rate SLO alerts
// available over recorded history via /v1/query and /v1/alerts.
//
// Like the observability layer it is measurement only: recording never
// feeds back into scheduling (TestRecorderEquivalence pins this).
type RecordConfig struct {
	// Enable turns the recorder on.
	Enable bool
	// MemoryBudgetBytes bounds the compressed store (default 8 MiB);
	// oldest windows are evicted beyond it, counted in
	// waterwise_tsdb_evicted_chunks_total.
	MemoryBudgetBytes int
	// MinInterval floors the wall-clock spacing of async scrapes (see
	// tsdb.Config.MinInterval): an accelerated run's rounds can outpace
	// any scraper, and the floor keeps recording at a few Hz instead of
	// per-round. Zero means no floor; ignored in Sync mode.
	MinInterval time.Duration
	// Sync scrapes inline on the round loop's goroutine, making recorded
	// history deterministic round for round — what scenarios and tests
	// want. The default async mode hands rounds to a scraper goroutine
	// that coalesces under pressure, keeping the round loop's added cost
	// to an atomic store.
	Sync bool
	// SLOs arms the burn-rate alert engine (see tsdb.Objective).
	SLOs []tsdb.Objective
	// Logf receives alert transitions and scrape failures; nil disables.
	Logf func(format string, args ...any)
}

// NewRecorder builds a flight recorder that scrapes the exposition gather
// renders — a server's own, or the fleet gateway's merged one.
func (c RecordConfig) NewRecorder(gather func() []byte) (*tsdb.Recorder, error) {
	return tsdb.New(tsdb.Config{
		Gather:            gather,
		MemoryBudgetBytes: c.MemoryBudgetBytes,
		MinInterval:       c.MinInterval,
		Sync:              c.Sync,
		Objectives:        c.SLOs,
		Logf:              c.Logf,
	})
}

// Recorder exposes the flight recorder for queries; nil when recording is
// disabled.
func (s *Server) Recorder() *tsdb.Recorder { return s.recorder }

// notifyRound runs the end-of-round hooks — the recorder scrape and the
// owner's OnRound callback. Called by the round loops with mu released:
// the recorder's gather path re-enters Status, and holding mu here would
// deadlock (and would bill scrape time to the scheduling lock).
func (s *Server) notifyRound(rounds uint64) {
	if s.recorder != nil {
		s.recorder.Observe(rounds)
	}
	if s.cfg.OnRound != nil {
		s.cfg.OnRound(rounds)
	}
}

// AppendBuildInfo renders the waterwise_build_info gauge: constant 1 with
// the build identity as labels, the standard Prometheus idiom for joining
// version metadata onto any other series.
func AppendBuildInfo(b []byte) []byte {
	const name = "waterwise_build_info"
	b = obs.AppendHeader(b, name, "gauge", "Build identity (constant 1; the labels carry the information).")
	labels := "version=" + strconv.Quote(Version) +
		",goversion=" + strconv.Quote(runtime.Version()) +
		",gomaxprocs=" + strconv.Quote(strconv.Itoa(runtime.GOMAXPROCS(0)))
	return obs.AppendSample(b, name, labels, 1)
}

// QueryResponse is the GET /v1/query reply.
type QueryResponse struct {
	Series string `json:"series"`
	// Fn echoes the evaluated function: raw, rate, increase, or quantile.
	Fn string `json:"fn"`
	// Window and End are in rounds (End 0 = latest recorded).
	Window uint64 `json:"window,omitempty"`
	End    uint64 `json:"end,omitempty"`
	// Samples holds the raw series for fn=raw.
	Samples []tsdb.Sample `json:"samples,omitempty"`
	// Value holds the scalar result for rate/increase/quantile; Ok is
	// false when the window held no data.
	Value float64 `json:"value"`
	Ok    bool    `json:"ok"`
	Error string  `json:"error,omitempty"`
}

// AlertsResponse is the GET /v1/alerts reply.
type AlertsResponse struct {
	// Round is the newest recorded round the states are current as of.
	Round  uint64       `json:"round"`
	Firing int          `json:"firing"`
	Alerts []tsdb.Alert `json:"alerts"`
}

// serveQuery is GET /v1/query over the flight recorder. Parameters:
//
//	series  — series reference: a family name or name{label="v",...}
//	fn      — raw (default) | rate | increase | quantile
//	window  — window length in rounds (required for non-raw fns)
//	q       — quantile in [0,1] (fn=quantile)
//	end     — window end round (default: latest recorded)
//	from,to — raw-sample bounds (fn=raw)
func (be *Backend) serveQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteJSON(w, http.StatusMethodNotAllowed, QueryResponse{Error: "GET only"})
		return
	}
	rr := be.Recorder()
	if rr == nil {
		WriteJSON(w, http.StatusNotFound, QueryResponse{Error: "recording disabled (enable with -record-metrics)"})
		return
	}
	q := r.URL.Query()
	resp := QueryResponse{Series: q.Get("series"), Fn: q.Get("fn")}
	if resp.Series == "" {
		WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "missing series parameter"})
		return
	}
	if resp.Fn == "" {
		resp.Fn = "raw"
	}
	parseU := func(name string) (uint64, bool) {
		v := q.Get(name)
		if v == "" {
			return 0, true
		}
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad " + name})
			return 0, false
		}
		return u, true
	}
	var ok bool
	if resp.Window, ok = parseU("window"); !ok {
		return
	}
	if resp.End, ok = parseU("end"); !ok {
		return
	}
	if resp.Fn != "raw" && resp.Window == 0 {
		WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "window is required for " + resp.Fn})
		return
	}
	switch resp.Fn {
	case "raw":
		from, ok := parseU("from")
		if !ok {
			return
		}
		to, ok := parseU("to")
		if !ok {
			return
		}
		resp.Samples = rr.Query(resp.Series, from, to)
		resp.Ok = len(resp.Samples) > 0
	case "rate":
		resp.Value, resp.Ok = rr.Rate(resp.Series, resp.Window, resp.End)
	case "increase":
		resp.Value, resp.Ok = rr.Increase(resp.Series, resp.Window, resp.End)
	case "quantile":
		quant := 0.99
		if v := q.Get("q"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad q"})
				return
			}
			quant = f
		}
		resp.Value, resp.Ok = rr.Quantile(resp.Series, quant, resp.Window, resp.End)
	default:
		WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "fn must be raw, rate, increase, or quantile"})
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// serveAlerts is GET /v1/alerts: the burn-rate SLO alert states.
func (be *Backend) serveAlerts(w http.ResponseWriter, r *http.Request) {
	rr := be.Recorder()
	if rr == nil {
		WriteJSON(w, http.StatusNotFound, SubmitResponse{Error: "recording disabled (enable with -record-metrics)"})
		return
	}
	alerts := rr.Alerts()
	firing := 0
	for _, a := range alerts {
		if a.Firing {
			firing++
		}
	}
	WriteJSON(w, http.StatusOK, AlertsResponse{Round: rr.LastRound(), Firing: firing, Alerts: alerts})
}
