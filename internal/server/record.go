package server

import (
	"net/http"
	"runtime"
	"strconv"

	"waterwise/internal/obs"
	"waterwise/internal/tsdb"
)

// Version identifies the build in waterwise_build_info; override at link
// time with -ldflags "-X waterwise/internal/server.Version=v1.2.3".
var Version = "dev"

// appendBuildInfo renders the waterwise_build_info gauge: constant 1 with
// the build identity as labels, the standard Prometheus idiom for joining
// version metadata onto any other series.
func appendBuildInfo(b []byte) []byte {
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
//	series  — series reference: a family name or name{label="v",...},
//	          labels in any order; fn=raw needs it to select one series
//	fn      — raw (default) | rate | increase | quantile
//	window  — window length in rounds (required for non-raw fns)
//	q       — quantile in [0,1] (fn=quantile)
//	end     — window end round (default: latest recorded)
//	from,to — raw-sample bounds (fn=raw)
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, QueryResponse{Error: "GET only"})
		return
	}
	if s.recorder == nil {
		writeJSON(w, http.StatusNotFound, QueryResponse{Error: "recording disabled (enable with -record-metrics)"})
		return
	}
	st := s.recorder.Store()
	q := r.URL.Query()
	resp := QueryResponse{Series: q.Get("series"), Fn: q.Get("fn")}
	if resp.Series == "" {
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "missing series parameter"})
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
			writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad " + name})
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
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "window is required for " + resp.Fn})
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
		samples, err := st.QueryRef(resp.Series, from, to)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, QueryResponse{Error: err.Error()})
			return
		}
		resp.Samples = samples
		resp.Ok = len(samples) > 0
	case "rate":
		resp.Value, resp.Ok = st.Rate(resp.Series, resp.Window, resp.End)
	case "increase":
		resp.Value, resp.Ok = st.Increase(resp.Series, resp.Window, resp.End)
	case "quantile":
		quant := 0.99
		if v := q.Get("q"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad q"})
				return
			}
			quant = f
		}
		resp.Value, resp.Ok = st.QuantileOver(resp.Series, quant, resp.Window, resp.End)
	default:
		writeJSON(w, http.StatusBadRequest, QueryResponse{Error: "fn must be raw, rate, increase, or quantile"})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// serveAlerts is GET /v1/alerts: the burn-rate SLO alert states.
func (s *Server) serveAlerts(w http.ResponseWriter, r *http.Request) {
	rr := s.recorder
	if rr == nil {
		writeJSON(w, http.StatusNotFound, SubmitResponse{Error: "recording disabled (enable with -record-metrics)"})
		return
	}
	alerts, firing := rr.Alerts()
	writeJSON(w, http.StatusOK, AlertsResponse{Round: rr.Store().LastRound(), Firing: firing, Alerts: alerts})
}
