// Command metricsdoc generates METRICS.md, the reference for every
// metric family the service exposes, straight from the exposition
// itself: it boots a durable two-shard service in-process —
// flight recorder and SLO engine armed so their self-metrics render —
// gathers its /metrics body through the same strict parser the lint tests
// use, and emits one sorted table of name, type, labels, and HELP text.
// Generating from a live exposition rather than a hand-kept list means
// the doc cannot silently drift: a new family shows up on the next run,
// and TestMetricsDocUpToDate fails when the committed file no longer
// matches.
//
// Usage:
//
//	metricsdoc -out METRICS.md    # (re)write the reference
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/core"
	"waterwise/internal/energy"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/tsdb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metricsdoc:", err)
		os.Exit(1)
	}
}

// row is one documented family.
type row struct {
	name, typ, help string
	labels          map[string]bool
}

func run() error {
	out := flag.String("out", "", "write the generated reference to this file")
	flag.Parse()
	if *out == "" {
		return errors.New("-out is required")
	}
	doc, err := generate()
	if err != nil {
		return err
	}
	return os.WriteFile(*out, doc, 0o644)
}

// generate boots the service and renders the table.
func generate() ([]byte, error) {
	text, err := exposition()
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseProm(text)
	if err != nil {
		return nil, fmt.Errorf("exposition: %w", err)
	}
	rows := map[string]*row{}
	for name, fam := range fams {
		r := &row{name: name, typ: fam.Type, help: fam.Help, labels: map[string]bool{}}
		for _, s := range fam.Samples {
			for k := range s.Labels {
				if k != "le" { // bucket edges are structure, not identity
					r.labels[k] = true
				}
			}
		}
		rows[name] = r
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)

	var b bytes.Buffer
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("Every metric family the service exposes on `/metrics`, generated from\n")
	b.WriteString("a live exposition by `cmd/metricsdoc`. Do not edit by hand — regenerate\n")
	b.WriteString("with `go run ./cmd/metricsdoc -out METRICS.md`; CI fails when this file\n")
	b.WriteString("drifts from what a booted daemon actually serves.\n\n")
	b.WriteString("One `waterwised` exposes every family at any `-shards` count. Per-shard\n")
	b.WriteString("families carry a `shard` label; the `waterwise_fleet_` families are the\n")
	b.WriteString("service's own: shard count, merge accounting, failover, and the latency\n")
	b.WriteString("histograms merged over the shards. WAL families need `-data-dir`, and the\n")
	b.WriteString("`waterwise_tsdb_`/`waterwise_alerts_` families `-record-metrics`.\n")
	b.WriteString("Histograms expose `_bucket`/`_sum`/`_count` series with\n")
	b.WriteString("one shared bucket scheme, so cross-shard sums are exact merges.\n\n")
	b.WriteString("| Metric | Type | Labels | Help |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, name := range names {
		r := rows[name]
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n",
			r.name, r.typ, setList(r.labels, "—"), strings.ReplaceAll(r.help, "|", "\\|"))
	}
	fmt.Fprintf(&b, "\n%d families.\n", len(names))
	return b.Bytes(), nil
}

func setList(set map[string]bool, empty string) string {
	if len(set) == 0 {
		return empty
	}
	items := make([]string, 0, len(set))
	for k := range set {
		items = append(items, k)
	}
	sort.Strings(items)
	return strings.Join(items, ", ")
}

// docObjectives arms the SLO engine so the recorder's alert gauge and
// tsdb accounting families render with their real HELP text.
var docObjectives = []tsdb.Objective{{
	Name: "availability", Target: 0.999,
	Bad: "waterwise_jobs_rejected_total", Good: "waterwise_jobs_accepted_total",
}}

// exposition boots a durable two-shard service with every
// optional subsystem armed — WAL, solver stats, observability, feed
// health, flight recorder — and returns its exposition.
func exposition() ([]byte, error) {
	env, err := region.NewEnvironment(region.Defaults(), energy.Table, time.Date(2023, 7, 3, 0, 0, 0, 0, time.UTC), 4, 1)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "metricsdoc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{
		Env: env, Shards: 2, Tolerance: 0.5, Round: 15 * time.Minute,
		DataDir: dir,
		NewScheduler: func(int, []region.ID) (cluster.Scheduler, error) {
			return core.New(core.DefaultConfig())
		},
		Record: &tsdb.Config{SLOs: docObjectives},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	return srv.MetricsText(), nil
}
