package fleet

import (
	"fmt"

	"waterwise/internal/server"
)

// fleetFamilies defines the gateway's own families — merge accounting and
// supervision — in the same table shape as the per-server ones
// (server.Family), over the fleet Status.
var fleetFamilies = []server.Family[Status]{
	{Name: "waterwise_fleet_shards", Type: "gauge", Help: "Scheduler shards behind this gateway.",
		Samples: func(st *Status, emit func(string, float64)) { emit("", float64(st.Shards)) }},
	{Name: "waterwise_fleet_merged_decisions_total", Type: "counter", Help: "Decisions emitted into the merged global stream.",
		Samples: func(st *Status, emit func(string, float64)) { emit("", float64(st.Merged)) }},
	{Name: "waterwise_fleet_lost_decisions_total", Type: "counter", Help: "Decisions evicted from a shard ring before the merge read them.",
		Samples: func(st *Status, emit func(string, float64)) { emit("", float64(st.Lost)) }},
	{Name: "waterwise_fleet_restarts_total", Type: "counter", Help: "Supervisor-driven shard restarts.",
		Samples: func(st *Status, emit func(string, float64)) {
			if st.Supervisor != nil {
				emit("", float64(st.Supervisor.Restarts))
			}
		}},
	{Name: "waterwise_fleet_shard_up", Type: "gauge", Help: "1 while the shard's round loop is serving, 0 while dead or restarting.",
		Samples: func(st *Status, emit func(string, float64)) {
			if st.Supervisor == nil {
				return
			}
			for _, ss := range st.Supervisor.Shards {
				up := 0.0
				if ss.State == "up" {
					up = 1
				}
				emit(shardLabel(ss.Shard), up)
			}
		}},
}

func shardLabel(shard int) string { return fmt.Sprintf("shard=\"%d\"", shard) }

// MetricsText renders the fleet exposition as bytes — what the gateway's
// /metrics serves and the fleet-level flight recorder scrapes in-process
// on the shards' round clock: the gateway's own families, then every
// family a single waterwised exports, labeled by shard. Labeling (rather
// than summing) keeps a hot shard visible — the operator's question for
// a sharded deployment is "which shard is behind", not just "how many
// decisions total"; sums are one PromQL aggregation away.
func (f *Fleet) MetricsText() []byte {
	st := f.Status()
	b := server.AppendBuildInfo(nil)
	b = server.AppendFamilies(b, fleetFamilies, []server.Source[Status]{{Status: &st}})
	shards := make([]server.Source[server.Status], len(st.ShardStatus))
	for i := range st.ShardStatus {
		ss := &st.ShardStatus[i]
		shards[i] = server.Source[server.Status]{Label: shardLabel(ss.Shard), Status: &ss.Status}
	}
	b = server.AppendStatusMetrics(b, shards)
	// Latency histograms twice over: the per-server families labeled by
	// shard (which shard's solve is slow), then the shard-merged
	// fleet-level distributions (what a client of the gateway sees) —
	// exact sums, since every histogram shares one bucket scheme. Shard 0
	// carries the headers.
	for i, s := range f.shardList() {
		b = server.AppendObsMetrics(b, s.ObsSnapshots(), "waterwise_", shardLabel(i), i == 0)
	}
	b = server.AppendObsMetrics(b, f.ObsSnapshots(), "waterwise_fleet_", "", true)
	// One feed block, not one per shard: every shard reads the same
	// provider through its partition view, so per-shard labels would just
	// repeat one health record N times.
	b = server.AppendFeedMetrics(b, st.Feed)
	if f.recorder != nil {
		b = f.recorder.AppendMetrics(b, "waterwise_")
	}
	return b
}
