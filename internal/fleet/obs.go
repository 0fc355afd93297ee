package fleet

import (
	"sort"

	"waterwise/internal/obs"
	"waterwise/internal/server"
)

// ObsSnapshots returns the fleet-merged histogram counters: every
// shard's snapshots summed bucket-by-bucket (the merge the bucketing
// scheme was designed for — all histograms share one boundary set, so
// addition is exact), plus the gateway's own ingest histogram.
func (f *Fleet) ObsSnapshots() *server.ObsSnapshots {
	merged := &server.ObsSnapshots{}
	for _, s := range f.shardList() {
		merged.Merge(s.ObsSnapshots())
	}
	// Jobs enter through the gateway, so its ingest histogram joins the
	// (shard-HTTP-only) shard ingest counters.
	merged.Ingest.Merge(f.ingest.Snapshot())
	return merged
}

// SlowestRounds returns the slowest scheduling rounds across every
// shard, slowest first, each stamped with its owning shard — the
// fleet's /v1/rounds/slowest view, bounded to the exemplar count each
// shard retains.
func (f *Fleet) SlowestRounds() []server.RoundTraceWire {
	return f.mergedRounds((*server.Server).SlowestRounds, obs.DefaultSlowestRounds,
		func(a, b *server.RoundTraceWire) bool { return a.TotalMs > b.TotalMs })
}

// RecentRounds returns up to n of the fleet's latest rounds, newest
// first across shards (n <= 0 means every retained round).
func (f *Fleet) RecentRounds(n int) []server.RoundTraceWire {
	return f.mergedRounds(func(s *server.Server) []obs.RoundTrace { return s.RecentRounds(n) }, n,
		func(a, b *server.RoundTraceWire) bool { return a.Wall.After(b.Wall) })
}

// mergedRounds gathers every shard's traces in wire form, orders them by
// before and keeps the first max (max <= 0 keeps all).
func (f *Fleet) mergedRounds(fetch func(*server.Server) []obs.RoundTrace, max int,
	before func(a, b *server.RoundTraceWire) bool) []server.RoundTraceWire {
	out := []server.RoundTraceWire{}
	for i, s := range f.shardList() {
		shard := i
		out = append(out, server.WireRoundTraces(fetch(s), &shard)...)
	}
	sort.Slice(out, func(i, j int) bool { return before(&out[i], &out[j]) })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// JobTrace scans the shards for a sampled job's lifecycle trace —
// the fleet's /v1/jobs/{id}/trace view. Job ids are fleet-unique, so at
// most one shard answers.
func (f *Fleet) JobTrace(id int) (server.JobTraceResponse, bool) {
	for i, s := range f.shardList() {
		if jt, ok := s.JobTrace(id); ok {
			shard := i
			return server.JobTraceResponse{
				Shard: &shard, Trace: jt, SampleEvery: s.JobSampleEvery(),
			}, true
		}
	}
	return server.JobTraceResponse{}, false
}
