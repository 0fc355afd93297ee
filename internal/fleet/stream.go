package fleet

import (
	"net"

	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/wire"
)

// The fleet gateway speaks the same wire protocol as a single server:
// submits fan out to shards by home region through the usual routing
// (including dead-shard buffering), and pushed decisions come from the
// k-way-merged global stream, so clients see one dense seq space with
// shard coordinates attached.

// StreamDecisions implements server.StreamBackend over the merged
// global decision stream.
func (f *Fleet) StreamDecisions(since uint64, limit int, dst []wire.Decision) []wire.Decision {
	page := f.Decisions(since, limit)
	for i := range page {
		d := &page[i]
		dst = append(dst, server.WireDecision(d.Decision, uint32(d.Shard), d.ShardSeq))
	}
	return dst
}

// StreamInfo implements server.StreamBackend: merged-log bounds plus
// the full fleet region set.
func (f *Fleet) StreamInfo() (last, oldest uint64, regions []region.ID) {
	f.mu.Lock()
	f.mergeLocked()
	last, oldest = f.seq, f.merged.Oldest()
	f.mu.Unlock()
	return last, oldest, f.cfg.Env.IDs()
}

// ServeStream starts a stream listener for this fleet's gateway on ln.
func (f *Fleet) ServeStream(ln net.Listener, opts server.StreamOptions) *server.StreamListener {
	return server.NewStreamListener(ln, f, opts)
}
