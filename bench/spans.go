package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
// Start and End are nanoseconds since the log's origin; Parent is the index
// of the span that caused this one (-1 for a root); ID ties together the
// spans of one iteration, frame or job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is the
// untraced run: every method is a no-op, so call sites need no branches.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its index, to be passed to end (and to
// children as their parent).
func (l *spanLog) begin(name string, parent int, id int64) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	i := len(l.spans) - 1
	l.mu.Unlock()
	return i
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// add records an already-measured interval (used where the benchmark times
// the call anyway, so the traced and untraced runs share one clock read).
func (l *spanLog) add(name string, parent int, id int64, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	s := int64(start.Sub(l.origin))
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, ID: id})
	l.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its direct children cover (overlapping children are merged
// first, so concurrent children are not subtracted twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k[0], edge), min(k[1], s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write dumps the spans as JSON to dir/trace-<workload>.json.
func (l *spanLog) write(dir, workload string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
