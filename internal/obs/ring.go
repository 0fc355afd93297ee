package obs

import (
	"sort"
	"sync"
	"time"
)

// Stage identifies one phase of a scheduling round in a RoundTrace's
// breakdown. The stages partition the round's wall time: batch assembly
// (popping due arrivals into the simulator), the solve (scheduler
// invocation plus decision commit), the WAL append and fsync of the
// round record, any snapshot the round triggered, and publishing the
// decisions into the log ring.
type Stage int

// The round stages, in execution order.
const (
	StageIngest Stage = iota // batch assembly: due arrivals into the simulator
	StageSolve               // scheduler invocation + decision commit (Fig. 13's overhead)
	StageWALAppend
	StageWALFsync
	StageSnapshot
	StagePublish // decision-ring append + lifecycle trace stamping
	NumStages
)

// String names the stage for labels and JSON.
func (st Stage) String() string {
	switch st {
	case StageIngest:
		return "ingest"
	case StageSolve:
		return "solve"
	case StageWALAppend:
		return "wal_append"
	case StageWALFsync:
		return "wal_fsync"
	case StageSnapshot:
		return "snapshot"
	case StagePublish:
		return "publish"
	default:
		return "unknown"
	}
}

// RoundTrace is the record of one scheduling round: when it ran, how
// long each stage took, and what the solver did — enough to answer
// "which stage made this round slow" after the fact.
type RoundTrace struct {
	// Index is the round index k (rounds fire at Env.Start + k*Round).
	Index int64 `json:"index"`
	// Sim is the round's simulated instant; Wall is when it ran.
	Sim  time.Time `json:"sim"`
	Wall time.Time `json:"wall"`
	// Total is the round's wall duration (the sum of the stages plus
	// loop overhead).
	Total time.Duration `json:"total_ns"`
	// Stages holds the per-stage wall durations, indexed by Stage.
	Stages [NumStages]time.Duration `json:"stages_ns"`
	// Batch and Decided count the jobs offered to and placed by the
	// round's solve.
	Batch   int `json:"batch"`
	Decided int `json:"decided"`
	// Nodes and SimplexIters are the round's branch-and-bound node and
	// simplex pivot deltas; WarmStarts/ColdStarts its LP solve mix.
	// All zero when the scheduler exposes no solver stats.
	Nodes        int `json:"nodes"`
	SimplexIters int `json:"simplex_iters"`
	WarmStarts   int `json:"warm_starts"`
	ColdStarts   int `json:"cold_starts"`
}

// RoundRing retains the most recent rounds' traces in a bounded ring
// plus the slowest-N rounds ever seen (by Total) as exemplars, so a tail
// round remains inspectable after thousands of fast rounds have cycled
// the ring. One Record per round, so a plain mutex is cheap here; the
// hot per-observation path is Histogram, not the ring.
type RoundRing struct {
	mu      sync.Mutex
	recent  []RoundTrace
	head    int
	cap     int
	slowest []RoundTrace // sorted fastest-first, so [0] is the eviction edge
	slowCap int
}

// DefaultSlowestRounds is the slowest-round exemplar count a ring keeps
// unless told otherwise; the fleet bounds its merged view to the same.
const DefaultSlowestRounds = 32

// NewRoundRing builds a ring retaining the last size rounds and the
// slowN slowest exemplars (size and slowN default to 1024 and
// DefaultSlowestRounds when non-positive).
func NewRoundRing(size, slowN int) *RoundRing {
	if size <= 0 {
		size = 1024
	}
	if slowN <= 0 {
		slowN = DefaultSlowestRounds
	}
	return &RoundRing{cap: size, slowCap: slowN}
}

// Record stores one round's trace.
func (r *RoundRing) Record(rt RoundTrace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recent) < r.cap {
		r.recent = append(r.recent, rt)
	} else {
		r.recent[r.head] = rt
		r.head = (r.head + 1) % r.cap
	}
	if len(r.slowest) < r.slowCap {
		r.slowest = append(r.slowest, rt)
		sort.Slice(r.slowest, func(i, j int) bool { return r.slowest[i].Total < r.slowest[j].Total })
		return
	}
	if rt.Total <= r.slowest[0].Total {
		return
	}
	// Displace the fastest exemplar and re-insert in order (slowCap is
	// small, so the shift is a handful of moves).
	i := sort.Search(len(r.slowest), func(i int) bool { return r.slowest[i].Total > rt.Total })
	copy(r.slowest, r.slowest[1:i])
	r.slowest[i-1] = rt
}

// Recent returns up to n of the latest rounds, newest first (n <= 0
// means all retained).
func (r *RoundRing) Recent(n int) []RoundTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	total := len(r.recent)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]RoundTrace, n)
	for i := 0; i < n; i++ {
		// Newest entry sits just before head once wrapped.
		out[i] = r.recent[((r.head-1-i)+2*total)%total]
	}
	return out
}

// Slowest returns the slowest-N exemplars, slowest first.
func (r *RoundRing) Slowest() []RoundTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RoundTrace, len(r.slowest))
	for i := range out {
		out[i] = r.slowest[len(r.slowest)-1-i]
	}
	return out
}
