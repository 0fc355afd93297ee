package transport

import "time"

// Stats is a scheduler's solver accounting across rounds, the
// decision-overhead breakdown of the paper's Fig. 13. Nodes, SimplexIters,
// WarmStarts and ColdStarts count branch-and-bound and simplex work, which
// internal/milp reports (milp.Stats is this type); a scheduler that solves
// its rounds with this package does neither, so it records Wall alone and
// the counts read 0.
type Stats struct {
	// Nodes is the number of branch-and-bound nodes whose LP relaxation
	// was solved.
	Nodes int
	// SimplexIters is the total simplex pivot count across all LP solves.
	SimplexIters int
	// WarmStarts counts LP solves served by a dual-simplex warm start.
	WarmStarts int
	// ColdStarts counts LP solves that ran the two-phase method from
	// scratch (the root, plus any warm-start fallbacks).
	ColdStarts int
	// Wall is the wall-clock solve time.
	Wall time.Duration
}

// WarmStartHitRate is the fraction of LP solves served by a warm start.
func (s Stats) WarmStartHitRate() float64 {
	total := s.WarmStarts + s.ColdStarts
	if total == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(total)
}

// Add accumulates other into s (for cross-round aggregation).
func (s *Stats) Add(other Stats) {
	s.Nodes += other.Nodes
	s.SimplexIters += other.SimplexIters
	s.WarmStarts += other.WarmStarts
	s.ColdStarts += other.ColdStarts
	s.Wall += other.Wall
}
