package main

import (
	"sync"
	"time"
)

// matcher merges submissions and observed decisions into one latency
// sample set, keyed by job id. It is transport-agnostic: polled HTTP
// decisions and pushed stream decisions feed the same Decided path, and
// either side of a pair may arrive first — a pushed decision can beat
// the submit reply that carries its id, just as a polled decision can
// beat the POST response. Unpaired decisions are parked until the
// matching Sent arrives; decisions that never pair (another client's
// work) park harmlessly.
type matcher struct {
	mu          sync.Mutex
	sent        map[int]time.Time
	unmatched   map[int]time.Time // decided, submission not yet recorded
	lats        []float64         // latency samples, milliseconds, arrival order
	decided     int
	lastDecided time.Time
}

func newMatcher() *matcher {
	return &matcher{sent: make(map[int]time.Time), unmatched: make(map[int]time.Time)}
}

// observeLocked records one matched pair.
func (m *matcher) observeLocked(sent, decided time.Time) {
	m.lats = append(m.lats, float64(decided.Sub(sent))/float64(time.Millisecond))
	m.decided++
	if decided.After(m.lastDecided) {
		m.lastDecided = decided
	}
}

// Sent records a submission instant for id, pairing it with an
// already-observed decision if one is parked.
func (m *matcher) Sent(id int, wall time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if decided, ok := m.unmatched[id]; ok {
		m.observeLocked(wall, decided)
		delete(m.unmatched, id)
		return
	}
	m.sent[id] = wall
}

// SentBatch records one submission instant for many ids.
func (m *matcher) SentBatch(ids []int, wall time.Time) {
	for _, id := range ids {
		m.Sent(id, wall)
	}
}

// Decided records an observed decision for id, pairing it with its
// submission if recorded, else parking it for a later Sent.
func (m *matcher) Decided(id int, wall time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sent, ok := m.sent[id]; ok {
		m.observeLocked(sent, wall)
		delete(m.sent, id)
		return
	}
	m.unmatched[id] = wall
}

// DecidedCount returns the matched-pair count so far.
func (m *matcher) DecidedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decided
}

// Window copies the latency samples recorded since index from (for
// interval sampling) and returns them with the new high-water mark and
// the total matched count.
func (m *matcher) Window(from int) (window []float64, next, decided int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	window = append([]float64(nil), m.lats[from:]...)
	return window, len(m.lats), m.decided
}

// Results returns the full sample set (caller may sort it in place),
// the matched count, and the wall clock of the newest decision.
func (m *matcher) Results() (lats []float64, decided int, lastDecided time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lats, m.decided, m.lastDecided
}
