package main

import (
	"testing"
	"time"
)

// TestMatcherBothArrivalOrders covers the two transports' arrival
// orders through the one shared matcher. Polled HTTP: the decision is
// usually observed after the POST response records the submission —
// but can beat it, since the poller and the POST race. Pushed stream:
// the decision push can beat the SubmitReply frame that records the
// submission. Both orders must pair up to the same latency sample.
func TestMatcherBothArrivalOrders(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	m := newMatcher()

	// HTTP-style: Sent first, Decided later.
	m.Sent(100, base)
	if _, _, decided := m.Window(0); decided != 0 {
		t.Fatalf("decided %d before any decision", decided)
	}
	m.Decided(100, base.Add(250*time.Millisecond))

	// Stream-style: the push arrives before the reply records the send.
	m.Decided(101, base.Add(900*time.Millisecond))
	if _, _, decided := m.Window(0); decided != 1 {
		t.Fatalf("decided %d after unpaired push, want 1", decided)
	}
	m.Sent(101, base.Add(400*time.Millisecond))

	lats, decided, lastDecided := m.Results()
	if decided != 2 || len(lats) != 2 {
		t.Fatalf("decided %d, %d samples, want 2 and 2", decided, len(lats))
	}
	// Both orders paired to their own sample: 250ms then 500ms.
	if lats[0] != 250 || lats[1] != 500 {
		t.Fatalf("latencies %v ms, want [250 500]", lats)
	}
	if !lastDecided.Equal(base.Add(900 * time.Millisecond)) {
		t.Fatalf("lastDecided %v, want %v", lastDecided, base.Add(900*time.Millisecond))
	}
}

// TestMatcherBatchAndWindow: SentBatch stamps every id with one
// submission instant, Window hands out each sample exactly once, and
// foreign decisions (another client's ids) never pair.
func TestMatcherBatchAndWindow(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	m := newMatcher()
	m.SentBatch([]int{1, 2, 3}, base)
	m.Decided(999, base.Add(time.Second)) // not ours: parks forever
	m.Decided(2, base.Add(100*time.Millisecond))
	m.Decided(1, base.Add(200*time.Millisecond))

	window, n, decided := m.Window(0)
	if decided != 2 || len(window) != 2 {
		t.Fatalf("decided %d, window %v, want 2 matched", decided, window)
	}
	m.Decided(3, base.Add(300*time.Millisecond))
	window, _, _ = m.Window(n)
	if len(window) != 1 || window[0] != 300 {
		t.Fatalf("second window %v, want [300]", window)
	}
	if got := m.DecidedCount(); got != 3 {
		t.Fatalf("DecidedCount %d, want 3", got)
	}
}
