package server

import (
	"errors"
	"testing"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/trace"
)

// TestDedupeIndex walks one id through the index's four cases — live or
// decided, resubmitted with the same spec digest or another — and checks
// the outcome, the counters, and that the decided digest outlives a new
// job accepted under its id, through a snapshot and an abandonment.
func TestDedupeIndex(t *testing.T) {
	cfg := func() Config {
		return Config{Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute}
	}
	sh := testShard(t, cfg())
	const id, a, b = 42, 0xa, 0xb
	job := func() *trace.Job {
		return &trace.Job{ID: id, Benchmark: "canneal", Home: region.Zurich, Submit: testStart,
			Duration: time.Minute, EstDuration: time.Minute, Energy: 0.1, EstEnergy: 0.1}
	}
	accept := func(digest uint64) error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.acceptLocked(job(), digest, time.Now())
	}
	expect := func(what string, err error, wantErr error, accepted, deduped uint64) {
		t.Helper()
		if !errors.Is(err, wantErr) || (wantErr == nil) != (err == nil) {
			t.Fatalf("%s: error %v, want %v", what, err, wantErr)
		}
		if sh.accepted != accepted || sh.deduped != deduped {
			t.Fatalf("%s: accepted %d deduped %d, want %d and %d", what, sh.accepted, sh.deduped, accepted, deduped)
		}
	}

	expect("first submission", accept(a), nil, 1, 0)
	expect("live, same digest", accept(a), nil, 1, 1)
	expect("live, other digest", accept(b), ErrDuplicateID, 1, 1)

	if acc := sh.recordDecidedLocked(id); acc <= 0 {
		t.Fatalf("deciding a live job reports acceptance %d, want its stamp", acc)
	}
	if acc := sh.recordDecidedLocked(id); acc != 0 {
		t.Fatalf("deciding it again reports acceptance %d, want 0 (not live)", acc)
	}
	expect("decided, same digest", accept(a), nil, 1, 2)
	expect("decided, other digest", accept(b), nil, 2, 2)
	if e := sh.dedupe[id]; e.state != idLive|idDecided || e.live != b || e.decided != a {
		t.Fatalf("entry after a new job on a decided id: %+v, want live %x and decided %x", e, b, a)
	}
	expect("new job live, its digest", accept(b), nil, 2, 3)
	expect("new job live, the decided digest", accept(a), ErrDuplicateID, 2, 3)

	// The decided digest survives a snapshot, and the new job's abandonment
	// leaves it answering retries of the first job.
	restored := testShard(t, cfg())
	if err := restored.restoreSnapshot(sh.marshalSnapshotLocked()); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*shard{sh, restored} {
		s.forgetLocked(id, idLive)
		if e := s.dedupe[id]; e.state != idDecided || e.decided != a {
			t.Fatalf("entry after abandoning the new job: %+v, want decided %x alone", e, a)
		}
		if dup, err := s.dedupeLocked(id, a); !dup || err != nil {
			t.Fatalf("retry of the decided job after the abandonment: dup %v, error %v", dup, err)
		}
		if dup, err := s.dedupeLocked(id, b); dup || err != nil {
			t.Fatalf("retry of the abandoned job: dup %v, error %v; want a fresh acceptance", dup, err)
		}
	}
	if len(restored.decidedFIFO) != 1 || restored.decidedFIFO[0] != id {
		t.Fatalf("restored decided FIFO %v, want [%d]", restored.decidedFIFO, id)
	}

	// Once its last decided digest and its live job are gone, the id
	// leaves the index.
	sh.forgetLocked(id, idDecided)
	if _, ok := sh.dedupe[id]; ok {
		t.Fatal("an id with no live job and no decided digest stays in the index")
	}
}

// TestDedupeEvictsAtCap: decided digests beyond dedupeCap are evicted
// oldest first, a live job under an evicted id keeps its entry, and the
// snapshot restores the same index.
func TestDedupeEvictsAtCap(t *testing.T) {
	cfg := func() Config {
		return Config{Env: testEnv(t), Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute}
	}
	sh := testShard(t, cfg())
	const extra = 3
	for id := range dedupeCap + extra {
		sh.markLiveLocked(id, uint64(id)+100, time.Time{})
		sh.recordDecidedLocked(id)
	}
	sh.markLiveLocked(1, 7, time.Time{}) // a new job under an id about to be evicted
	sh.markLiveLocked(dedupeCap+extra, 9, time.Time{})
	sh.recordDecidedLocked(dedupeCap + extra)
	if len(sh.decidedFIFO) != dedupeCap || sh.decidedFIFO[0] != extra+1 {
		t.Fatalf("decided FIFO holds %d ids from %d, want %d from %d", len(sh.decidedFIFO), sh.decidedFIFO[0], dedupeCap, extra+1)
	}
	for id := range extra + 1 {
		e, ok := sh.dedupe[id]
		switch {
		case id == 1 && (!ok || e.state != idLive || e.live != 7):
			t.Fatalf("evicted id 1 with a live job: entry %+v (present %v), want the live job alone", e, ok)
		case id != 1 && ok:
			t.Fatalf("evicted id %d still indexed: %+v", id, e)
		}
	}
	if dup, _ := sh.dedupeLocked(0, 100); dup {
		t.Fatal("an evicted decided digest still dedupes")
	}
	if dup, _ := sh.dedupeLocked(extra+1, extra+101); !dup {
		t.Fatal("the oldest kept decided digest no longer dedupes")
	}
	if len(sh.dedupe) != dedupeCap+1 {
		t.Fatalf("index holds %d ids, want %d", len(sh.dedupe), dedupeCap+1)
	}
	restored := testShard(t, cfg())
	snap := sh.marshalSnapshotLocked()
	if err := restored.restoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if len(restored.dedupe) != len(sh.dedupe) {
		t.Fatalf("restored index holds %d ids, want %d", len(restored.dedupe), len(sh.dedupe))
	}
	for id, e := range sh.dedupe {
		if r := restored.dedupe[id]; r.state != e.state || r.live != e.live || r.decided != e.decided {
			t.Fatalf("id %d restores as %+v, want %+v", id, r, e)
		}
	}
}
