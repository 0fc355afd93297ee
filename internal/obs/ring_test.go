package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func rt(index int64, total time.Duration) RoundTrace {
	return RoundTrace{Index: index, Total: total}
}

func TestRoundRingRecentOrder(t *testing.T) {
	r := NewRoundRing(8, 4)
	for i := int64(0); i < 20; i++ {
		r.Record(rt(i, time.Duration(i)*time.Millisecond))
	}
	recent := r.Recent(0)
	if len(recent) != 8 {
		t.Fatalf("ring retained %d, want 8", len(recent))
	}
	// Newest first: 19, 18, ... 12.
	for i, tr := range recent {
		if want := int64(19 - i); tr.Index != want {
			t.Fatalf("recent[%d].Index = %d, want %d (got %v)", i, tr.Index, want, indices(recent))
		}
	}
	if got := r.Recent(3); len(got) != 3 || got[0].Index != 19 || got[2].Index != 17 {
		t.Fatalf("Recent(3) = %v", indices(got))
	}
	// Before the ring wraps, Recent must also work.
	small := NewRoundRing(8, 4)
	small.Record(rt(0, 0))
	small.Record(rt(1, 0))
	if got := small.Recent(0); len(got) != 2 || got[0].Index != 1 || got[1].Index != 0 {
		t.Fatalf("unwrapped Recent = %v", indices(got))
	}
}

func TestRoundRingSlowest(t *testing.T) {
	r := NewRoundRing(16, 4)
	rng := rand.New(rand.NewSource(5))
	var totals []time.Duration
	for i := int64(0); i < 500; i++ {
		d := time.Duration(rng.Intn(1_000_000)) * time.Microsecond
		totals = append(totals, d)
		r.Record(rt(i, d))
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] > totals[j] })
	slow := r.Slowest()
	if len(slow) != 4 {
		t.Fatalf("kept %d exemplars, want 4", len(slow))
	}
	for i, tr := range slow {
		if tr.Total != totals[i] {
			t.Fatalf("slowest[%d].Total = %v, want %v (true top-4 %v)", i, tr.Total, totals[i], totals[:4])
		}
	}
}

func TestNilRing(t *testing.T) {
	var r *RoundRing
	r.Record(rt(0, time.Second)) // must not panic
	if r.Recent(5) != nil || r.Slowest() != nil {
		t.Fatal("nil ring returned traces")
	}
}

func indices(trs []RoundTrace) []int64 {
	out := make([]int64, len(trs))
	for i, tr := range trs {
		out[i] = tr.Index
	}
	return out
}

func TestJobTracerSampling(t *testing.T) {
	jt := NewJobTracer(4, 100)
	if jt.SampleEvery() != 4 {
		t.Fatalf("SampleEvery = %d", jt.SampleEvery())
	}
	wall := time.Unix(100, 0)
	var sampled []int
	for id := 0; id < 16; id++ {
		if jt.Accepted(id, wall, wall) {
			sampled = append(sampled, id)
		}
	}
	// Deterministic stride: ordinals 0, 4, 8, 12.
	want := []int{0, 4, 8, 12}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled %v, want %v", sampled, want)
		}
	}
	if _, ok := jt.Get(1); ok {
		t.Fatal("unsampled job has a trace")
	}
	if _, ok := jt.Get(4); !ok {
		t.Fatal("sampled job has no trace")
	}
}

func TestJobTracerLifecycle(t *testing.T) {
	jt := NewJobTracer(1, 100)
	wall := time.Unix(100, 0)
	sim := time.Unix(0, 0)
	jt.Accepted(7, wall, sim)
	jt.Batched(7, 3, sim.Add(time.Minute), wall.Add(time.Millisecond))
	// Two re-offers before the decision.
	jt.Batched(7, 4, sim.Add(2*time.Minute), wall.Add(2*time.Millisecond))
	jt.Batched(7, 5, sim.Add(3*time.Minute), wall.Add(3*time.Millisecond))
	jt.Decided(7, 5, wall.Add(3*time.Millisecond), "eu-west", sim.Add(3*time.Minute), sim.Add(time.Hour))
	tr, ok := jt.Get(7)
	if !ok || !tr.Done {
		t.Fatalf("trace not completed: %+v ok=%v", tr, ok)
	}
	if tr.BatchedRound != 3 || tr.DecidedRound != 5 {
		t.Fatalf("round stamps: batched %d decided %d", tr.BatchedRound, tr.DecidedRound)
	}
	if tr.DeferredRounds != 2 {
		t.Fatalf("DeferredRounds = %d, want 2", tr.DeferredRounds)
	}
	if tr.Region != "eu-west" || tr.StartSim.IsZero() || tr.FinishSim.IsZero() {
		t.Fatalf("placement stamps missing: %+v", tr)
	}
	// Post-decision Batched calls are ignored.
	jt.Batched(7, 6, sim, wall)
	tr2, _ := jt.Get(7)
	if tr2.DeferredRounds != 2 {
		t.Fatalf("Done trace mutated by late Batched: %+v", tr2)
	}
}

// TestJobTracerDeferredFromGap covers the WAL-batched path where Batched
// fires once: the round-index gap stands in for explicit re-offer counts.
func TestJobTracerDeferredFromGap(t *testing.T) {
	jt := NewJobTracer(1, 100)
	wall := time.Unix(100, 0)
	jt.Accepted(1, wall, wall)
	jt.Batched(1, 10, wall, wall)
	jt.Decided(1, 13, wall, "us-east", wall, wall)
	tr, _ := jt.Get(1)
	if tr.DeferredRounds != 3 {
		t.Fatalf("gap-derived DeferredRounds = %d, want 3", tr.DeferredRounds)
	}
}

func TestJobTracerFIFOEviction(t *testing.T) {
	jt := NewJobTracer(1, 3)
	wall := time.Unix(100, 0)
	for id := 0; id < 5; id++ {
		jt.Accepted(id, wall, wall)
	}
	for id := 0; id < 2; id++ {
		if _, ok := jt.Get(id); ok {
			t.Errorf("job %d should have been evicted", id)
		}
	}
	for id := 2; id < 5; id++ {
		if _, ok := jt.Get(id); !ok {
			t.Errorf("job %d evicted too early", id)
		}
	}
}

func TestNilJobTracer(t *testing.T) {
	var jt *JobTracer
	if jt.Accepted(1, time.Time{}, time.Time{}) {
		t.Fatal("nil tracer sampled a job")
	}
	jt.Batched(1, 0, time.Time{}, time.Time{})
	jt.Decided(1, 0, time.Time{}, "", time.Time{}, time.Time{})
	if _, ok := jt.Get(1); ok {
		t.Fatal("nil tracer returned a trace")
	}
	if jt.SampleEvery() != 0 {
		t.Fatal("nil tracer SampleEvery != 0")
	}
}

func TestStageString(t *testing.T) {
	want := []string{"ingest", "solve", "wal_append", "wal_fsync", "snapshot", "publish"}
	for st := Stage(0); st < NumStages; st++ {
		if st.String() != want[st] {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), want[st])
		}
	}
}
