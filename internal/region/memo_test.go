package region

import (
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/feed"
)

// memoHours is the span of the environments the snapshot memo tests read.
const memoHours = 72

// memoSynthetic builds the synthetic feed of the default regions.
func memoSynthetic(t testing.TB) *feed.Synthetic {
	t.Helper()
	regions := Defaults()
	specs := make([]feed.SyntheticRegion, len(regions))
	for i, r := range regions {
		specs[i] = feed.SyntheticRegion{Key: string(r.ID), Grid: r.Grid, Climate: r.Climate}
	}
	p, err := feed.NewSynthetic(specs, testStart, memoHours, 9)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// memoProviders returns every provider kind an Environment can sit on:
// the synthetic feed, hold and linear replays recorded from it, a live
// feed (over the chaos transport, so nothing leaves the process, with a TTL
// no test outlasts), and the chaos wrapper with no fault and in an outage
// that began before the first reading.
func memoProviders(t testing.TB) map[string]feed.Provider {
	t.Helper()
	syn := memoSynthetic(t)
	tr, err := feed.Record(syn, nil, testStart, memoHours)
	if err != nil {
		t.Fatal(err)
	}
	hold, err := feed.NewReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.Interp = feed.InterpLinear
	linear, err := feed.NewReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	live, err := feed.NewLive(feed.LiveConfig{
		BaseURL: "http://feed.test", Regions: syn.Regions(), TTL: time.Hour,
		Client: &http.Client{Transport: feed.NewChaos(memoSynthetic(t)).Transport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	outage := feed.NewChaos(memoSynthetic(t))
	outage.SetFault(feed.FaultOutage, 0)
	return map[string]feed.Provider{
		"synthetic":     syn,
		"replay-hold":   hold,
		"replay-linear": linear,
		"live":          live,
		"chaos-none":    feed.NewChaos(memoSynthetic(t)),
		"chaos-outage":  outage,
	}
}

// memoQuery is one Snapshot call.
type memoQuery struct {
	id ID
	at time.Time
}

// memoQueries is a seeded sequence of snapshot reads that interleaves
// regions and mixes the instants a memo can get wrong: exact hour
// boundaries and the nanosecond before them, instants before Start and at
// or after End, jumps backwards, and runs of reads inside one hour.
func memoQueries(seed int64, ids []ID, n int) []memoQuery {
	rng := rand.New(rand.NewSource(seed))
	end := testStart.Add(memoHours * time.Hour)
	at := testStart
	out := make([]memoQuery, 0, n)
	for len(out) < n {
		hour := testStart.Add(time.Duration(rng.Intn(memoHours+4)-2) * time.Hour)
		switch rng.Intn(8) {
		case 0:
			at = hour
		case 1:
			at = hour.Add(-time.Nanosecond)
		case 2:
			at = testStart.Add(-time.Duration(rng.Int63n(int64(3 * time.Hour))))
		case 3:
			at = end.Add(time.Duration(rng.Int63n(int64(3 * time.Hour))))
		case 4:
			at = at.Add(-time.Duration(rng.Int63n(int64(5 * time.Hour))))
		case 5:
			at = hour.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		default:
			at = at.Add(time.Duration(rng.Int63n(int64(20 * time.Minute))))
		}
		out = append(out, memoQuery{ids[rng.Intn(len(ids))], at})
	}
	return out
}

// TestSnapshotMemoMatchesFreshEnvironment: whatever a long-lived
// Environment has memoized, each snapshot it answers equals the one an
// Environment that has never read anything derives for the same query.
func TestSnapshotMemoMatchesFreshEnvironment(t *testing.T) {
	provs := memoProviders(t)
	for _, name := range slices.Sorted(maps.Keys(provs)) {
		prov := provs[name]
		t.Run(name, func(t *testing.T) {
			long, err := NewEnvironmentWithProvider(Defaults(), energy.Table, testStart, memoHours, prov)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range memoQueries(17, long.IDs(), 3000) {
				got, okGot := long.Snapshot(q.id, q.at)
				fresh, err := NewEnvironmentWithProvider(Defaults(), energy.Table, testStart, memoHours, prov)
				if err != nil {
					t.Fatal(err)
				}
				want, okWant := fresh.Snapshot(q.id, q.at)
				if !okGot || !okWant || got != want {
					t.Fatalf("query %d (%s at %v): memoized %+v (%v), fresh %+v (%v)", i, q.id, q.at, got, okGot, want, okWant)
				}
			}
		})
	}
}

// TestSnapshotMemoConcurrentViews reads snapshots from 8 goroutines through
// one Environment and two Partition views sharing its memo; every answer
// must equal the one derived up front by a single reader. Run under -race
// it also checks that the memo needs no lock.
func TestSnapshotMemoConcurrentViews(t *testing.T) {
	prov := memoSynthetic(t)
	env, err := NewEnvironmentWithProvider(Defaults(), energy.Table, testStart, memoHours, prov)
	if err != nil {
		t.Fatal(err)
	}
	west, err := env.Partition(Oregon, Madrid, Zurich)
	if err != nil {
		t.Fatal(err)
	}
	east, err := env.Partition(Mumbai, Milan, Zurich)
	if err != nil {
		t.Fatal(err)
	}
	views := []*Environment{env, west, east}
	type plan struct {
		view *Environment
		qs   []memoQuery
		want []Snapshot
	}
	plans := make([]plan, 8)
	for g := range plans {
		v := views[g%len(views)]
		qs := memoQueries(int64(100+g), v.IDs(), 2000)
		ref, err := NewEnvironmentWithProvider(Defaults(), energy.Table, testStart, memoHours, prov)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Snapshot, len(qs))
		for i, q := range qs {
			want[i], _ = ref.Snapshot(q.id, q.at)
		}
		plans[g] = plan{v, qs, want}
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(plans))
	for _, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range p.qs {
				if got, ok := p.view.Snapshot(q.id, q.at); !ok || got != p.want[i] {
					errs <- string(q.id) + " at " + q.at.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent snapshot differs from the single reader's: %s", e)
	}
}

// TestSnapshotHitDoesNotAllocate: a read inside the held hour is served
// from the memo without touching the allocator.
func TestSnapshotHitDoesNotAllocate(t *testing.T) {
	env, err := NewEnvironmentWithProvider(Defaults(), energy.Table, testStart, memoHours, memoSynthetic(t))
	if err != nil {
		t.Fatal(err)
	}
	at := testStart.Add(5 * time.Hour)
	env.Snapshot(Milan, at)
	if allocs := testing.AllocsPerRun(100, func() { env.Snapshot(Milan, at.Add(time.Minute)) }); allocs != 0 {
		t.Errorf("memoized Snapshot allocates %v times per read, want 0", allocs)
	}
}

// BenchmarkEnvironmentSnapshot times one Snapshot read. "hit" stays inside
// one hour, so every read after the first is served from the memo and must
// not allocate; "hour-crossing" moves to the next hour on every read, so
// each one asks the provider and derives the snapshot.
func BenchmarkEnvironmentSnapshot(b *testing.B) {
	env, err := NewEnvironmentWithProvider(Defaults(), energy.Table, testStart, memoHours, memoSynthetic(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		env.Snapshot(Madrid, testStart)
		for i := 0; b.Loop(); i++ {
			env.Snapshot(Madrid, testStart.Add(time.Duration(i%3600)*time.Second))
		}
	})
	b.Run("hour-crossing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			env.Snapshot(Madrid, testStart.Add(time.Duration((i+1)%memoHours)*time.Hour+time.Minute))
		}
	})
}
