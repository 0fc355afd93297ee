package cluster

import (
	"fmt"
	"testing"
	"time"

	"waterwise/internal/energy"
	"waterwise/internal/region"
)

// scanRegion is the machine model as it was before the sorted index: a
// per-server next-free array that every query scans in full. It is the
// oracle regionState must match placement for placement.
type scanRegion struct {
	busyUntil []time.Time // per-server next-free instant
}

// freeCount counts servers free at instant t.
func (rs *scanRegion) freeCount(t time.Time) int {
	n := 0
	for _, b := range rs.busyUntil {
		if !b.After(t) {
			n++
		}
	}
	return n
}

// place reserves a server for an exec-long run starting no earlier than
// want, and returns the actual start. Among servers already free at want it
// picks the one that has been idle the shortest (best fit); if none is
// free, the job queues on the earliest-freeing server.
func (rs *scanRegion) place(want time.Time, exec time.Duration) time.Time {
	best := -1
	for i, b := range rs.busyUntil {
		if b.After(want) {
			continue
		}
		if best == -1 || b.After(rs.busyUntil[best]) {
			best = i
		}
	}
	start := want
	if best == -1 {
		for i := range rs.busyUntil {
			if best == -1 || rs.busyUntil[i].Before(rs.busyUntil[best]) {
				best = i
			}
		}
		start = rs.busyUntil[best]
	}
	rs.busyUntil[best] = start.Add(exec)
	return start
}

// oneRegionSim is a simulator over Oregon alone, with the given servers.
func oneRegionSim(t *testing.T, servers int) *Sim {
	t.Helper()
	regions, err := region.DefaultsSubset(region.Oregon)
	if err != nil {
		t.Fatal(err)
	}
	regions[0].Servers = servers
	env, err := region.NewEnvironment(regions, energy.Table, testStart, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(Config{Env: env}, homeScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestRegionStateMatchesScan drives the sorted index and the scan with the
// same seeded operations — placements requested before, at and after the
// servers' instants with negative, zero, tiny and hours-long runs; floods
// of exact ties; free counts at random instants; and a BusySnapshot →
// RestoreBusy round trip mid-sequence — and requires the same start from
// every placement, the same count from every query and the same per-server
// snapshot.
func TestRegionStateMatchesScan(t *testing.T) {
	for _, servers := range []int{1, 2, 35, 400} {
		t.Run(fmt.Sprintf("servers=%d", servers), func(t *testing.T) {
			rng := newTestRand(int64(servers))
			sim := oneRegionSim(t, servers)
			rs := sim.states[region.Oregon]
			ref := &scanRegion{busyUntil: make([]time.Time, servers)}

			// Exact ties first: every server at the zero time, and one
			// identical job after another at the same instant.
			tie := testStart.Add(time.Hour)
			ops := 0
			for range 3 * servers {
				if got, want := rs.place(tie, 10*time.Minute), ref.place(tie, 10*time.Minute); !got.Equal(want) {
					t.Fatalf("tie flood op %d: start %v, scan %v", ops, got, want)
				}
				ops++
			}

			instant := func() time.Time { return ref.busyUntil[rng.Intn(servers)] }
			extremes := func() (lo, hi time.Time) {
				lo, hi = ref.busyUntil[0], ref.busyUntil[0]
				for _, b := range ref.busyUntil {
					if b.Before(lo) {
						lo = b
					}
					if b.After(hi) {
						hi = b
					}
				}
				return lo, hi
			}
			checkSnapshot := func() {
				t.Helper()
				snap := sim.BusySnapshot()[region.Oregon]
				for srv, b := range ref.busyUntil {
					if !snap[srv].Equal(b) {
						t.Fatalf("after %d ops: server %d snapshots %v, scan %v", ops, srv, snap[srv], b)
					}
				}
			}
			const steps = 4000
			for step := range steps {
				if step == steps/2 {
					checkSnapshot()
					restored := oneRegionSim(t, servers)
					if err := restored.RestoreBusy(sim.BusySnapshot()); err != nil {
						t.Fatal(err)
					}
					sim, rs = restored, restored.states[region.Oregon]
					checkSnapshot()
				}
				lo, hi := extremes()
				var want time.Time
				switch rng.Intn(5) {
				case 0:
					want = lo.Add(-time.Duration(1+rng.Intn(60)) * time.Minute)
				case 1:
					want = instant()
				case 2:
					want = hi.Add(time.Duration(1+rng.Intn(60)) * time.Minute)
				default:
					want = testStart.Add(time.Duration(rng.Intn(24*60)) * time.Minute)
				}
				var exec time.Duration
				switch rng.Intn(6) {
				case 0:
					exec = -time.Duration(1+rng.Intn(120)) * time.Minute
				case 1:
					exec = 0
				case 2:
					exec = time.Microsecond
				case 3:
					exec = time.Duration(1+rng.Intn(5)) * time.Hour
				default:
					exec = 10 * time.Minute // identical runs keep producing ties
				}
				if got, want := rs.place(want, exec), ref.place(want, exec); !got.Equal(want) {
					t.Fatalf("op %d: place start %v, scan %v", ops, got, want)
				}
				ops++

				for _, at := range []time.Time{instant(), testStart.Add(time.Duration(rng.Intn(24*60)) * time.Minute)} {
					if got, want := rs.freeCount(at), ref.freeCount(at); got != want {
						t.Fatalf("after %d ops: freeCount(%v) = %d, scan %d", ops, at, got, want)
					}
				}
			}
			checkSnapshot()
		})
	}
}

// BenchmarkRegionPlace times one placement at steady load: the clock
// advances a second per job and runs average 0.9 s per server, so ~90% of
// the servers are busy when each job arrives.
func BenchmarkRegionPlace(b *testing.B) {
	for _, servers := range []int{35, 400, 4000} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			rs := newRegionState(servers)
			rng := newTestRand(1)
			mean := time.Duration(servers) * 900 * time.Millisecond
			execs := make([]time.Duration, 1024)
			for i := range execs {
				execs[i] = mean/2 + time.Duration(rng.Intn(1000))*mean/1000
			}
			now, i := testStart, 0
			place := func() {
				rs.place(now, execs[i%len(execs)])
				now = now.Add(time.Second)
				i++
			}
			for range 4 * servers { // reach the steady state
				place()
			}
			b.ReportAllocs()
			for b.Loop() {
				place()
			}
		})
	}
}
