package feed

import (
	"math/rand"
	"testing"
	"time"
)

// holdHours is the span of the providers the hold-window tests record.
const holdHours = 48

// holdInstants is a seeded mix of the instants a hold window can get wrong:
// exact hour boundaries and the nanosecond either side of them, random
// points inside hours, and instants before the span and at or after its
// end.
func holdInstants(seed int64) []time.Time {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Time
	for h := -2; h <= holdHours+2; h++ {
		at := testStart.Add(time.Duration(h) * time.Hour)
		out = append(out, at, at.Add(-time.Nanosecond), at.Add(time.Nanosecond))
	}
	for i := 0; i < 200; i++ {
		off := time.Duration(rng.Int63n(int64(holdHours+4) * int64(time.Hour)))
		out = append(out, testStart.Add(-2*time.Hour+off))
	}
	return out
}

// sameReading reports whether two samples are equal with Time aside — the
// equality a hold window promises.
func sameReading(a, b Sample) bool {
	a.Time, b.Time = time.Time{}, time.Time{}
	return a == b
}

// checkHoldContract demands that every window p reports is truthful at t:
// it contains t, and At answers the same reading at its first instant, its
// last nanosecond and random points inside it. It reports whether a window
// was set.
func checkHoldContract(t *testing.T, rng *rand.Rand, p Provider, key string, at time.Time) bool {
	t.Helper()
	s, err := p.At(key, at)
	if err != nil {
		t.Fatal(err)
	}
	if s.HeldUntil.IsZero() {
		if !s.HeldFrom.IsZero() {
			t.Fatalf("%s %s at %v: HeldFrom %v without HeldUntil", p.Name(), key, at, s.HeldFrom)
		}
		return false
	}
	if at.Before(s.HeldFrom) || !at.Before(s.HeldUntil) {
		t.Fatalf("%s %s at %v: window [%v, %v) does not contain the instant", p.Name(), key, at, s.HeldFrom, s.HeldUntil)
	}
	span := int64(s.HeldUntil.Sub(s.HeldFrom))
	probes := []time.Time{s.HeldFrom, s.HeldUntil.Add(-time.Nanosecond)}
	for i := 0; i < 4; i++ {
		probes = append(probes, s.HeldFrom.Add(time.Duration(rng.Int63n(span))))
	}
	for _, q := range probes {
		got, err := p.At(key, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameReading(got, s) {
			t.Fatalf("%s %s: window [%v, %v) reported at %v, but At(%v) differs\n got %+v\nwant %+v",
				p.Name(), key, s.HeldFrom, s.HeldUntil, at, q, got, s)
		}
	}
	return true
}

// TestHoldWindowContract pins the hold-window promise for every provider
// that can make one, and pins who makes one: Synthetic and hold-mode
// Replay inside their span, never a linear Replay, a clamped edge or Live.
func TestHoldWindowContract(t *testing.T) {
	syn, err := NewSynthetic(testSyntheticRegions(), testStart, holdHours, 21)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(syn, nil, testStart, holdHours)
	if err != nil {
		t.Fatal(err)
	}
	hold, err := NewReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.Interp = InterpLinear
	linear, err := NewReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The recording's last sample opens the final hour, so a hold replay
	// covers one hour less than the synthetic span it was taken from.
	end := testStart.Add(holdHours * time.Hour)
	cases := []struct {
		name string
		p    Provider
		held func(at time.Time) bool // whether a window must be reported
	}{
		{"synthetic", syn, func(at time.Time) bool { return !at.Before(testStart) && at.Before(end) }},
		{"replay-hold", hold, func(at time.Time) bool { return !at.Before(testStart) && at.Before(end.Add(-time.Hour)) }},
		{"replay-linear", linear, func(time.Time) bool { return false }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for _, key := range c.p.Regions() {
				for _, at := range holdInstants(11) {
					if got, want := checkHoldContract(t, rng, c.p, key, at), c.held(at); got != want {
						t.Fatalf("%s at %v: window reported = %v, want %v", key, at, got, want)
					}
				}
			}
		})
	}
}

// TestLiveReportsNoHoldWindow: a live reading is keyed on the wall clock,
// not on the queried instant, so neither a cached, a stale nor a forecast
// reading may promise a window.
func TestLiveReportsNoHoldWindow(t *testing.T) {
	fs := &feedServer{wetBulb: 18.5}
	l, clk, _ := newTestLive(t, fs, LiveConfig{TTL: time.Minute, ForecastAfter: 5 * time.Minute})
	rng := rand.New(rand.NewSource(3))
	check := func(phase string) {
		t.Helper()
		for _, at := range holdInstants(5) {
			if checkHoldContract(t, rng, l, "oregon", at) {
				t.Fatalf("%s live reading at %v reported a hold window", phase, at)
			}
		}
	}
	check("fresh")
	fs.setMode("error")
	clk.advance(2 * time.Minute)
	check("stale")
	clk.advance(10 * time.Minute)
	check("forecast")
}
