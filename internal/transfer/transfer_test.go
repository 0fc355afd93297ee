package transfer

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"waterwise/internal/region"
)

func TestRTTSymmetricAndZeroHome(t *testing.T) {
	m := New()
	ids := []region.ID{region.Zurich, region.Madrid, region.Oregon, region.Milan, region.Mumbai}
	for _, a := range ids {
		if m.RTT(a, a) != 0 {
			t.Errorf("RTT(%s,%s) = %v, want 0", a, a, m.RTT(a, a))
		}
		for _, b := range ids {
			if m.RTT(a, b) != m.RTT(b, a) {
				t.Errorf("RTT asymmetric for %s<->%s", a, b)
			}
		}
	}
	if m.RTT(region.Zurich, region.ID("atlantis")) != defaultRTT {
		t.Error("unknown pair should fall back to default RTT")
	}
}

func TestLatencyStructure(t *testing.T) {
	m := New()
	if m.Latency(region.Zurich, region.Zurich, 1000) != 0 {
		t.Error("same-region latency should be 0")
	}
	// Bigger packages take longer.
	small := m.Latency(region.Zurich, region.Milan, 100)
	big := m.Latency(region.Zurich, region.Milan, 1000)
	if big <= small {
		t.Errorf("1000MB (%v) should take longer than 100MB (%v)", big, small)
	}
	// Longer-RTT paths are slower for the same size.
	near := m.Latency(region.Zurich, region.Milan, 500)
	far := m.Latency(region.Zurich, region.Oregon, 500)
	if far <= near {
		t.Errorf("transatlantic (%v) should be slower than intra-EU (%v)", far, near)
	}
	// Sanity: shipping 750MB anywhere lands in single-digit seconds to
	// ~half a minute — the paper's SCP regime.
	lat := m.Latency(region.Oregon, region.Mumbai, 750)
	if lat < 2*time.Second || lat > 60*time.Second {
		t.Errorf("Oregon->Mumbai 750MB latency %v outside plausible SCP range", lat)
	}
}

func TestEnergyModel(t *testing.T) {
	m := New()
	if m.Energy(region.Zurich, region.Zurich, 1000) != 0 {
		t.Error("same-region energy should be 0")
	}
	e := float64(m.Energy(region.Zurich, region.Mumbai, 1024))
	if e <= 0 {
		t.Error("cross-region energy should be positive")
	}
	// Table 3 calibration: a ~1GB package must cost well under 1% of a
	// typical job's energy (~0.07 kWh).
	if e > 0.0007 {
		t.Errorf("1GB transfer energy %.6f kWh breaks the Table 3 calibration", e)
	}
}

func TestAvgLatency(t *testing.T) {
	m := New()
	ids := []region.ID{region.Zurich, region.Oregon}
	avg := m.AvgLatency(region.Zurich, ids, 500)
	want := (m.Latency(region.Zurich, region.Zurich, 500) + m.Latency(region.Zurich, region.Oregon, 500)) / 2
	if avg != want {
		t.Errorf("AvgLatency = %v, want %v", avg, want)
	}
	if m.AvgLatency(region.Zurich, nil, 500) != 0 {
		t.Error("empty region list should average to 0")
	}
}

func TestNewCustomValidation(t *testing.T) {
	if _, err := NewCustom(0, 0.01); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewCustom(100, -1); err == nil {
		t.Error("negative energy intensity accepted")
	}
	m, err := NewCustom(DefaultBandwidthMBps/2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	fast := New().Latency(region.Zurich, region.Milan, 800)
	slow := m.Latency(region.Zurich, region.Milan, 800)
	if slow <= fast {
		t.Errorf("half bandwidth should be slower: %v vs %v", slow, fast)
	}
}

// Property: latency is positive for distinct regions, zero at home, and
// monotone in package size.
func TestQuickLatencyProperties(t *testing.T) {
	m := New()
	ids := []region.ID{region.Zurich, region.Madrid, region.Oregon, region.Milan, region.Mumbai}
	f := func(ai, bi uint8, mb1, mb2 float64) bool {
		a := ids[int(ai)%len(ids)]
		b := ids[int(bi)%len(ids)]
		s1 := mod(mb1, 2000) + 1
		s2 := s1 + mod(mb2, 2000) + 1
		l1 := m.Latency(a, b, s1)
		l2 := m.Latency(a, b, s2)
		if a == b {
			return l1 == 0 && l2 == 0
		}
		return l1 > 0 && l2 > l1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mod(x, m float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	v := math.Mod(math.Abs(x), m)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// NewCustom returns a model with explicit bandwidth (MB/s) and energy
// intensity (kWh/GB); rtts still come from the built-in table.
func NewCustom(bandwidthMBps, energyPerGBkWh float64) (*Model, error) {
	if bandwidthMBps <= 0 {
		return nil, fmt.Errorf("transfer: non-positive bandwidth %g", bandwidthMBps)
	}
	if energyPerGBkWh < 0 {
		return nil, fmt.Errorf("transfer: negative energy intensity %g", energyPerGBkWh)
	}
	return &Model{rtt: rttTable, bandwidth: bandwidthMBps, energyPerGB: energyPerGBkWh}, nil
}
