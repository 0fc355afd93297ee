// Package transfer models moving a job's execution files between regions —
// the paper's SCP transfer of .tar packages over the inter-region WAN. The
// transfer latency L_{m,n} feeds the MILP delay-tolerance constraint
// (Eq. 11), and the network's energy draw produces the small carbon/water
// communication overheads reported in Table 3.
package transfer

import (
	"time"

	"waterwise/internal/region"
	"waterwise/internal/units"
)

// Model computes inter-region transfer latencies and energy.
type Model struct {
	rtt       map[region.ID]map[region.ID]time.Duration
	bandwidth float64 // effective inter-region throughput, MB/s
	// energyPerGB is the marginal WAN+endpoint energy per gigabyte moved
	// (kWh/GB). Calibrated so communication carbon lands at ~0.1-0.2% of a
	// job's execution carbon, matching the paper's Table 3 measurements
	// (marginal energy of moving bytes over an already-powered WAN is far
	// below amortized-infrastructure estimates).
	energyPerGB float64
}

// DefaultBandwidthMBps is the effective single-stream SCP throughput the
// paper's m5.metal machines achieve across regions: WAN round-trip and
// congestion limited, far below the 25 Gbps NIC rate.
const DefaultBandwidthMBps = 25.0

// DefaultEnergyPerGBkWh is the assumed marginal end-to-end network energy
// per GB (see energyPerGB above for the Table 3 calibration).
const DefaultEnergyPerGBkWh = 0.0002

// rttTable holds one-way-inflated round-trip times between the five paper
// regions, seeded from public inter-region latency measurements (ms).
var rttTable = map[region.ID]map[region.ID]time.Duration{
	region.Zurich: {
		region.Madrid: 28 * time.Millisecond, region.Milan: 12 * time.Millisecond,
		region.Oregon: 150 * time.Millisecond, region.Mumbai: 110 * time.Millisecond,
	},
	region.Madrid: {
		region.Milan: 25 * time.Millisecond, region.Oregon: 145 * time.Millisecond,
		region.Mumbai: 125 * time.Millisecond,
	},
	region.Milan: {
		region.Oregon: 160 * time.Millisecond, region.Mumbai: 105 * time.Millisecond,
	},
	region.Oregon: {
		region.Mumbai: 220 * time.Millisecond,
	},
}

// New returns the default transfer model for the paper's five regions.
// Unknown region pairs fall back to a conservative default RTT.
func New() *Model {
	return &Model{
		rtt:         rttTable,
		bandwidth:   DefaultBandwidthMBps,
		energyPerGB: DefaultEnergyPerGBkWh,
	}
}

// defaultRTT covers region pairs absent from the table.
const defaultRTT = 150 * time.Millisecond

// RTT returns the round-trip time between two regions (symmetric, zero for
// the same region).
func (m *Model) RTT(a, b region.ID) time.Duration {
	if a == b {
		return 0
	}
	if r, ok := m.rtt[a][b]; ok {
		return r
	}
	if r, ok := m.rtt[b][a]; ok {
		return r
	}
	return defaultRTT
}

// Latency returns L_{m,n}: the time to ship a package of the given size
// from home to dst (zero when the job stays home). The model is a TCP-ish
// handshake cost plus size over effective bandwidth, with throughput
// degraded on long-RTT paths.
func (m *Model) Latency(home, dst region.ID, packageMB float64) time.Duration {
	if home == dst {
		return 0
	}
	return m.LatencyAt(m.RTT(home, dst), packageMB)
}

// LatencyAt is Latency between two distinct regions whose round-trip time
// is rtt: a caller that resolved RTT once for many packages gets the same
// durations, bit for bit, without the table lookups.
func (m *Model) LatencyAt(rtt time.Duration, packageMB float64) time.Duration {
	// Long fat networks lose effective single-stream throughput; degrade
	// linearly up to 40% at 250ms RTT.
	degrade := 1 - 0.4*float64(rtt)/float64(250*time.Millisecond)
	if degrade < 0.6 {
		degrade = 0.6
	}
	seconds := packageMB / (m.bandwidth * degrade)
	return 4*rtt + time.Duration(seconds*float64(time.Second))
}

// Energy returns the network energy to ship a package of the given size
// between distinct regions (zero when staying home). Results transferred
// back after execution are assumed to ride the same path and are folded
// into the per-GB factor.
func (m *Model) Energy(home, dst region.ID, packageMB float64) units.KWh {
	if home == dst {
		return 0
	}
	return units.KWh(packageMB / 1024 * m.energyPerGB)
}

// AvgLatency returns the mean transfer latency from home to each of the
// candidate regions (the L^avg_m term of the urgency score, Eq. 14). The
// home region itself contributes zero, matching the paper's "average across
// all available regions".
func (m *Model) AvgLatency(home region.ID, regions []region.ID, packageMB float64) time.Duration {
	if len(regions) == 0 {
		return 0
	}
	var total time.Duration
	for _, r := range regions {
		total += m.Latency(home, r, packageMB)
	}
	return total / time.Duration(len(regions))
}
