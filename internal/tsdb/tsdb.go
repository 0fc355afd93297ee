// Package tsdb is the metrics flight recorder: a bounded, dependency-free
// in-process time-series store that self-scrapes a Prometheus text
// exposition on the scheduler's round clock and answers windowed queries
// (rate, increase, histogram quantiles) over the recorded history. An SLO
// engine on top evaluates declarative objectives with multi-window
// burn-rate rules and raises firing/clearing alerts.
//
// Timestamps are round indices, not wall instants: the recorder observes
// the round counter the scheduling loop already maintains, so an
// accelerated replay (rounds back to back) records the same series a
// wall-paced run of the same trace does, and scenario assertions can be
// stated in rounds — the only clock the fleet shares.
//
// Storage is a per-series compressed ring: timestamps are delta-of-delta
// varints (a constant one-round stride costs one byte per sample), values
// are XOR-compressed against the previous sample (byte-aligned Gorilla:
// repeated values cost one byte, counters a few). Chunks seal at a fixed
// sample count, and when the store exceeds its memory budget the oldest
// chunk in the store is evicted — surfaced as a counter, never silent.
package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Sample is one recorded point: the round it was scraped at and the value.
type Sample struct {
	Round uint64  `json:"round"`
	Value float64 `json:"value"`
}

// chunkSamples is the sample count at which a chunk seals. At one scrape
// per round a chunk covers 120 rounds; the byte budget then bounds how
// many windows of history survive eviction.
const chunkSamples = 120

// chunkOverhead approximates the fixed per-chunk accounting cost (struct
// headers, slice headers) charged against the memory budget on top of the
// encoded bytes.
const chunkOverhead = 96

// chunk is one sealed-or-open run of compressed samples.
type chunk struct {
	buf        []byte
	n          int
	minT, maxT uint64
	// Encoder state (head chunk only): the previous timestamp, its delta,
	// and the previous value's bits.
	lastDelta int64
	lastV     uint64
}

// appendSample encodes one (t, v) pair onto the chunk. Timestamps must be
// strictly increasing.
func (c *chunk) appendSample(t uint64, v float64) {
	vb := math.Float64bits(v)
	if c.n == 0 {
		c.buf = binary.AppendUvarint(c.buf, t)
		c.buf = binary.LittleEndian.AppendUint64(c.buf, vb)
		c.minT = t
	} else {
		delta := int64(t - c.maxT)
		c.buf = binary.AppendVarint(c.buf, delta-c.lastDelta)
		c.lastDelta = delta
		c.buf = appendXOR(c.buf, vb^c.lastV)
	}
	c.maxT = t
	c.lastV = vb
	c.n++
}

// decode appends the chunk's samples to dst.
func (c *chunk) decode(dst []Sample) []Sample {
	buf := c.buf
	var t uint64
	var vb uint64
	var delta int64
	for i := 0; i < c.n; i++ {
		if i == 0 {
			var n int
			t, n = binary.Uvarint(buf)
			buf = buf[n:]
			vb = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		} else {
			dod, n := binary.Varint(buf)
			buf = buf[n:]
			delta += dod
			t += uint64(delta)
			xor, n := decodeXOR(buf)
			buf = buf[n:]
			vb ^= xor
		}
		dst = append(dst, Sample{Round: t, Value: math.Float64frombits(vb)})
	}
	return dst
}

// bytes is the chunk's budget charge.
func (c *chunk) bytes() int { return len(c.buf) + chunkOverhead }

// series is one metric series: a list of chunks, oldest first; the last
// chunk is the open head.
type series struct {
	key    string
	chunks []*chunk
}

// appendSample adds one sample, sealing the head at chunkSamples. Returns
// the byte growth charged to the store.
func (s *series) appendSample(t uint64, v float64) int {
	var head *chunk
	if n := len(s.chunks); n > 0 && s.chunks[n-1].n < chunkSamples {
		head = s.chunks[n-1]
	} else {
		head = &chunk{}
		s.chunks = append(s.chunks, head)
	}
	before := head.bytes()
	if head.n == 0 {
		before = 0 // fresh chunk: charge its fixed overhead too
	}
	head.appendSample(t, v)
	return head.bytes() - before
}

// StoreStats is the store's self-accounting, rendered into the exposition
// (and therefore recorded into the store itself).
type StoreStats struct {
	// Series is the live series count.
	Series int `json:"series"`
	// Bytes is the approximate memory charged against the budget.
	Bytes int `json:"bytes"`
	// BudgetBytes is the configured bound.
	BudgetBytes int `json:"budget_bytes"`
	// Samples counts every sample ever appended.
	Samples uint64 `json:"samples"`
	// EvictedChunks counts chunks dropped to stay under budget — the
	// oldest window each time, never silent truncation.
	EvictedChunks uint64 `json:"evicted_chunks"`
	// EvictedSamples counts the samples those chunks held.
	EvictedSamples uint64 `json:"evicted_samples"`
}

// Store is the compressed time-series store. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	budget int
	series map[string]*series
	// byName indexes series keys by bare metric name, for family queries
	// (histogram buckets, label-summed counters).
	byName map[string][]string
	stats  StoreStats
}

// NewStore builds a store bounded to budgetBytes of encoded history
// (minimum one chunk; <= 0 means the 8 MiB default).
func NewStore(budgetBytes int) *Store {
	if budgetBytes <= 0 {
		budgetBytes = 8 << 20
	}
	return &Store{
		budget: budgetBytes,
		series: make(map[string]*series),
		byName: make(map[string][]string),
		stats:  StoreStats{BudgetBytes: budgetBytes},
	}
}

// Key canonicalizes a series identity: the bare name, or name{k="v",...}
// with label values Go-quoted and the k="v" pairs sorted — the grammar
// SplitKey parses back.
func Key(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		parts = append(parts, k+"="+strconv.Quote(v))
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

// SplitKey parses a canonical key back into name and labels. It inverts
// Key exactly: it accepts only what Key renders, so Key(SplitKey(k)) == k
// for every k it accepts.
func SplitKey(key string) (name string, labels map[string]string, err error) {
	name, labels, err = splitRef(key)
	if err == nil && Key(name, labels) != key {
		return "", nil, fmt.Errorf("tsdb: %q is not a canonical series key", key)
	}
	return name, labels, err
}

// splitRef parses a series reference — a family name, or name{k="v",...}
// with Go-quoted values in any order — into name and labels.
func splitRef(ref string) (name string, labels map[string]string, err error) {
	i := strings.IndexByte(ref, '{')
	if i < 0 {
		return ref, nil, nil
	}
	if !strings.HasSuffix(ref, "}") {
		return "", nil, fmt.Errorf("tsdb: unterminated label set in %q", ref)
	}
	name = ref[:i]
	labels = make(map[string]string)
	body := ref[i+1 : len(ref)-1]
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return "", nil, fmt.Errorf("tsdb: malformed label pair in %q", ref)
		}
		lname, rest := body[:eq], body[eq+1:]
		end := 1 // the closing quote: the first '"' not escaped
		for end < len(rest) && rest[end] != '"' {
			if rest[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(rest) {
			return "", nil, fmt.Errorf("tsdb: unterminated label value in %q", ref)
		}
		v, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return "", nil, fmt.Errorf("tsdb: bad label value in %q: %w", ref, err)
		}
		if _, dup := labels[lname]; dup {
			return "", nil, fmt.Errorf("tsdb: duplicate label %q in %q", lname, ref)
		}
		labels[lname] = v
		body = rest[end+1:]
		if len(body) > 0 {
			if body[0] != ',' {
				return "", nil, fmt.Errorf("tsdb: malformed label pair in %q", ref)
			}
			body = body[1:]
		}
	}
	return name, labels, nil
}

// hasLabels reports whether labels include every pair of want.
func hasLabels(labels, want map[string]string) bool {
	for k, v := range want {
		if got, ok := labels[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// nameOf returns the bare metric name of a canonical key.
func nameOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// Append records one sample. Rounds must be strictly increasing per
// series; stale or duplicate rounds are dropped.
func (st *Store) Append(key string, round uint64, v float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sr := st.series[key]
	if sr == nil {
		sr = &series{key: key}
		st.series[key] = sr
		name := nameOf(key)
		st.byName[name] = append(st.byName[name], key)
		st.stats.Series++
	}
	if n := len(sr.chunks); n > 0 && round <= sr.chunks[n-1].maxT {
		return
	}
	st.stats.Bytes += sr.appendSample(round, v)
	st.stats.Samples++
	for st.stats.Bytes > st.budget {
		if !st.evictOldestLocked() {
			break
		}
	}
}

// evictOldestLocked drops the oldest chunk in the store (smallest minT;
// ties by key for determinism). Returns false when nothing is evictable —
// only open heads of length-one series remain and dropping them would
// erase the present.
func (st *Store) evictOldestLocked() bool {
	var victim *series
	for _, sr := range st.series {
		if len(sr.chunks) == 0 {
			continue
		}
		if len(sr.chunks) == 1 && len(st.series) <= 1 {
			continue // never evict the sole open head of the sole series
		}
		if victim == nil ||
			sr.chunks[0].minT < victim.chunks[0].minT ||
			(sr.chunks[0].minT == victim.chunks[0].minT && sr.key < victim.key) {
			victim = sr
		}
	}
	if victim == nil {
		return false
	}
	c := victim.chunks[0]
	victim.chunks = victim.chunks[1:]
	st.stats.Bytes -= c.bytes()
	st.stats.EvictedChunks++
	st.stats.EvictedSamples += uint64(c.n)
	if len(victim.chunks) == 0 {
		delete(st.series, victim.key)
		name := nameOf(victim.key)
		keys := st.byName[name]
		for i, k := range keys {
			if k == victim.key {
				st.byName[name] = append(keys[:i], keys[i+1:]...)
				break
			}
		}
		if len(st.byName[name]) == 0 {
			delete(st.byName, name)
		}
		st.stats.Series--
	}
	return true
}

// Query returns the samples of one series with from <= Round <= to
// (to == 0 means "to the end").
func (st *Store) Query(key string, from, to uint64) []Sample {
	st.mu.Lock()
	defer st.mu.Unlock()
	sr := st.series[key]
	if sr == nil {
		return nil
	}
	if to == 0 {
		to = math.MaxUint64
	}
	out := []Sample{}
	var scratch []Sample
	for _, c := range sr.chunks {
		if c.maxT < from || c.minT > to {
			continue
		}
		scratch = c.decode(scratch[:0])
		for _, s := range scratch {
			if s.Round >= from && s.Round <= to {
				out = append(out, s)
			}
		}
	}
	return out
}

func (st *Store) valueAtLocked(key string, round uint64) (Sample, bool) {
	sr := st.series[key]
	if sr == nil {
		return Sample{}, false
	}
	// Latest chunk whose first sample is not past round.
	idx := -1
	for i, c := range sr.chunks {
		if c.minT <= round {
			idx = i
		} else {
			break
		}
	}
	if idx < 0 {
		return Sample{}, false
	}
	var best Sample
	found := false
	scratch := sr.chunks[idx].decode(nil)
	for _, s := range scratch {
		if s.Round <= round {
			best, found = s, true
		}
	}
	return best, found
}

// earliestLocked returns the series' oldest surviving sample.
func (st *Store) earliestLocked(key string) (Sample, bool) {
	sr := st.series[key]
	if sr == nil || len(sr.chunks) == 0 {
		return Sample{}, false
	}
	scratch := sr.chunks[0].decode(nil)
	if len(scratch) == 0 {
		return Sample{}, false
	}
	return scratch[0], true
}

// KeysOf returns the live series keys of one bare metric name, sorted.
func (st *Store) KeysOf(name string) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := append([]string(nil), st.byName[name]...)
	sort.Strings(out)
	return out
}

// Stats returns the store's self-accounting.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// --- XOR encoding -------------------------------------------------------

// appendXOR appends a byte-aligned Gorilla-style XOR: 0x80 for a repeat
// (xor == 0), else a control byte packing (trailing-zero bytes << 4 |
// meaningful bytes - 1) followed by the meaningful middle bytes.
func appendXOR(b []byte, xor uint64) []byte {
	if xor == 0 {
		return append(b, 0x80)
	}
	trail := bits.TrailingZeros64(xor) / 8
	lead := bits.LeadingZeros64(xor) / 8
	mean := 8 - trail - lead
	b = append(b, byte(trail<<4|(mean-1)))
	v := xor >> (8 * uint(trail))
	for i := 0; i < mean; i++ {
		b = append(b, byte(v>>(8*uint(i))))
	}
	return b
}

// decodeXOR decodes one appendXOR token.
func decodeXOR(b []byte) (uint64, int) {
	ctl := b[0]
	if ctl == 0x80 {
		return 0, 1
	}
	trail := int(ctl >> 4)
	mean := int(ctl&0x0f) + 1
	var v uint64
	for i := 0; i < mean; i++ {
		v |= uint64(b[1+i]) << (8 * uint(i))
	}
	return v << (8 * uint(trail)), 1 + mean
}
