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
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"waterwise/internal/obs"
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
// chunk is the open head. key is its identity exactly as the exposition
// renders it (name{k="v",...}, labels in the renderer's order); name and
// labels are that identity parsed once, when the series is created, and
// le is the parsed "le" label of a histogram bucket (NaN for other series).
type series struct {
	key    string
	name   string
	labels map[string]string
	le     float64
	chunks []*chunk
}

// newSeries parses an identity into an empty series.
func newSeries(key string) (*series, error) {
	name, labels, err := obs.ParseSeries(key)
	if err != nil {
		return nil, err
	}
	sr := &series{key: key, name: name, labels: labels, le: math.NaN()}
	if le, ok := labels["le"]; ok {
		if v, err := strconv.ParseFloat(le, 64); err == nil {
			sr.le = v
		}
	}
	return sr, nil
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
	// byName indexes series by bare metric name, in creation order, for
	// family queries (histogram buckets, label-summed counters).
	byName map[string][]*series
	// scraped is appendText's reusable batch.
	scraped []scrapedSample
	stats   StoreStats
}

// scrapedSample is one read exposition line awaiting its append.
type scrapedSample struct {
	sr  *series
	v   float64
	new bool // sr is not in the store yet
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
		byName: make(map[string][]*series),
		stats:  StoreStats{BudgetBytes: budgetBytes},
	}
}

// ReadExposition calls fn for every sample line of a Prometheus text
// exposition: id is the line up to its last space — the series identity
// exactly as rendered — and v the value after it, parsed by
// strconv.ParseFloat. # lines and blank lines are skipped. It stops with
// an error at the first line that has no space or whose value does not
// parse, and at the first error fn returns.
func ReadExposition(text []byte, fn func(id []byte, v float64) error) error {
	for lineNo := 1; len(text) > 0; lineNo++ {
		var line []byte
		line, text, _ = bytes.Cut(text, []byte{'\n'})
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("tsdb: line %d: no value in %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			return fmt.Errorf("tsdb: line %d: bad value in %q", lineNo, line)
		}
		if err := fn(line[:sp], v); err != nil {
			return fmt.Errorf("tsdb: line %d: %w", lineNo, err)
		}
	}
	return nil
}

// appendText records every sample of one exposition at round, keyed by
// its identity. A series is parsed once, when its identity is first
// seen. The whole text is read before anything is appended: a line
// ReadExposition cannot read, or a new identity obs.ParseSeries rejects,
// drops the scrape and returns the error.
func (st *Store) appendText(text []byte, round uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	batch := st.scraped[:0]
	err := ReadExposition(text, func(id []byte, v float64) error {
		if sr := st.series[string(id)]; sr != nil {
			batch = append(batch, scrapedSample{sr: sr, v: v})
			return nil
		}
		sr, err := newSeries(string(id))
		if err != nil {
			return err
		}
		batch = append(batch, scrapedSample{sr: sr, v: v, new: true})
		return nil
	})
	if err == nil {
		for _, s := range batch {
			sr := s.sr
			if s.new {
				sr = st.addLocked(sr)
			}
			st.appendLocked(sr, round, s.v)
		}
		st.evictLocked()
	}
	clear(batch)
	st.scraped = batch[:0]
	return err
}

// Append records one sample of the series with identity key. Rounds must
// be strictly increasing per series; stale or duplicate rounds are
// dropped. A key obs.ParseSeries rejects is an error.
func (st *Store) Append(key string, round uint64, v float64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	sr := st.series[key]
	if sr == nil {
		var err error
		if sr, err = newSeries(key); err != nil {
			return err
		}
		st.addLocked(sr)
	}
	st.appendLocked(sr, round, v)
	st.evictLocked()
	return nil
}

// addLocked registers a new series, or returns the one already
// registered under its key (an identity repeated within one scrape).
func (st *Store) addLocked(sr *series) *series {
	if cur := st.series[sr.key]; cur != nil {
		return cur
	}
	st.series[sr.key] = sr
	st.byName[sr.name] = append(st.byName[sr.name], sr)
	st.stats.Series++
	return sr
}

// appendLocked adds one sample to a registered series, dropping stale
// and duplicate rounds.
func (st *Store) appendLocked(sr *series, round uint64, v float64) {
	if n := len(sr.chunks); n > 0 && round <= sr.chunks[n-1].maxT {
		return
	}
	st.stats.Bytes += sr.appendSample(round, v)
	st.stats.Samples++
}

// evictLocked evicts oldest chunks until the store is under budget.
func (st *Store) evictLocked() {
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
		fam := slices.DeleteFunc(st.byName[victim.name], func(sr *series) bool { return sr == victim })
		if len(fam) == 0 {
			delete(st.byName, victim.name)
		} else {
			st.byName[victim.name] = fam
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
	return sr.samples(from, to)
}

// samples returns the series' samples with from <= Round <= to (to == 0
// means "to the end").
func (sr *series) samples(from, to uint64) []Sample {
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

// valueAt returns the series' newest sample at or before round.
func (sr *series) valueAt(round uint64) (Sample, bool) {
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

// earliest returns the series' oldest surviving sample.
func (sr *series) earliest() (Sample, bool) {
	if len(sr.chunks) == 0 {
		return Sample{}, false
	}
	scratch := sr.chunks[0].decode(nil)
	if len(scratch) == 0 {
		return Sample{}, false
	}
	return scratch[0], true
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
