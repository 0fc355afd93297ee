package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed series sample: the full metric name (for a
// histogram family that includes the _bucket/_sum/_count suffix), its
// labels, and the value.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one declared metric family: its HELP text, TYPE, and
// every sample attributed to it.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// ParseProm parses a Prometheus text-format exposition strictly: every
// sample must belong to a family declared with both # HELP and # TYPE
// before its first sample, names and labels must be well-formed, values
// must parse, and no series may repeat. It returns the families keyed by
// name. This is the parser behind LintProm, the CI metrics-lint job, and
// loadgen's server-side percentile scrape.
func ParseProm(data []byte) (map[string]*PromFamily, error) {
	families := make(map[string]*PromFamily)
	seen := make(map[string]bool) // series dedupe: name + sorted labels
	var lineNo int
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
			}
			fam := families[name]
			if fam == nil {
				fam = &PromFamily{Name: name}
				families[name] = fam
			}
			switch kind {
			case "HELP":
				if fam.Help != "" {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				if rest == "" {
					return nil, fmt.Errorf("line %d: empty HELP for %s", lineNo, name)
				}
				fam.Help = rest
			case "TYPE":
				if fam.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(fam.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					fam.Type = rest
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, rest, name)
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := families[familyOf(s.Name, families)]
		if fam == nil || fam.Type == "" || fam.Help == "" {
			return nil, fmt.Errorf("line %d: series %s has no preceding # HELP and # TYPE (undocumented metric)", lineNo, s.Name)
		}
		if fam.Type != "histogram" && fam.Type != "summary" && s.Name != fam.Name {
			return nil, fmt.Errorf("line %d: series %s does not match its family name %s", lineNo, s.Name, fam.Name)
		}
		key := seriesKey(s)
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)
	}
	return families, nil
}

// LintProm parses the exposition and checks the semantic rules on top:
// counters end in _total, histogram families have consistent cumulative
// buckets (ascending le, non-decreasing counts, a +Inf bucket equal to
// _count) and exactly one _sum and _count per label set.
func LintProm(data []byte) error {
	families, err := ParseProm(data)
	if err != nil {
		return err
	}
	for _, fam := range families {
		if fam.Type == "" || fam.Help == "" {
			// Declared but never sampled in full — a HELP without TYPE or
			// vice versa is a malformed family even with no samples.
			return fmt.Errorf("family %s: missing %s", fam.Name, map[bool]string{true: "# TYPE", false: "# HELP"}[fam.Type == ""])
		}
		switch fam.Type {
		case "counter":
			if !strings.HasSuffix(fam.Name, "_total") {
				return fmt.Errorf("family %s: counters must end in _total", fam.Name)
			}
			for _, s := range fam.Samples {
				if s.Value < 0 || math.IsNaN(s.Value) {
					return fmt.Errorf("family %s: counter sample %g is not a non-negative number", fam.Name, s.Value)
				}
			}
		case "histogram":
			if err := lintHistogram(fam); err != nil {
				return err
			}
		}
	}
	return nil
}

// lintHistogram checks one histogram family's cumulative consistency,
// grouped by the label set without le.
func lintHistogram(fam *PromFamily) error {
	type group struct {
		les      []float64
		cums     []uint64
		sumSeen  int
		cntSeen  int
		count    float64
		infCount float64
		infSeen  bool
	}
	groups := make(map[string]*group)
	groupOf := func(s PromSample) *group {
		key := labelKey(s.Labels, "le")
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		return g
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("family %s: bucket without le label", fam.Name)
			}
			edge, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("family %s: bad le %q", fam.Name, le)
			}
			g := groupOf(s)
			if math.IsInf(edge, 1) {
				g.infSeen, g.infCount = true, s.Value
			}
			g.les = append(g.les, edge)
			g.cums = append(g.cums, uint64(s.Value))
		case fam.Name + "_sum":
			groupOf(s).sumSeen++
		case fam.Name + "_count":
			g := groupOf(s)
			g.cntSeen++
			g.count = s.Value
		default:
			return fmt.Errorf("family %s: unexpected histogram series %s", fam.Name, s.Name)
		}
	}
	for key, g := range groups {
		at := fam.Name
		if key != "" {
			at += "{" + key + "}"
		}
		if g.sumSeen != 1 || g.cntSeen != 1 {
			return fmt.Errorf("%s: want exactly one _sum and _count (got %d and %d)", at, g.sumSeen, g.cntSeen)
		}
		if !g.infSeen {
			return fmt.Errorf("%s: no +Inf bucket", at)
		}
		if g.infCount != g.count {
			return fmt.Errorf("%s: +Inf bucket %g != _count %g", at, g.infCount, g.count)
		}
		for i := 1; i < len(g.les); i++ {
			if !(g.les[i] > g.les[i-1]) {
				return fmt.Errorf("%s: bucket edges not ascending (%g then %g)", at, g.les[i-1], g.les[i])
			}
			if g.cums[i] < g.cums[i-1] {
				return fmt.Errorf("%s: cumulative bucket counts decrease at le=%g", at, g.les[i])
			}
		}
	}
	return nil
}

// HistogramBuckets extracts a histogram family's cumulative (le, count)
// pairs for the label group matching want (nil matches the unlabeled
// group), sorted ascending and ready for QuantileFromBuckets.
func HistogramBuckets(fam *PromFamily, want map[string]string) (les []float64, cums []uint64) {
	for _, s := range fam.Samples {
		if s.Name != fam.Name+"_bucket" {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if !match || len(s.Labels)-1 != len(want) {
			continue
		}
		edge, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		les = append(les, edge)
		cums = append(cums, uint64(s.Value))
	}
	sort.Sort(&bucketSort{les, cums})
	return les, cums
}

// bucketSort co-sorts (le, cum) pairs by ascending edge.
type bucketSort struct {
	les  []float64
	cums []uint64
}

// Len implements sort.Interface.
func (b *bucketSort) Len() int { return len(b.les) }

// Less implements sort.Interface, ordering by bucket edge.
func (b *bucketSort) Less(i, j int) bool { return b.les[i] < b.les[j] }

// Swap implements sort.Interface, keeping edges and counts paired.
func (b *bucketSort) Swap(i, j int) {
	b.les[i], b.les[j] = b.les[j], b.les[i]
	b.cums[i], b.cums[j] = b.cums[j], b.cums[i]
}

// parseComment parses a "# HELP name text" / "# TYPE name type" line.
func parseComment(line string) (kind, name, rest string, err error) {
	body, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return "", "", "", fmt.Errorf("comment %q is not a # HELP or # TYPE line", line)
	}
	kind, body, ok = strings.Cut(body, " ")
	if !ok || (kind != "HELP" && kind != "TYPE") {
		return "", "", "", fmt.Errorf("comment %q is not a # HELP or # TYPE line", line)
	}
	name, rest, _ = strings.Cut(body, " ")
	if name == "" {
		return "", "", "", fmt.Errorf("%s line with no metric name", kind)
	}
	return kind, name, rest, nil
}

// parseSample parses one "name{labels} value" sample line: the series
// identity up to the label set's closing brace (or the first space), then
// the value.
func parseSample(line string) (PromSample, error) {
	s := PromSample{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	if line[i] == '{' {
		end := -1
		inQuote := false
		for j := i + 1; j < len(line) && end < 0; j++ {
			switch {
			case inQuote && line[j] == '\\':
				j++
			case line[j] == '"':
				inQuote = !inQuote
			case !inQuote && line[j] == '}':
				end = j
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		i = end + 1
	}
	var err error
	if s.Name, s.Labels, err = ParseSeries(line[:i]); err != nil {
		return s, fmt.Errorf("%w in %q", err, line)
	}
	rest := strings.TrimSpace(line[i:])
	// A trailing timestamp would be a second field; this exporter never
	// writes one, and the strict form rejects it.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	if s.Value, err = strconv.ParseFloat(rest, 64); err != nil {
		return s, fmt.Errorf("bad value %q", rest)
	}
	return s, nil
}

// ParseSeries parses a series identity — a metric name, optionally
// followed by a {k="v",...} label set — exactly as an exposition line
// spells it before the value, and nothing else: the whole string must be
// the identity. It is the one label grammar in the repo: ParseProm reads
// every sample line's identity with it, and the flight recorder reads
// its stored identities and query references with it.
func ParseSeries(id string) (name string, labels map[string]string, err error) {
	i := strings.IndexByte(id, '{')
	if i < 0 {
		i = len(id)
	}
	name = id[:i]
	if !validMetricName(name) {
		return "", nil, fmt.Errorf("invalid metric name %q", name)
	}
	if i == len(id) {
		return name, nil, nil
	}
	if id[len(id)-1] != '}' {
		return "", nil, fmt.Errorf("unterminated label set in %q", id)
	}
	if labels, err = parseLabels(id[i+1 : len(id)-1]); err != nil {
		return "", nil, err
	}
	return name, labels, nil
}

// parseLabels parses `k="v",k2="v2"`.
func parseLabels(body string) (map[string]string, error) {
	out := make(map[string]string)
	for len(body) > 0 {
		eq := strings.Index(body, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label pair %q", body)
		}
		name := body[:eq]
		if !validLabelName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		body = body[eq+1:]
		if len(body) == 0 || body[0] != '"' {
			return nil, fmt.Errorf("label %s value is not quoted", name)
		}
		val := strings.Builder{}
		j := 1
		for ; j < len(body); j++ {
			c := body[j]
			if c == '\\' {
				j++
				if j >= len(body) {
					return nil, fmt.Errorf("dangling escape in label %s", name)
				}
				switch body[j] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %s", body[j], name)
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if j >= len(body) {
			return nil, fmt.Errorf("unterminated value for label %s", name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate label %s", name)
		}
		out[name] = val.String()
		body = body[j+1:]
		if len(body) > 0 {
			if body[0] != ',' {
				return nil, fmt.Errorf("expected ',' between labels at %q", body)
			}
			body = body[1:]
		}
	}
	return out, nil
}

// familyOf resolves a sample name to its declared family: exact match,
// or the base name of a histogram/summary suffix.
func familyOf(name string, families map[string]*PromFamily) string {
	if f, ok := families[name]; ok && f.Type != "" {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f, exists := families[base]; exists && (f.Type == "histogram" || f.Type == "summary") {
				return base
			}
		}
	}
	return name
}

// seriesKey is the dedupe identity: name plus labelKey.
func seriesKey(s PromSample) string {
	return s.Name + "{" + labelKey(s.Labels, "") + "}"
}

// labelKey renders a label set, minus the label named skip, as sorted
// k="v" pairs with Go-quoted values: the same key whatever order the
// pairs were written in, and a comma or quote inside a value cannot pass
// for a pair boundary.
func labelKey(labels map[string]string, skip string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k != skip {
			parts = append(parts, k+"="+strconv.Quote(v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
