package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/wire"
)

// benchJobsBody is the POST /v1/jobs body the durable-replay benchmark
// sends: json.Marshal of 512 JobSpecs of a generated trace.
func benchJobsBody(tb testing.TB) []byte {
	tb.Helper()
	jobs := genTrace(tb, testEnv(tb), 23000, 2)
	if len(jobs) < 512 {
		tb.Fatalf("trace has %d jobs, want 512", len(jobs))
	}
	specs := make([]JobSpec, 512)
	for i, j := range jobs[:512] {
		specs[i] = specFor(j)
	}
	body, err := json.Marshal(specs)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// jobsFuzzSeeds are FuzzDecodeJobSpecs' committed inputs: the bodies
// clients send, and each construct the scanner must leave to
// encoding/json.
func jobsFuzzSeeds(tb testing.TB) map[string][]byte {
	return map[string][]byte{
		"array512":        benchJobsBody(tb),
		"object":          []byte(`{"id":7,"benchmark":"canneal","home":"oregon","submit":"2023-07-01T00:05:00.5Z","duration_s":120.5,"energy_kwh":0.25,"est_duration_s":118,"est_energy_kwh":2.5E-1}`),
		"escape":          []byte(`{"benchmark":"can\u006eeal","home":"oregon"}`),
		"unknown_key":     []byte(`[{"benchmark":"canneal","home":"oregon","priority":3}]`),
		"duplicate_key":   []byte(`{"benchmark":"canneal","home":"oregon","benchmark":"dedup"}`),
		"case_folded_key": []byte(`{"Benchmark":"canneal","home":"oregon"}`),
		"id_null":         []byte(`{"id":null,"benchmark":"canneal","home":"oregon"}`),
		"id_fraction":     []byte(`{"id":1.5,"benchmark":"canneal","home":"oregon"}`),
		"float_range":     []byte(`{"benchmark":"canneal","home":"oregon","duration_s":1e400}`),
		"negative_zero":   []byte(`{"id":-0,"benchmark":"canneal","home":"oregon","energy_kwh":-0}`),
		"offset_instant":  []byte(`{"benchmark":"canneal","home":"oregon","submit":"2023-07-01T02:05:00+02:00"}`),
		"empty_array":     []byte(" [\n] "),
		"trailing_bytes":  []byte(`{"benchmark":"canneal","home":"oregon"} {}`),
	}
}

// decisionsSeed is one FuzzDecisionsJSON input: a page read after cursor
// since, whose records (fuzzRecords' layout) may place jobs in region.
type decisionsSeed struct {
	since  uint64
	region string
	raw    []byte
}

// fuzzRecordSize is the bytes fuzzRecords cuts into one record: the
// merged seq, the record's seq, job id, round, start, finish and decided
// instants, carbon and water as float64 bits (eight bytes each), then a
// region index and a shard (two bytes each).
const fuzzRecordSize = 76

// fuzzParts is the partition FuzzDecisionsJSON's records are placed in.
func fuzzParts(name string) [][]region.ID {
	return [][]region.ID{{region.Oregon, region.ID(name)}, {region.ID(name)}}
}

// fuzzRecords cuts raw into records of fuzzParts; a short tail is dropped.
func fuzzRecords(raw []byte, parts [][]region.ID) []mergedRecord {
	var recs []mergedRecord
	for ; len(raw) >= fuzzRecordSize; raw = raw[fuzzRecordSize:] {
		u := func(i int) uint64 { return binary.LittleEndian.Uint64(raw[8*i:]) }
		d := decRecord{
			seq: u(1), jobID: int64(u(2)),
			round: int64(u(3)), start: int64(u(4)), finish: int64(u(5)), decidedWall: int64(u(6)),
			carbonG: math.Float64frombits(u(7)), waterL: math.Float64frombits(u(8)),
			shard: binary.LittleEndian.Uint16(raw[74:]) % uint16(len(parts)),
		}
		d.region = binary.LittleEndian.Uint16(raw[72:]) % uint16(len(parts[d.shard]))
		recs = append(recs, mergedRecord{seq: u(0), d: d})
	}
	return recs
}

// appendFuzzRecord appends m in fuzzRecords' layout.
func appendFuzzRecord(dst []byte, m mergedRecord) []byte {
	d := m.d
	for _, v := range []uint64{m.seq, d.seq, uint64(d.jobID), uint64(d.round), uint64(d.start), uint64(d.finish),
		uint64(d.decidedWall), math.Float64bits(d.carbonG), math.Float64bits(d.waterL)} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(dst, d.region), d.shard)
}

// decisionsFuzzSeeds are FuzzDecisionsJSON's committed inputs: a served
// page, the empty page, footprints at each edge of encoding/json's float
// rule and past it, instants at the ends of a record's range, and regions
// encoding/json escapes.
func decisionsFuzzSeeds() map[string]decisionsSeed {
	at := func(d time.Duration) int64 { return testStart.Add(d).UnixNano() }
	rec := func(seq uint64, carbon, water float64) mergedRecord {
		return mergedRecord{seq: seq, d: decRecord{
			seq: seq + 3, jobID: int64(seq) * 10,
			round: at(time.Duration(seq) * time.Minute), start: at(time.Duration(seq)*time.Minute + 1500*time.Millisecond),
			finish: at(time.Duration(seq)*time.Hour + 7), decidedWall: time.Date(2026, 10, 19, 6, 4, 53, 120000000, time.UTC).UnixNano(),
			carbonG: carbon, waterL: water, region: uint16(seq % 2), shard: uint16(seq % 3 / 2),
		}}
	}
	page := func(recs ...mergedRecord) []byte {
		var raw []byte
		for _, m := range recs {
			raw = appendFuzzRecord(raw, m)
		}
		return raw
	}
	edge := rec(9, 0, -0.0)
	edge.d.round, edge.d.start, edge.d.finish, edge.d.decidedWall = wire.TimeNone, math.MinInt64+1, math.MaxInt64, 0
	return map[string]decisionsSeed{
		"page":          {40, "madrid", page(rec(41, 123.456, 0.5), rec(42, 7, 19.25), rec(43, 1e-6, 9.999999999999999e20))},
		"empty":         {42, "oregon", nil},
		"nan":           {0, "madrid", page(rec(1, math.NaN(), 1))},
		"inf":           {0, "madrid", page(rec(1, 1, math.Inf(1)), rec(2, math.Inf(-1), 1))},
		"tiny":          {0, "madrid", page(rec(1, 1e-7, -5e-324))},
		"huge":          {0, "madrid", page(rec(1, 1e21, -1.5e300))},
		"instant_edges": {8, "madrid", page(edge)},
		"escaped":       {0, "<m&d>", page(rec(1, 1, 1))},
		"non_ascii":     {0, "zürich", page(rec(1, 1, 1), rec(2, 1, 1))},
	}
}

// TestHTTPFuzzCorpusCommitted keeps testdata/fuzz/FuzzDecodeJobSpecs and
// testdata/fuzz/FuzzDecisionsJSON in sync with their seed functions;
// -update rewrites them.
func TestHTTPFuzzCorpusCommitted(t *testing.T) {
	for name, body := range jobsFuzzSeeds(t) {
		checkCorpusFile(t, "FuzzDecodeJobSpecs", name, fmt.Sprintf("[]byte(%s)\n", strconv.Quote(string(body))))
	}
	for name, s := range decisionsFuzzSeeds() {
		checkCorpusFile(t, "FuzzDecisionsJSON", name,
			fmt.Sprintf("uint64(%d)\nstring(%s)\n[]byte(%s)\n", s.since, strconv.Quote(s.region), strconv.Quote(string(s.raw))))
	}
}

// FuzzDecodeJobSpecs is the scanner against encoding/json on any bytes: a
// body the scanner accepts, json.Unmarshal accepts too and decodes to a
// DeepEqual result.
func FuzzDecodeJobSpecs(f *testing.F) {
	for _, body := range jobsFuzzSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanJobSpecs(body)
		if !ok {
			return
		}
		want, err := unmarshalJobSpecs(body)
		if err != nil {
			t.Fatalf("scanned a body encoding/json rejects (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanned %q\n as %+v\nencoding/json: %+v", body, got, want)
		}
	})
}

// TestScanBracesInStringsReserveLittle: a one-spec body whose string
// holds a mebibyte of braces reserves no room for a spec per brace.
func TestScanBracesInStringsReserveLittle(t *testing.T) {
	body := []byte(`[{"benchmark":"` + strings.Repeat("{", 1<<20) + `","home":"oregon"}]`)
	var specs []JobSpec
	var ok bool
	grew := allocatedBy(func() { specs, ok = scanJobSpecs(body) })
	if !ok || len(specs) != 1 {
		t.Fatalf("scanned %d specs, ok %t", len(specs), ok)
	}
	if grew > 4*uint64(len(body)) {
		t.Fatalf("scanning a %d-byte body allocated %d bytes", len(body), grew)
	}
}

// encodeDecisionsResponse is the GET /v1/decisions body through
// encoding/json: the page as MergedDecisions, Next its last seq or since.
func encodeDecisionsResponse(parts [][]region.ID, since uint64, recs []mergedRecord) ([]byte, error) {
	resp := DecisionsResponse{Decisions: make([]MergedDecision, 0, len(recs)), Next: since}
	for _, m := range recs {
		md := MergedDecision{Decision: m.d.decision(parts[m.d.shard]), Shard: int(m.d.shard), ShardSeq: m.d.seq}
		md.Seq = m.seq
		resp.Decisions = append(resp.Decisions, md)
		resp.Next = m.seq
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// FuzzDecisionsJSON is the appender against json.Encoder on random
// records: it writes encoding/json's bytes, or declines — and of pages in
// ASCII, declines only one encoding/json refuses or whose region it
// escapes.
func FuzzDecisionsJSON(f *testing.F) {
	for _, s := range decisionsFuzzSeeds() {
		f.Add(s.since, s.region, s.raw)
	}
	f.Fuzz(func(t *testing.T, since uint64, name string, raw []byte) {
		parts := fuzzParts(name)
		recs := fuzzRecords(raw, parts)
		got, ok := appendDecisionsJSON(nil, parts, since, recs)
		want, err := encodeDecisionsResponse(parts, since, recs)
		switch {
		case ok && err != nil:
			t.Fatalf("appended a page encoding/json refuses (%v):\n%s", err, got)
		case ok && !bytes.Equal(got, want):
			t.Fatalf("appended\n%s\nencoding/json:\n%s", got, want)
		case !ok && err == nil:
			// The appender takes any ASCII name encoding/json writes as
			// is; it may leave other text to encoding/json.
			if quoted, _ := json.Marshal(name); string(quoted) == `"`+name+`"` && utf8.RuneCountInString(name) == len(name) {
				t.Fatalf("declined a page encoding/json writes as is:\n%s", want)
			}
		}
	})
}

// referenceServeJobs is POST /v1/jobs through encoding/json alone: the
// reply every served reply must equal byte for byte.
func referenceServeJobs(s *Server, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	specs, err := unmarshalJobSpecs(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, SubmitResponse{Error: err.Error()})
		return w
	}
	out := make([]Admission, len(specs))
	n := s.submitFrame(specs, out, true)
	ids := make([]int, 0, n)
	for _, a := range out[:n] {
		if a.Err != nil {
			writeJSON(w, submitErrorStatus(a.Err), SubmitResponse{Accepted: ids, Error: a.Err.Error()})
			return w
		}
		ids = append(ids, a.ID)
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{Accepted: ids})
	return w
}

// sameDecisionPages checks GET /v1/decisions at several cursors and
// limits against encoding/json's encoding of srv.Decisions, and returns
// how many of those pages the appender declined.
func sameDecisionPages(t *testing.T, srv *Server) (declined int) {
	t.Helper()
	var last uint64
	if all := srv.Decisions(0, 0); len(all) > 0 {
		last = all[len(all)-1].Seq
	}
	for _, since := range []uint64{0, 1, 7, last / 2, max(last, 1) - 1, last, last + 7} {
		for _, limit := range []int{0, 1, 4, 64} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("%s?since=%d&limit=%d", PathDecisions, since, limit), nil))
			resp := DecisionsResponse{Decisions: srv.Decisions(since, limit), Next: since}
			if n := len(resp.Decisions); n > 0 {
				resp.Next = resp.Decisions[n-1].Seq
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("since=%d limit=%d: %d %q\n%s\nencoding/json:\n%s", since, limit, rec.Code, rec.Header().Get("Content-Type"), rec.Body, &want)
			}
			if _, ok := appendDecisionsJSON(nil, srv.parts, since, srv.pageRecords(since, limit)); !ok {
				declined++
			}
		}
	}
	return declined
}

// TestHTTPJSONMatchesEncodingJSON: on a one-shard and a two-shard service,
// every GET /v1/decisions body — before the first round, when every page
// is empty, and after the drain — and every POST /v1/jobs status and reply
// is byte for byte what encoding/json gives, and the bodies clients send
// take the scanner.
func TestHTTPJSONMatchesEncodingJSON(t *testing.T) {
	jobs := genTrace(t, testEnv(t), 500, 2)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := func() Config {
				return Config{Env: testEnv(t), NewScheduler: coreFactory(t), Shards: shards, Tolerance: 0.5, Round: time.Minute}
			}
			fresh, err := New(cfg())
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Stop()
			if n := sameDecisionPages(t, fresh) + sameDecisionPages(t, drained(t, cfg(), jobs)); n > 0 {
				t.Fatalf("the appender declined %d served pages", n)
			}

			parts := fresh.Partitions()
			home := func(i int) region.ID { return parts[i%shards][0] }
			spec := func(id int, h region.ID) JobSpec {
				return JobSpec{ID: &id, Benchmark: "canneal", Home: h, Submit: testStart.Add(time.Duration(id) * time.Second), DurationSec: 90, EnergyKWh: 0.125}
			}
			marshal := func(v any) string {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			const taken = 100
			for _, tc := range []struct {
				name, body string
				scanned    bool
			}{
				{"array", marshal([]JobSpec{spec(1, home(0)), spec(2, home(1)), spec(3, home(2))}), true},
				{"object", marshal(JobSpec{Benchmark: "dedup", Home: home(1)}), true},
				{"accepted prefix", marshal([]JobSpec{spec(1, home(0)), spec(2, home(1)), spec(taken, home(0)), spec(4, home(1))}), true},
				{"empty array", "[]", true},
				{"unknown home", `{"benchmark":"canneal","home":"atlantis"}`, true},
				{"unknown benchmark", fmt.Sprintf(`{"benchmark":"nope","home":%q}`, home(0)), true},
				{"malformed", fmt.Sprintf(`[{"benchmark":"canneal","home":%q},`, home(0)), false},
				{"escaped", fmt.Sprintf(`{"benchmark":"cann\u0065al","home":%q}`, home(1)), false},
				{"fractional id", fmt.Sprintf(`{"id":1.5,"benchmark":"canneal","home":%q}`, home(0)), false},
			} {
				served, ref := newTestServer(t, cfg()), newTestServer(t, cfg())
				for _, s := range []*Server{served, ref} {
					if _, err := s.Submit(spec(taken, home(0))); err != nil {
						t.Fatal(err)
					}
				}
				if _, ok := scanJobSpecs([]byte(tc.body)); ok != tc.scanned {
					t.Errorf("%s: scanned %t, want %t", tc.name, ok, tc.scanned)
				}
				got := httptest.NewRecorder()
				served.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, PathJobs, strings.NewReader(tc.body)))
				want := referenceServeJobs(ref, []byte(tc.body))
				if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("%s: %d %s, encoding/json: %d %s", tc.name, got.Code, got.Body, want.Code, want.Body)
				}
			}
		})
	}
}

// TestDecisionsFallbackMatchesEncodingJSON: pages the appender declines,
// here for a region name encoding/json escapes, are served through
// encoding/json with the same bytes.
func TestDecisionsFallbackMatchesEncodingJSON(t *testing.T) {
	regions := region.Defaults()
	regions[0].ID = "zürich<&>"
	env, err := region.NewEnvironment(regions, energy.Table, testStart, 24*3, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Env: env, NewScheduler: coreFactory(t), Shards: 2, Tolerance: 0.5, Round: time.Minute}
	if sameDecisionPages(t, drained(t, cfg, genTrace(t, env, 500, 2))) == 0 {
		t.Fatal("the appender took every page; none went through the fallback")
	}
}

// TestNaNPageAnswersError: a decisions page holding a value encoding/json
// refuses — a NaN footprint — is declined by the appender and answered
// with a non-200 status and a JSON error body, not 200 and nothing.
func TestNaNPageAnswersError(t *testing.T) {
	parts, page := benchDecisionPage()
	page[3].d.carbonG = math.NaN()
	if _, ok := appendDecisionsJSON(nil, parts, 0, page); ok {
		t.Fatal("the appender took a page with a NaN footprint")
	}
	var d MergedDecision
	d.CarbonG = math.NaN()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, DecisionsResponse{Decisions: []MergedDecision{d}})
	var body SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code == http.StatusOK || err != nil || body.Error == "" {
		t.Fatalf("NaN page: status %d, body %q (decode err %v), want a non-200 status and a JSON error", rec.Code, rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("NaN page: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

// newTestServer is New(cfg), stopped when the test ends.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

// TestJobsBodyDeclaredLengthReservesNothing: a POST /v1/jobs request
// that declares the largest body and sends none allocates for what
// arrives, not for what it declared.
func TestJobsBodyDeclaredLengthReservesNothing(t *testing.T) {
	srv := newTestServer(t, Config{Env: testEnv(t), Scheduler: newScheduler(t, false), Tolerance: 0.5})
	h := srv.Handler()
	r := httptest.NewRequest(http.MethodPost, PathJobs, strings.NewReader(""))
	r.ContentLength = maxJobsBody
	rec := httptest.NewRecorder()
	grew := allocatedBy(func() { h.ServeHTTP(rec, r) })
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want %d", rec.Code, http.StatusBadRequest)
	}
	if grew > 64<<10 {
		t.Fatalf("a request declaring %d bytes and sending none allocated %d bytes", maxJobsBody, grew)
	}
}

// benchDecisionPage is a 512-decision page over the five default regions.
func benchDecisionPage() ([][]region.ID, []mergedRecord) {
	parts := [][]region.ID{{region.Zurich, region.Madrid, region.Oregon, region.Milan, region.Mumbai}}
	rng := rand.New(rand.NewPCG(1, 2))
	wall := time.Date(2026, 10, 19, 6, 0, 0, 0, time.UTC).UnixNano()
	recs := make([]mergedRecord, 512)
	for i := range recs {
		round := testStart.Add(time.Duration(i/16) * time.Minute).UnixNano()
		start := round + rng.Int64N(int64(time.Hour))
		recs[i] = mergedRecord{seq: uint64(i + 1), d: decRecord{
			seq: uint64(i + 1), jobID: int64(i), round: round, start: start,
			finish: start + rng.Int64N(int64(6*time.Hour)), decidedWall: wall + rng.Int64N(int64(time.Second)),
			carbonG: rng.Float64() * 400, waterL: rng.Float64() * 20, region: uint16(i % 5),
		}}
	}
	return parts, recs
}

// BenchmarkDecodeJobSpecs512 decodes the durable-replay benchmark's
// 512-spec POST body through encoding/json and through the served path.
func BenchmarkDecodeJobSpecs512(b *testing.B) {
	body := benchJobsBody(b)
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := unmarshalJobSpecs(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeJobSpecs(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecisionsJSON encodes a 512-decision GET /v1/decisions page
// through encoding/json (the page as MergedDecisions, then json.Encoder)
// and through the appender.
func BenchmarkDecisionsJSON(b *testing.B) {
	parts, recs := benchDecisionPage()
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := encodeDecisionsResponse(parts, 0, recs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, ok := appendDecisionsJSON(make([]byte, 0, 32+len(recs)*decisionJSONSize), parts, 0, recs); !ok {
				b.Fatal("declined")
			}
		}
	})
}
