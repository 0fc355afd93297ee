package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randJobs builds a randomized batch drawing names from a small fixed
// pool (the realistic case: benchmarks and regions are small sets).
func randJobs(rng *rand.Rand, n int) []Job {
	benches := []string{"masstree", "xapian", "imgdnn", "sphinx", ""}
	regions := []string{"dublin", "oregon", "zurich", "saopaulo"}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			HasID:          rng.Intn(2) == 0,
			ID:             rng.Int63() - rng.Int63(),
			SubmitNano:     rng.Int63() - rng.Int63(),
			DurationSec:    rng.ExpFloat64() * 1000,
			EnergyKWh:      rng.Float64(),
			EstDurationSec: rng.ExpFloat64() * 1000,
			EstEnergyKWh:   rng.Float64(),
			Benchmark:      benches[rng.Intn(len(benches))],
			Home:           regions[rng.Intn(len(regions))],
		}
		if rng.Intn(10) == 0 {
			jobs[i].SubmitNano = TimeNone
		}
	}
	return jobs
}

func randDecisions(rng *rand.Rand, n int, startSeq uint64) []Decision {
	regions := []string{"dublin", "oregon", "zurich", "saopaulo"}
	ds := make([]Decision, n)
	for i := range ds {
		ds[i] = Decision{
			Seq:             startSeq + uint64(i),
			JobID:           rng.Int63(),
			Shard:           uint32(rng.Intn(8)),
			ShardSeq:        rng.Uint64() >> 8,
			RoundNano:       rng.Int63(),
			StartNano:       rng.Int63(),
			FinishNano:      rng.Int63(),
			DecidedWallNano: rng.Int63(),
			CarbonG:         rng.Float64() * 100,
			WaterL:          rng.Float64() * 10,
			Region:          regions[rng.Intn(len(regions))],
		}
	}
	return ds
}

// TestRoundTripSubmit: encode→decode is the identity on randomized job
// batches, including reuse of the destination slice across batches.
func TestRoundTripSubmit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var c Codec
	var scratch []Job
	for trial := 0; trial < 50; trial++ {
		jobs := randJobs(rng, rng.Intn(200))
		payload, err := AppendSubmit(nil, jobs)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = c.DecodeSubmit(payload, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(scratch) != len(jobs) {
			t.Fatalf("trial %d: decoded %d jobs, want %d", trial, len(scratch), len(jobs))
		}
		for i := range jobs {
			if scratch[i] != jobs[i] {
				t.Fatalf("trial %d job %d: got %+v, want %+v", trial, i, scratch[i], jobs[i])
			}
		}
	}
}

// TestRoundTripDecisions: encode→decode ≡ identity for randomized
// decision batches, cursor included.
func TestRoundTripDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var c Codec
	var scratch []Decision
	for trial := 0; trial < 50; trial++ {
		ds := randDecisions(rng, rng.Intn(200), rng.Uint64()>>8)
		next := rng.Uint64()
		payload, err := AppendDecisions(nil, next, ds)
		if err != nil {
			t.Fatal(err)
		}
		var gotNext uint64
		scratch, gotNext, err = c.DecodeDecisions(payload, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if gotNext != next {
			t.Fatalf("trial %d: next = %d, want %d", trial, gotNext, next)
		}
		if len(scratch) != len(ds) {
			t.Fatalf("trial %d: decoded %d decisions, want %d", trial, len(scratch), len(ds))
		}
		for i := range ds {
			if scratch[i] != ds[i] {
				t.Fatalf("trial %d decision %d: got %+v, want %+v", trial, i, scratch[i], ds[i])
			}
		}
	}
}

// TestRoundTripSubmitReply covers the remaining batch codec plus the
// scalar payloads.
func TestRoundTripSubmitReply(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var c Codec
	for trial := 0; trial < 20; trial++ {
		rs := make([]SubmitResult, rng.Intn(100))
		for i := range rs {
			rs[i] = SubmitResult{Code: SubmitCode(rng.Intn(int(SubmitInvalid) + 1))}
			if rs[i].Code == SubmitOK {
				rs[i].ID = rng.Int63()
			}
		}
		got, err := c.DecodeSubmitReply(AppendSubmitReply(nil, rs), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(rs) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}

	h, err := c.DecodeHello(AppendHello(nil, Hello{Resume: 5, Flags: HelloSubscribe}))
	if err != nil || h.Resume != 5 || h.Flags != HelloSubscribe {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}
	seq, err := c.DecodeAck(AppendAck(nil, math.MaxUint64))
	if err != nil || seq != math.MaxUint64 {
		t.Fatalf("ack round trip: %d, %v", seq, err)
	}
	code, msg, err := c.DecodeError(AppendError(nil, ErrCodeShutdown, "bye"))
	if err != nil || code != ErrCodeShutdown || msg != "bye" {
		t.Fatalf("error round trip: %d %q %v", code, msg, err)
	}
}

// TestDecodeFrameErrors: every malformed-frame class maps to its typed
// error.
func TestDecodeFrameErrors(t *testing.T) {
	good := AppendFrame(nil, TypeAck, AppendAck(nil, 1))
	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantErr error
	}{
		{"short header", func(b []byte) []byte { return b[:HeaderSize-1] }, ErrTruncated},
		{"torn payload", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"zero type", func(b []byte) []byte { b[5] = 0; return b }, ErrUnknownType},
		{"unknown type", func(b []byte) []byte { b[5] = byte(maxType) + 1; return b }, ErrUnknownType},
		{"reserved bytes", func(b []byte) []byte { b[6] = 1; return b }, ErrReserved},
		{"oversize declaration", func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
			return b
		}, ErrTooLarge},
		{"checksum flip", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mangle(append([]byte(nil), good...))
			_, _, _, err := DecodeFrame(b)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("DecodeFrame = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestDecodePayloadErrors: hostile payloads (bad counts, short bodies,
// trailing junk, unknown enum values) return ErrBadPayload and never
// allocate past the payload size.
func TestDecodePayloadErrors(t *testing.T) {
	var c Codec
	huge := AppendU32(nil, math.MaxUint32) // count with no body
	if _, err := c.DecodeSubmit(huge, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("DecodeSubmit(huge count) = %v, want ErrBadPayload", err)
	}
	if _, _, err := c.DecodeDecisions(append(AppendU64(nil, 0), huge...), nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("DecodeDecisions(huge count) = %v, want ErrBadPayload", err)
	}
	if _, err := c.DecodeSubmitReply(huge, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("DecodeSubmitReply(huge count) = %v, want ErrBadPayload", err)
	}

	payload, err := AppendSubmit(nil, randJobs(rand.New(rand.NewSource(1)), 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeSubmit(payload[:len(payload)-2], nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("DecodeSubmit(short) = %v, want ErrBadPayload", err)
	}
	if _, err := c.DecodeSubmit(append(payload, 0), nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("DecodeSubmit(trailing) = %v, want ErrBadPayload", err)
	}
	if _, err := c.DecodeHello(nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("DecodeHello(empty) = %v, want ErrBadPayload", err)
	}
}

// pipeRW adapts separate reader/writer halves into an io.ReadWriter.
type pipeRW struct {
	io.Reader
	io.Writer
}

// TestConnRoundTrip drives frames through a Conn pair over an
// in-memory pipe, including payload reuse across frames.
func TestConnRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	out := NewConn(&pipeRW{Reader: &bytes.Buffer{}, Writer: &buf})
	jobs := randJobs(rand.New(rand.NewSource(3)), 40)
	payload, err := AppendSubmit(nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.WriteFrame(TypeSubmit, payload); err != nil {
		t.Fatal(err)
	}
	if err := out.WriteFrame(TypeAck, AppendAck(nil, 7)); err != nil {
		t.Fatal(err)
	}

	in := NewConn(&pipeRW{Reader: &buf, Writer: io.Discard})
	typ, p, err := in.ReadFrame()
	if err != nil || typ != TypeSubmit {
		t.Fatalf("ReadFrame 1 = %d, %v", typ, err)
	}
	got, err := in.Codec().DecodeSubmit(p, nil)
	if err != nil || !reflect.DeepEqual(got, jobs) {
		t.Fatalf("decode over conn mismatch: %v", err)
	}
	typ, p, err = in.ReadFrame()
	if err != nil || typ != TypeAck {
		t.Fatalf("ReadFrame 2 = %d, %v", typ, err)
	}
	if seq, err := in.Codec().DecodeAck(p); err != nil || seq != 7 {
		t.Fatalf("ack over conn = %d, %v", seq, err)
	}
	if _, _, err := in.ReadFrame(); err != io.EOF {
		t.Fatalf("ReadFrame at end = %v, want io.EOF", err)
	}
}

// TestConnTornFrame: a mid-frame cut surfaces as ErrTruncated, not a
// hang or a panic.
func TestConnTornFrame(t *testing.T) {
	frame := AppendFrame(nil, TypeAck, AppendAck(nil, 9))
	for cut := 1; cut < len(frame); cut++ {
		in := NewConn(&pipeRW{Reader: bytes.NewReader(frame[:cut]), Writer: io.Discard})
		if _, _, err := in.ReadFrame(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: ReadFrame = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestFrameRoundTripAllocs enforces the zero-alloc hot path that
// BenchmarkFrameRoundTrip measures, so a regression fails tests and
// not just the benchmark report.
func TestFrameRoundTripAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	jobs := randJobs(rng, 128)
	ds := randDecisions(rng, 128, 1)
	var c Codec
	var frame, payload []byte
	jobScratch := make([]Job, 0, 256)
	decScratch := make([]Decision, 0, 256)

	run := func() {
		var err error
		payload, err = AppendSubmit(payload[:0], jobs)
		if err != nil {
			t.Fatal(err)
		}
		frame = AppendFrame(frame[:0], TypeSubmit, payload)
		_, p, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if jobScratch, err = c.DecodeSubmit(p, jobScratch[:0]); err != nil {
			t.Fatal(err)
		}

		payload, err = AppendDecisions(payload[:0], ds[len(ds)-1].Seq, ds)
		if err != nil {
			t.Fatal(err)
		}
		frame = AppendFrame(frame[:0], TypeDecisions, payload)
		_, p, _, err = DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if decScratch, _, err = c.DecodeDecisions(p, decScratch[:0]); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm scratch buffers and the intern table
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("frame round trip allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkFrameRoundTrip measures the hot path end to end: encode a
// 256-job submit batch into a frame, decode it back, then the same for
// a 256-decision push. Run with -benchmem: the gate is 0 allocs/op.
func BenchmarkFrameRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	jobs := randJobs(rng, 256)
	ds := randDecisions(rng, 256, 1)
	var c Codec
	var frame, payload []byte
	jobScratch := make([]Job, 0, 512)
	decScratch := make([]Decision, 0, 512)
	var err error

	// Warm the intern table and scratch capacity outside the loop.
	payload, _ = AppendSubmit(payload[:0], jobs)
	frame = AppendFrame(frame[:0], TypeSubmit, payload)
	var bytesPerOp int

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err = AppendSubmit(payload[:0], jobs)
		if err != nil {
			b.Fatal(err)
		}
		frame = AppendFrame(frame[:0], TypeSubmit, payload)
		_, p, _, err := DecodeFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if jobScratch, err = c.DecodeSubmit(p, jobScratch[:0]); err != nil {
			b.Fatal(err)
		}
		bytesPerOp = len(frame)

		payload, err = AppendDecisions(payload[:0], ds[len(ds)-1].Seq, ds)
		if err != nil {
			b.Fatal(err)
		}
		frame = AppendFrame(frame[:0], TypeDecisions, payload)
		_, p, _, err = DecodeFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if decScratch, _, err = c.DecodeDecisions(p, decScratch[:0]); err != nil {
			b.Fatal(err)
		}
		bytesPerOp += len(frame)
	}
	b.SetBytes(int64(bytesPerOp))
	b.ReportMetric(float64(len(jobs)+len(ds))*float64(b.N)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkJSONRoundTrip is the control for BenchmarkFrameRoundTrip:
// the same 256-job batch and 256-decision push through encoding/json,
// which is what every HTTP request body and response pays. The ratio
// of the two benchmarks is the per-batch codec cost the binary
// protocol removes.
func BenchmarkJSONRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	jobs := randJobs(rng, 256)
	ds := randDecisions(rng, 256, 1)
	var jobScratch []Job
	var decScratch []Decision
	var bytesPerOp int

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jb, err := json.Marshal(jobs)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(jb, &jobScratch); err != nil {
			b.Fatal(err)
		}
		db, err := json.Marshal(ds)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(db, &decScratch); err != nil {
			b.Fatal(err)
		}
		bytesPerOp = len(jb) + len(db)
	}
	b.SetBytes(int64(bytesPerOp))
	b.ReportMetric(float64(len(jobs)+len(ds))*float64(b.N)/b.Elapsed().Seconds(), "items/s")
}
