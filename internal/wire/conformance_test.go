package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden frame fixtures")

// conformanceFrames pins one representative frame per frame type. The
// golden hex fixtures under testdata/frames are the wire contract: if
// an encoding change breaks compatibility, these tests break loudly.
// Regenerate deliberately with: go test ./internal/wire -run Conformance -update
func conformanceFrames(t *testing.T) []struct {
	name    string
	typ     Type
	payload []byte
	// check decodes the payload and verifies it round-trips to the
	// pinned struct values.
	check func(t *testing.T, c *Codec, p []byte)
} {
	t.Helper()
	hello := Hello{Resume: 12345, Flags: HelloSubscribe}
	welcome := Welcome{LastSeq: 9001, Oldest: 42, Regions: []string{"dublin", "oregon", "zurich"}}
	jobs := []Job{
		{
			HasID: true, ID: 77, SubmitNano: 1688169600000000000,
			DurationSec: 3600.5, EnergyKWh: 1.25, EstDurationSec: 3000, EstEnergyKWh: 1.0,
			Benchmark: "masstree", Home: "dublin",
		},
		{
			HasID: false, SubmitNano: TimeNone,
			DurationSec: 60, EnergyKWh: 0.05, EstDurationSec: 90, EstEnergyKWh: 0.04,
			Benchmark: "xapian", Home: "oregon",
		},
	}
	results := []SubmitResult{{Code: SubmitOK, ID: 77}, {Code: SubmitQueueFull}}
	decisions := []Decision{
		{
			Seq: 101, JobID: 77, Shard: 2, ShardSeq: 31,
			RoundNano: 1688169600000000000, StartNano: 1688169660000000000,
			FinishNano: 1688173260500000000, DecidedWallNano: 1688169600123456789,
			CarbonG: 52.5, WaterL: 1.75, Region: "zurich",
		},
	}

	submitPayload, err := AppendSubmit(nil, jobs)
	if err != nil {
		t.Fatalf("AppendSubmit: %v", err)
	}
	welcomePayload, err := AppendWelcome(nil, welcome)
	if err != nil {
		t.Fatalf("AppendWelcome: %v", err)
	}
	decisionsPayload, err := AppendDecisions(nil, 101, decisions)
	if err != nil {
		t.Fatalf("AppendDecisions: %v", err)
	}

	return []struct {
		name    string
		typ     Type
		payload []byte
		check   func(t *testing.T, c *Codec, p []byte)
	}{
		{"hello", TypeHello, AppendHello(nil, hello), func(t *testing.T, c *Codec, p []byte) {
			got, err := c.DecodeHello(p)
			if err != nil || got != hello {
				t.Fatalf("DecodeHello = %+v, %v; want %+v", got, err, hello)
			}
		}},
		{"welcome", TypeWelcome, welcomePayload, func(t *testing.T, c *Codec, p []byte) {
			got, err := c.DecodeWelcome(p)
			if err != nil || !reflect.DeepEqual(got, welcome) {
				t.Fatalf("DecodeWelcome = %+v, %v; want %+v", got, err, welcome)
			}
		}},
		{"submit", TypeSubmit, submitPayload, func(t *testing.T, c *Codec, p []byte) {
			got, err := c.DecodeSubmit(p, nil)
			if err != nil || !reflect.DeepEqual(got, jobs) {
				t.Fatalf("DecodeSubmit = %+v, %v; want %+v", got, err, jobs)
			}
		}},
		{"submit_reply", TypeSubmitReply, AppendSubmitReply(nil, results), func(t *testing.T, c *Codec, p []byte) {
			got, err := c.DecodeSubmitReply(p, nil)
			if err != nil || !reflect.DeepEqual(got, results) {
				t.Fatalf("DecodeSubmitReply = %+v, %v; want %+v", got, err, results)
			}
		}},
		{"decisions", TypeDecisions, decisionsPayload, func(t *testing.T, c *Codec, p []byte) {
			got, next, err := c.DecodeDecisions(p, nil)
			if err != nil || next != 101 || !reflect.DeepEqual(got, decisions) {
				t.Fatalf("DecodeDecisions = %+v, next=%d, %v; want %+v, next=101", got, next, err, decisions)
			}
		}},
		{"ack", TypeAck, AppendAck(nil, 98765), func(t *testing.T, c *Codec, p []byte) {
			got, err := c.DecodeAck(p)
			if err != nil || got != 98765 {
				t.Fatalf("DecodeAck = %d, %v; want 98765", got, err)
			}
		}},
		{"error", TypeError, AppendError(nil, ErrCodeProtocol, "expected hello"), func(t *testing.T, c *Codec, p []byte) {
			code, msg, err := c.DecodeError(p)
			if err != nil || code != ErrCodeProtocol || msg != "expected hello" {
				t.Fatalf("DecodeError = %d, %q, %v", code, msg, err)
			}
		}},
	}
}

// TestConformanceGoldenFrames pins the full framed encoding (header +
// payload) of every frame type against committed hex fixtures, and
// verifies the fixture bytes decode back to the pinned values.
func TestConformanceGoldenFrames(t *testing.T) {
	for _, tc := range conformanceFrames(t) {
		t.Run(tc.name, func(t *testing.T) {
			frame := AppendFrame(nil, tc.typ, tc.payload)
			path := filepath.Join("testdata", "frames", tc.name+".hex")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hex.EncodeToString(frame)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update): %v", err)
			}
			want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
			if err != nil {
				t.Fatalf("bad fixture hex: %v", err)
			}
			if !bytes.Equal(frame, want) {
				t.Fatalf("encoding of %s changed:\n got %x\nwant %x\nwire compatibility break — bump Version or revert", tc.name, frame, want)
			}

			// The fixture must decode back to the pinned values.
			typ, payload, n, err := DecodeFrame(want)
			if err != nil {
				t.Fatalf("DecodeFrame(fixture): %v", err)
			}
			if typ != tc.typ || n != len(want) {
				t.Fatalf("DecodeFrame(fixture) = type %d, n %d; want type %d, n %d", typ, n, tc.typ, len(want))
			}
			tc.check(t, &Codec{}, payload)
		})
	}
}

// TestConformanceHeaderLayout pins the exact header byte layout so the
// offsets in the package doc stay true.
func TestConformanceHeaderLayout(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	frame := AppendFrame(nil, TypeAck, payload)
	if len(frame) != HeaderSize+4 {
		t.Fatalf("frame length = %d, want %d", len(frame), HeaderSize+4)
	}
	wantHdr := []byte{
		'W', 'W', 'S', '1', // magic, little-endian 0x31535757
		1,             // version
		byte(TypeAck), // frame type
		0, 0,          // reserved
		4, 0, 0, 0, // payload length
	}
	if !bytes.Equal(frame[:12], wantHdr) {
		t.Fatalf("header = %x, want %x", frame[:12], wantHdr)
	}
	if got := Checksum(payload); got != le32(frame[12:16]) {
		t.Fatalf("header crc = %x, want %x", le32(frame[12:16]), got)
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
