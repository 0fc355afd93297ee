// Package wire implements the binary streaming protocol spoken between
// waterwised and persistent-connection clients (cmd/loadgen -protocol
// stream, internal/server's StreamListener).
//
// The protocol carries the same semantics as POST /v1/jobs and
// GET /v1/decisions — the same typed submit errors, the same dedupe
// index, the same dense-seq decision stream — over one long-lived TCP
// connection per client. Every message is a length-prefixed frame:
//
//	offset  size  field
//	0       4     magic "WWS1" (little-endian uint32 0x31535757)
//	4       1     protocol version (currently 1)
//	5       1     frame type
//	6       2     reserved (must be zero)
//	8       4     payload length (little-endian, <= MaxPayload)
//	12      4     CRC32-C (Castagnoli) of the payload
//	16      n     payload
//
// All multi-byte integers are little-endian. Strings are encoded as a
// one-byte length followed by UTF-8 bytes (the protocol never needs
// names longer than 255 bytes). Times travel as int64 Unix nanoseconds;
// the sentinel TimeNone encodes the zero time.
//
// The primitives under the frame payloads — Reader, with its count
// check, and the AppendU32/U64/I64/F64/Str8/Str32/Time encoders — are
// the service's one binary codec: internal/server encodes its
// write-ahead log records and snapshots with them too.
//
// The encode path is allocation-free: AppendXxx functions append into a
// caller-owned scratch buffer. The decode path reuses caller-owned
// destination slices and interns region/benchmark names through a Codec
// so steady-state decoding does not allocate either (see
// BenchmarkFrameRoundTrip).
package wire

import (
	"math"
	"time"
)

// Version is the protocol version carried in every frame header.
// Peers reject any other value with ErrVersion.
const Version = 1

// Magic is the little-endian uint32 spelling "WWS1" that opens every
// frame.
const Magic uint32 = 0x31535757

// MaxPayload caps a frame's declared payload length. Decoders reject
// larger declarations before allocating, so a hostile length prefix can
// never force a large allocation. Matches the 16 MiB HTTP body cap.
const MaxPayload = 16 << 20

// HeaderSize is the fixed size of a frame header in bytes.
const HeaderSize = 16

// Type identifies a frame's payload encoding.
type Type uint8

// Frame types. The client opens with Hello, the server answers with
// Welcome, then Submit/SubmitReply and Decisions/Ack flow concurrently
// until either side closes. Error is terminal: the sender closes the
// connection after writing it.
const (
	// TypeHello is the client's opening frame: a resume cursor and
	// option flags.
	TypeHello Type = 1
	// TypeWelcome is the server's handshake reply: log cursor bounds
	// and the served region set.
	TypeWelcome Type = 2
	// TypeSubmit carries a batch of job submissions (client -> server).
	TypeSubmit Type = 3
	// TypeSubmitReply answers one Submit frame with a per-job result
	// code and assigned id, in submission order.
	TypeSubmitReply Type = 4
	// TypeDecisions pushes a batch of placement decisions
	// (server -> client) together with the cursor to resume from.
	TypeDecisions Type = 5
	// TypeAck acknowledges pushed decisions up to a seq; it advances
	// the server's flow-control window.
	TypeAck Type = 6
	// TypeError reports a fatal protocol error; the connection closes
	// after it.
	TypeError Type = 7
)

// maxType is the highest assigned frame type; frames declaring a higher
// type are rejected with ErrUnknownType.
const maxType = TypeError

// HelloFlag values carried in Hello.Flags.
const (
	// HelloSubscribe asks the server to push Decisions frames from the
	// resume cursor onward. Without it the connection is ingest-only.
	HelloSubscribe uint32 = 1 << 0
)

// Hello is the client's opening handshake payload.
type Hello struct {
	// Resume is the decision cursor to resume pushes from: the last
	// seq the client has already seen (0 for a fresh subscription).
	Resume uint64
	// Flags is a bitmask of HelloXxx options.
	Flags uint32
}

// Welcome is the server's handshake reply payload.
type Welcome struct {
	// LastSeq is the newest decision seq in the server's log at
	// handshake time (0 if none yet).
	LastSeq uint64
	// Oldest is the oldest decision seq still retained; a Resume
	// cursor older than Oldest-1 has lost decisions to ring eviction.
	Oldest uint64
	// Regions is the set of region IDs this endpoint serves, for
	// client-side routing (the stream analogue of /v1/status regions).
	Regions []string
}

// SubmitCode classifies one job's submit outcome in a SubmitReply
// frame. Codes mirror the typed server errors and their HTTP statuses.
type SubmitCode uint8

// Submit result codes.
const (
	// SubmitOK: the job was accepted (or deduped to an earlier
	// identical submit — same semantics as HTTP, which also reports
	// an idempotent replay as accepted with the original id).
	SubmitOK SubmitCode = 0
	// SubmitQueueFull is the 429 equivalent (server.ErrQueueFull).
	SubmitQueueFull SubmitCode = 1
	// SubmitStopped is the 503 equivalent (server.ErrStopped, or
	// server.ErrShardDown for a job whose shard is dead).
	SubmitStopped SubmitCode = 2
	// SubmitUnknownRegion is the 404 equivalent (server.ErrUnknownRegion).
	SubmitUnknownRegion SubmitCode = 3
	// SubmitUnknownBenchmark is a 400 equivalent (server.ErrUnknownBenchmark).
	SubmitUnknownBenchmark SubmitCode = 4
	// SubmitDuplicateID is the 409 equivalent (server.ErrDuplicateID):
	// the id or spec digest collides with a different, non-identical
	// submission.
	SubmitDuplicateID SubmitCode = 5
	// SubmitOutsideHorizon is a 400 equivalent (server.ErrOutsideHorizon).
	SubmitOutsideHorizon SubmitCode = 6
	// SubmitInvalid is the 400 catch-all for specs the server rejects
	// for any other reason.
	SubmitInvalid SubmitCode = 7
)

// Job is the wire form of a job submission, mirroring server.JobSpec.
type Job struct {
	// HasID reports whether the client assigned ID itself (the
	// idempotent-retry path); otherwise the server allocates one.
	HasID bool
	// ID is the client-assigned job id; meaningful only when HasID.
	ID int64
	// SubmitNano is the logical submit time as Unix nanoseconds;
	// TimeNone means the zero time (server uses the current round).
	SubmitNano int64
	// DurationSec is the job's true runtime in seconds.
	DurationSec float64
	// EnergyKWh is the job's true energy draw in kWh.
	EnergyKWh float64
	// EstDurationSec is the scheduler-visible runtime estimate.
	EstDurationSec float64
	// EstEnergyKWh is the scheduler-visible energy estimate.
	EstEnergyKWh float64
	// Benchmark names the workload profile.
	Benchmark string
	// Home is the job's home region id.
	Home string
}

// SubmitResult is one job's outcome within a SubmitReply frame.
type SubmitResult struct {
	// Code classifies the outcome.
	Code SubmitCode
	// ID is the accepted (possibly deduped) job id; 0 unless Code is
	// SubmitOK.
	ID int64
}

// Decision is the wire form of a placement decision, mirroring
// server.MergedDecision: the decision plus its shard coordinates.
type Decision struct {
	// Seq is the dense global sequence number.
	Seq uint64
	// JobID identifies the placed job.
	JobID int64
	// Shard is the owning shard index.
	Shard uint32
	// ShardSeq is the per-shard seq.
	ShardSeq uint64
	// RoundNano is the scheduling round's logical time.
	RoundNano int64
	// StartNano is the placed start time.
	StartNano int64
	// FinishNano is the placed finish time.
	FinishNano int64
	// DecidedWallNano is the wall-clock decision time.
	DecidedWallNano int64
	// CarbonG is the decision's carbon footprint in grams CO2.
	CarbonG float64
	// WaterL is the decision's water footprint in liters.
	WaterL float64
	// Region is the placement region id.
	Region string
}

// ErrCode classifies a fatal Error frame.
type ErrCode uint8

// Error frame codes.
const (
	// ErrCodeProtocol: the peer sent a malformed or out-of-order frame
	// (for example, anything before Hello).
	ErrCodeProtocol ErrCode = 1
	// ErrCodeShutdown: the server is shutting down.
	ErrCodeShutdown ErrCode = 2
)

// TimeNone is the int64 sentinel encoding the zero time.Time — no real
// instant has UnixNano math.MinInt64. It is the one zero-time sentinel
// of every format in the service: wire frames, WAL records, snapshots.
const TimeNone = math.MinInt64

// NanoTime converts Unix nanoseconds to a UTC time.Time, TimeNone being
// the zero time.
func NanoTime(n int64) time.Time {
	if n == TimeNone {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// TimeNano converts a time.Time to Unix nanoseconds, the zero time to
// TimeNone.
func TimeNano(t time.Time) int64 {
	if t.IsZero() {
		return TimeNone
	}
	return t.UnixNano()
}
