package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Codec holds decoder state that lets the hot path run allocation-free:
// an intern table for region and benchmark names, which come from small
// fixed sets, so after warm-up every decoded string is a map hit rather
// than a fresh allocation. A Codec is not safe for concurrent use; use
// one per connection (Conn embeds one).
type Codec struct {
	names map[string]string
}

// intern returns a string equal to b, reusing a previously-decoded
// instance when possible. The m[string(b)] lookup compiles to a
// no-allocation map access; only the first sighting of a name copies it.
func (c *Codec) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.names[string(b)]; ok {
		return s
	}
	if c.names == nil {
		c.names = make(map[string]string, 16)
	}
	s := string(b)
	c.names[s] = s
	return s
}

// Reader is the bounds-checked, little-endian cursor every binary
// decoder in the service reads through: wire payloads here, and the
// write-ahead log's records and snapshots in internal/server. The first
// failed read or count check latches: every later read returns a zero
// value and Count returns 0, so element loops do not run, and Done
// reports the failure — decoders check once, at the end.
type Reader struct {
	p   []byte
	off int
	bad bool  // a read or a count check failed
	err error // the failed count check's error; nil for a short read
}

// NewReader returns a Reader over p.
func NewReader(p []byte) Reader { return Reader{p: p} }

// OK reports whether every read and count check so far succeeded.
func (r *Reader) OK() bool { return !r.bad }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.bad || r.off+1 > len(r.p) {
		r.bad = true
		return 0
	}
	v := r.p[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.bad || r.off+4 > len(r.p) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.bad || r.off+8 > len(r.p) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Time reads an int64 Unix-nanosecond instant, TimeNone being the zero
// time.
func (r *Reader) Time() time.Time { return NanoTime(r.I64()) }

// take returns the next n bytes, aliasing the payload, or nil when fewer
// remain.
func (r *Reader) take(n int) []byte {
	if r.bad || n > len(r.p)-r.off {
		r.bad = true
		return nil
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b
}

// Bytes8 reads a one-byte-length-prefixed byte string, aliasing the
// payload.
func (r *Reader) Bytes8() []byte { return r.take(int(r.U8())) }

// Str32 reads a four-byte-length-prefixed string.
func (r *Reader) Str32() string { return string(r.take(int(r.U32()))) }

// Count reads a uint32 element count and checks it against the bytes
// left, at minSize encoded bytes per element, before the caller sizes
// anything by it: a hostile count can never force an allocation larger
// than the payload itself. A count that does not fit latches an error
// and returns 0.
func (r *Reader) Count(minSize int, what string) int {
	n := r.U32()
	if r.bad {
		return 0
	}
	if rem := len(r.p) - r.off; int64(n)*int64(minSize) > int64(rem) {
		r.bad, r.err = true, fmt.Errorf("%w: %s count %d exceeds %d payload bytes", ErrBadPayload, what, n, rem)
		return 0
	}
	return int(n)
}

// Done returns nil when the whole payload parsed cleanly, and otherwise
// an ErrBadPayload naming what: the failed count check, a short read, or
// trailing bytes.
func (r *Reader) Done(what string) error {
	switch {
	case r.err != nil:
		return r.err
	case r.bad:
		return fmt.Errorf("%w: short %s", ErrBadPayload, what)
	case r.off != len(r.p):
		return fmt.Errorf("%w: %d trailing bytes after %s", ErrBadPayload, len(r.p)-r.off, what)
	}
	return nil
}

// AppendU32 appends v little-endian.
func AppendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendU64 appends v little-endian.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendI64 appends v little-endian.
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendF64 appends v's IEEE-754 bits little-endian.
func AppendF64(dst []byte, v float64) []byte {
	return AppendU64(dst, math.Float64bits(v))
}

// AppendTime appends t as int64 Unix nanoseconds, the zero time as
// TimeNone.
func AppendTime(dst []byte, t time.Time) []byte { return AppendI64(dst, TimeNano(t)) }

// AppendStr8 appends a one-byte-length-prefixed string. Strings longer
// than 255 bytes cannot be encoded; EncodeXxx callers validate first.
func AppendStr8(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// AppendStr32 appends a four-byte-length-prefixed string.
func AppendStr32(dst []byte, s string) []byte {
	return append(AppendU32(dst, uint32(len(s))), s...)
}

// str8OK reports whether s fits a one-byte length prefix.
func str8OK(s string) bool { return len(s) <= 255 }

// Minimum encoded sizes per element, the Count bounds of the frame
// payloads.
const (
	minJobSize      = 1 + 8 + 8 + 4*8 + 1 + 1 // flags, id, submit, 4 floats, 2 empty strings
	minResultSize   = 1 + 8                   // code, id
	minDecisionSize = 8 + 8 + 4 + 8 + 4*8 + 2*8 + 1
)

// AppendHello appends a Hello payload to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = AppendU64(dst, h.Resume)
	return AppendU32(dst, h.Flags)
}

// DecodeHello parses a Hello payload.
func (c *Codec) DecodeHello(p []byte) (Hello, error) {
	r := NewReader(p)
	h := Hello{Resume: r.U64(), Flags: r.U32()}
	return h, r.Done("hello")
}

// AppendWelcome appends a Welcome payload to dst. Region names longer
// than 255 bytes are rejected.
func AppendWelcome(dst []byte, w Welcome) ([]byte, error) {
	dst = AppendU64(dst, w.LastSeq)
	dst = AppendU64(dst, w.Oldest)
	dst = AppendU32(dst, uint32(len(w.Regions)))
	for _, reg := range w.Regions {
		if !str8OK(reg) {
			return nil, fmt.Errorf("%w: region name %q too long", ErrBadPayload, reg)
		}
		dst = AppendStr8(dst, reg)
	}
	return dst, nil
}

// DecodeWelcome parses a Welcome payload. Welcome is handshake-only,
// so its region slice is freshly allocated.
func (c *Codec) DecodeWelcome(p []byte) (Welcome, error) {
	r := NewReader(p)
	w := Welcome{LastSeq: r.U64(), Oldest: r.U64()}
	if count := r.Count(1, "region"); count > 0 {
		w.Regions = make([]string, 0, count)
		for i := 0; i < count; i++ {
			w.Regions = append(w.Regions, c.intern(r.Bytes8()))
		}
	}
	if err := r.Done("welcome"); err != nil {
		return Welcome{}, err
	}
	return w, nil
}

// appendJob appends one encoded Job.
func appendJob(dst []byte, j Job) []byte {
	var flags byte
	if j.HasID {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = AppendU64(dst, uint64(j.ID))
	dst = AppendU64(dst, uint64(j.SubmitNano))
	dst = AppendF64(dst, j.DurationSec)
	dst = AppendF64(dst, j.EnergyKWh)
	dst = AppendF64(dst, j.EstDurationSec)
	dst = AppendF64(dst, j.EstEnergyKWh)
	dst = AppendStr8(dst, j.Benchmark)
	return AppendStr8(dst, j.Home)
}

// AppendSubmit appends a Submit payload (a batch of jobs) to dst.
// Benchmark or region names longer than 255 bytes are rejected.
func AppendSubmit(dst []byte, jobs []Job) ([]byte, error) {
	for i := range jobs {
		if !str8OK(jobs[i].Benchmark) || !str8OK(jobs[i].Home) {
			return nil, fmt.Errorf("%w: job %d has a name longer than 255 bytes", ErrBadPayload, i)
		}
	}
	dst = AppendU32(dst, uint32(len(jobs)))
	for i := range jobs {
		dst = appendJob(dst, jobs[i])
	}
	return dst, nil
}

// DecodeSubmit parses a Submit payload, appending into dst (pass a
// reused slice's [:0] for an allocation-free steady state).
func (c *Codec) DecodeSubmit(p []byte, dst []Job) ([]Job, error) {
	r := NewReader(p)
	count := r.Count(minJobSize, "job")
	for i := 0; i < count; i++ {
		flags := r.U8()
		j := Job{
			HasID:          flags&1 != 0,
			ID:             r.I64(),
			SubmitNano:     r.I64(),
			DurationSec:    r.F64(),
			EnergyKWh:      r.F64(),
			EstDurationSec: r.F64(),
			EstEnergyKWh:   r.F64(),
			Benchmark:      c.intern(r.Bytes8()),
			Home:           c.intern(r.Bytes8()),
		}
		if flags&^byte(1) != 0 {
			return nil, fmt.Errorf("%w: job %d has unknown flags 0x%02x", ErrBadPayload, i, flags)
		}
		if r.bad {
			break
		}
		dst = append(dst, j)
	}
	if err := r.Done("submit"); err != nil {
		return nil, err
	}
	return dst, nil
}

// AppendSubmitReply appends a SubmitReply payload to dst.
func AppendSubmitReply(dst []byte, results []SubmitResult) []byte {
	dst = AppendU32(dst, uint32(len(results)))
	for _, res := range results {
		dst = append(dst, byte(res.Code))
		dst = AppendU64(dst, uint64(res.ID))
	}
	return dst
}

// DecodeSubmitReply parses a SubmitReply payload, appending into dst.
func (c *Codec) DecodeSubmitReply(p []byte, dst []SubmitResult) ([]SubmitResult, error) {
	r := NewReader(p)
	count := r.Count(minResultSize, "result")
	for i := 0; i < count; i++ {
		res := SubmitResult{Code: SubmitCode(r.U8()), ID: r.I64()}
		if res.Code > SubmitInvalid {
			return nil, fmt.Errorf("%w: unknown submit code %d", ErrBadPayload, res.Code)
		}
		if r.bad {
			break
		}
		dst = append(dst, res)
	}
	if err := r.Done("submit reply"); err != nil {
		return nil, err
	}
	return dst, nil
}

// AppendDecisions appends a Decisions payload to dst. next is the
// cursor the client should resume from after consuming the batch (the
// last decision's seq). Region names longer than 255 bytes are
// rejected.
func AppendDecisions(dst []byte, next uint64, decisions []Decision) ([]byte, error) {
	for i := range decisions {
		if !str8OK(decisions[i].Region) {
			return nil, fmt.Errorf("%w: decision %d region name too long", ErrBadPayload, i)
		}
	}
	dst = AppendU64(dst, next)
	dst = AppendU32(dst, uint32(len(decisions)))
	for i := range decisions {
		d := &decisions[i]
		dst = AppendU64(dst, d.Seq)
		dst = AppendU64(dst, uint64(d.JobID))
		dst = AppendU32(dst, d.Shard)
		dst = AppendU64(dst, d.ShardSeq)
		dst = AppendU64(dst, uint64(d.RoundNano))
		dst = AppendU64(dst, uint64(d.StartNano))
		dst = AppendU64(dst, uint64(d.FinishNano))
		dst = AppendU64(dst, uint64(d.DecidedWallNano))
		dst = AppendF64(dst, d.CarbonG)
		dst = AppendF64(dst, d.WaterL)
		dst = AppendStr8(dst, d.Region)
	}
	return dst, nil
}

// DecodeDecisions parses a Decisions payload, appending into dst.
func (c *Codec) DecodeDecisions(p []byte, dst []Decision) (out []Decision, next uint64, err error) {
	r := NewReader(p)
	next = r.U64()
	count := r.Count(minDecisionSize, "decision")
	for i := 0; i < count; i++ {
		d := Decision{
			Seq:             r.U64(),
			JobID:           r.I64(),
			Shard:           r.U32(),
			ShardSeq:        r.U64(),
			RoundNano:       r.I64(),
			StartNano:       r.I64(),
			FinishNano:      r.I64(),
			DecidedWallNano: r.I64(),
			CarbonG:         r.F64(),
			WaterL:          r.F64(),
			Region:          c.intern(r.Bytes8()),
		}
		if r.bad {
			break
		}
		dst = append(dst, d)
	}
	if err := r.Done("decisions"); err != nil {
		return nil, 0, err
	}
	return dst, next, nil
}

// AppendAck appends an Ack payload to dst.
func AppendAck(dst []byte, seq uint64) []byte {
	return AppendU64(dst, seq)
}

// DecodeAck parses an Ack payload.
func (c *Codec) DecodeAck(p []byte) (uint64, error) {
	r := NewReader(p)
	seq := r.U64()
	return seq, r.Done("ack")
}

// AppendError appends an Error payload to dst; msg is truncated to 255
// bytes.
func AppendError(dst []byte, code ErrCode, msg string) []byte {
	if len(msg) > 255 {
		msg = msg[:255]
	}
	dst = append(dst, byte(code))
	return AppendStr8(dst, msg)
}

// DecodeError parses an Error payload.
func (c *Codec) DecodeError(p []byte) (ErrCode, string, error) {
	r := NewReader(p)
	code := ErrCode(r.U8())
	msg := string(r.Bytes8())
	return code, msg, r.Done("error")
}
