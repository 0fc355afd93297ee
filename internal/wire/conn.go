package wire

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Conn frames an io.ReadWriter (normally a net.Conn) into the wire
// protocol. Read and write sides hold their own reusable buffers, so a
// long-lived connection encodes and decodes frames without per-frame
// allocation. ReadFrame may be used from one goroutine while WriteFrame
// is used from others (writes are serialized internally); ReadFrame
// itself is single-goroutine.
type Conn struct {
	br    *bufio.Reader
	rhdr  [HeaderSize]byte
	rbuf  []byte // payload scratch, grown to the largest frame seen
	codec Codec

	wmu  sync.Mutex
	bw   *bufio.Writer
	whdr [HeaderSize]byte
}

// connBufSize is the bufio buffer size for each direction.
const connBufSize = 64 << 10

// NewConn wraps rw in a framed protocol connection.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{
		br: bufio.NewReaderSize(rw, connBufSize),
		bw: bufio.NewWriterSize(rw, connBufSize),
	}
}

// Codec returns the connection's decode-side Codec (its string intern
// table). Not safe for use concurrent with ReadFrame.
func (c *Conn) Codec() *Codec { return &c.codec }

// ReadFrame reads the next frame, verifying header and checksum. The
// returned payload is valid only until the next ReadFrame call. A clean
// peer close before any header byte returns io.EOF; a close mid-frame
// returns an error wrapping ErrTruncated.
func (c *Conn) ReadFrame() (Type, []byte, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	t, n, crc, err := parseHeader(c.rhdr[:])
	if err != nil {
		return 0, nil, err
	}
	// n is bounded by MaxPayload (parseHeader), so a hostile length
	// can never force a larger allocation; grow to exactly n.
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	payload := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if Checksum(payload) != crc {
		return 0, nil, ErrChecksum
	}
	return t, payload, nil
}

// WriteFrame writes one frame and flushes it. Safe for concurrent use.
func (c *Conn) WriteFrame(t Type, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	putHeader(c.whdr[:], t, len(payload), Checksum(payload))
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}
