package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/wire"
)

// StreamOptions tunes a StreamListener. The zero value uses defaults.
type StreamOptions struct {
	// PushInterval is the idle poll cadence of the decision pusher
	// (default 1ms). When decisions are flowing the pusher loops
	// without sleeping.
	PushInterval time.Duration
}

const (
	// pushBatch caps decisions per pushed frame.
	pushBatch = 2048
	// pushWindow caps pushed-but-unacked decisions per connection. When a
	// slow client stops acking, the server stops pushing instead of
	// buffering unboundedly — the stream analogue of HTTP 429.
	pushWindow = 65536
)

// StreamListener accepts persistent binary-protocol connections
// (internal/wire) alongside the HTTP mux and serves them against a Server:
// batched submits in, batched pushes of the merged decision log out, with
// a cursor-resume handshake. Close shuts it down and waits for every
// connection goroutine to exit.
type StreamListener struct {
	srv  *Server
	opts StreamOptions
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeStream starts serving the wire protocol on ln. It returns
// immediately; connections are handled on their own goroutines until
// Close.
func (s *Server) ServeStream(ln net.Listener, opts StreamOptions) *StreamListener {
	if opts.PushInterval <= 0 {
		opts.PushInterval = time.Millisecond
	}
	l := &StreamListener{
		srv:   s,
		opts:  opts,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

// Addr returns the listener's address (useful with ":0" listeners).
func (l *StreamListener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting, closes every live connection, and waits for
// all connection goroutines to finish.
func (l *StreamListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	err := l.ln.Close()
	for nc := range l.conns {
		nc.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *StreamListener) acceptLoop() {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			nc.Close()
			return
		}
		l.conns[nc] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serveConn(nc)
	}
}

// streamSession is the per-connection state shared between the read
// loop and the decision pusher.
type streamSession struct {
	conn    *wire.Conn
	lastAck atomic.Uint64
	stop    chan struct{}
	pushed  sync.WaitGroup
}

func (l *StreamListener) serveConn(nc net.Conn) {
	defer func() {
		nc.Close()
		l.mu.Lock()
		delete(l.conns, nc)
		l.mu.Unlock()
		l.wg.Done()
	}()

	conn := wire.NewConn(nc)
	ss := &streamSession{conn: conn, stop: make(chan struct{})}

	// Handshake: the first frame must be Hello; the reply is Welcome
	// with the log bounds and region set.
	typ, payload, err := conn.ReadFrame()
	if err != nil {
		return
	}
	if typ != wire.TypeHello {
		l.sendError(conn, wire.ErrCodeProtocol, "expected hello frame")
		return
	}
	hello, err := conn.Codec().DecodeHello(payload)
	if err != nil {
		l.sendError(conn, wire.ErrCodeProtocol, "malformed hello")
		return
	}
	_, cur := l.srv.DecisionsPage(math.MaxUint64, 1)
	regions := l.srv.cfg.Env.IDs()
	welcome := wire.Welcome{LastSeq: cur.Seq, Oldest: cur.Oldest, Regions: make([]string, len(regions))}
	for i, r := range regions {
		welcome.Regions[i] = string(r)
	}
	wbuf, err := wire.AppendWelcome(nil, welcome)
	if err != nil {
		return
	}
	if err := conn.WriteFrame(wire.TypeWelcome, wbuf); err != nil {
		return
	}

	ss.lastAck.Store(hello.Resume)
	if hello.Flags&wire.HelloSubscribe != 0 {
		ss.pushed.Add(1)
		go l.pushDecisions(ss, hello.Resume)
	}
	l.readLoop(ss)
	close(ss.stop)
	nc.Close() // unblock a pusher mid-write
	ss.pushed.Wait()
}

// readLoop ingests Submit and Ack frames until the connection errors
// or the client closes. A frame is fully decoded before any job is
// submitted, so a torn frame never half-ingests a batch.
func (l *StreamListener) readLoop(ss *streamSession) {
	var (
		jobs    []wire.Job
		results []wire.SubmitResult
		scratch []byte
	)
	for {
		typ, payload, err := ss.conn.ReadFrame()
		if err != nil {
			return // disconnect (clean or torn); nothing partial was applied
		}
		switch typ {
		case wire.TypeSubmit:
			jobs, err = ss.conn.Codec().DecodeSubmit(payload, jobs[:0])
			if err != nil {
				l.sendError(ss.conn, wire.ErrCodeProtocol, "malformed submit")
				return
			}
			results = results[:0]
			for i := range jobs {
				id, err := l.srv.Submit(jobSpecFromWire(&jobs[i]))
				res := wire.SubmitResult{Code: submitErrorCode(err)}
				if err == nil {
					res.ID = int64(id)
				}
				results = append(results, res)
			}
			scratch = wire.AppendSubmitReply(scratch[:0], results)
			if err := ss.conn.WriteFrame(wire.TypeSubmitReply, scratch); err != nil {
				return
			}
		case wire.TypeAck:
			seq, err := ss.conn.Codec().DecodeAck(payload)
			if err != nil {
				l.sendError(ss.conn, wire.ErrCodeProtocol, "malformed ack")
				return
			}
			ss.lastAck.Store(seq)
		default:
			l.sendError(ss.conn, wire.ErrCodeProtocol, fmt.Sprintf("unexpected frame type %d", typ))
			return
		}
	}
}

// pushDecisions streams the merged decision log to the client from
// resume onward: poll a page, encode, write, repeat — sleeping only
// when the log is drained or the client's ack window is full.
func (l *StreamListener) pushDecisions(ss *streamSession, resume uint64) {
	defer ss.pushed.Done()
	cursor := resume
	var (
		page    []wire.Decision
		scratch []byte
	)
	timer := time.NewTimer(l.opts.PushInterval)
	defer timer.Stop()
	wait := func() bool {
		timer.Reset(l.opts.PushInterval)
		select {
		case <-ss.stop:
			return false
		case <-timer.C:
			return true
		}
	}
	for {
		select {
		case <-ss.stop:
			return
		default:
		}
		inflight := int64(cursor) - int64(ss.lastAck.Load())
		if inflight < 0 {
			inflight = 0
		}
		room := pushWindow - inflight
		if room <= 0 {
			if !wait() {
				return
			}
			continue
		}
		page = l.srv.wireDecisions(cursor, int(min(room, pushBatch)), page[:0])
		if len(page) == 0 {
			if !wait() {
				return
			}
			continue
		}
		next := page[len(page)-1].Seq
		var err error
		scratch, err = wire.AppendDecisions(scratch[:0], next, page)
		if err != nil {
			return
		}
		if err := ss.conn.WriteFrame(wire.TypeDecisions, scratch); err != nil {
			return
		}
		cursor = next
	}
}

// sendError best-effort writes a terminal Error frame; the caller
// closes the connection right after.
func (l *StreamListener) sendError(conn *wire.Conn, code wire.ErrCode, msg string) {
	_ = conn.WriteFrame(wire.TypeError, wire.AppendError(nil, code, msg))
}

// submitErrorCode maps a Submit error to its wire result code, the
// stream analogue of submitErrorStatus.
func submitErrorCode(err error) wire.SubmitCode {
	switch {
	case err == nil:
		return wire.SubmitOK
	case errors.Is(err, ErrQueueFull):
		return wire.SubmitQueueFull
	case errors.Is(err, ErrStopped):
		return wire.SubmitStopped
	case errors.Is(err, ErrUnknownRegion):
		return wire.SubmitUnknownRegion
	case errors.Is(err, ErrUnknownBenchmark):
		return wire.SubmitUnknownBenchmark
	case errors.Is(err, ErrDuplicateID):
		return wire.SubmitDuplicateID
	case errors.Is(err, ErrOutsideHorizon):
		return wire.SubmitOutsideHorizon
	default:
		return wire.SubmitInvalid
	}
}

// jobSpecFromWire converts a decoded wire job to a JobSpec.
func jobSpecFromWire(j *wire.Job) JobSpec {
	spec := JobSpec{
		Benchmark:      j.Benchmark,
		Home:           region.ID(j.Home),
		Submit:         wire.NanoTime(j.SubmitNano),
		DurationSec:    j.DurationSec,
		EnergyKWh:      j.EnergyKWh,
		EstDurationSec: j.EstDurationSec,
		EstEnergyKWh:   j.EstEnergyKWh,
	}
	if j.HasID {
		id := int(j.ID)
		spec.ID = &id
	}
	return spec
}

// WireJob converts a JobSpec to its wire form (the client-side encode
// helper loadgen and the tests share).
func WireJob(spec JobSpec) wire.Job {
	j := wire.Job{
		Benchmark:      spec.Benchmark,
		Home:           string(spec.Home),
		SubmitNano:     wire.TimeNano(spec.Submit),
		DurationSec:    spec.DurationSec,
		EnergyKWh:      spec.EnergyKWh,
		EstDurationSec: spec.EstDurationSec,
		EstEnergyKWh:   spec.EstEnergyKWh,
	}
	if spec.ID != nil {
		j.HasID = true
		j.ID = int64(*spec.ID)
	}
	return j
}

// WireDecision converts a decision to its wire form; shard and shardSeq
// are its coordinates in the merged log.
func WireDecision(d Decision, shard uint32, shardSeq uint64) wire.Decision {
	return wire.Decision{
		Seq:             d.Seq,
		JobID:           int64(d.JobID),
		Shard:           shard,
		ShardSeq:        shardSeq,
		RoundNano:       wire.TimeNano(d.Round),
		StartNano:       wire.TimeNano(d.Start),
		FinishNano:      wire.TimeNano(d.Finish),
		DecidedWallNano: wire.TimeNano(d.DecidedWall),
		CarbonG:         d.CarbonG,
		WaterL:          d.WaterL,
		Region:          string(d.Region),
	}
}

// wireDecisions appends up to limit merged decisions with Seq > since
// to dst in wire form, oldest first.
func (s *Server) wireDecisions(since uint64, limit int, dst []wire.Decision) []wire.Decision {
	page, _ := s.DecisionsPage(since, limit)
	for i := range page {
		d := &page[i]
		dst = append(dst, WireDecision(d.Decision, uint32(d.Shard), d.ShardSeq))
	}
	return dst
}
