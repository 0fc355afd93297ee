package server

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"waterwise/internal/region"
	"waterwise/internal/wire"
)

// StreamOptions is a StreamListener's options; there are none. The
// pusher has no cadence to tune: it wakes when the service publishes new
// decisions.
type StreamOptions struct{}

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
	srv *Server
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeStream starts serving the wire protocol on ln. It returns
// immediately; connections are handled on their own goroutines until
// Close.
func (s *Server) ServeStream(ln net.Listener, _ StreamOptions) *StreamListener {
	l := &StreamListener{
		srv:   s,
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
// loop and the decision pusher. The read loop stores each Ack in lastAck
// and then signals acked (one buffered token), which wakes a pusher whose
// window is full.
type streamSession struct {
	conn    *wire.Conn
	lastAck atomic.Uint64
	acked   chan struct{}
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
	ss := &streamSession{conn: conn, acked: make(chan struct{}, 1), stop: make(chan struct{})}

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
// submitted, so a torn frame never half-ingests a batch, and then
// admitted as one SubmitBatch.
func (l *StreamListener) readLoop(ss *streamSession) {
	var (
		jobs    []wire.Job
		specs   []JobSpec
		adm     []Admission
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
			specs = specs[:0]
			for i := range jobs {
				specs = append(specs, jobSpecFromWire(&jobs[i]))
			}
			adm = l.srv.SubmitBatch(specs, adm)
			results = results[:0]
			for i := range adm {
				res := wire.SubmitResult{Code: submitErrorCode(adm[i].Err)}
				if adm[i].Err == nil {
					res.ID = int64(adm[i].ID)
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
			select {
			case ss.acked <- struct{}{}:
			default: // a token is already waiting
			}
		default:
			l.sendError(ss.conn, wire.ErrCodeProtocol, fmt.Sprintf("unexpected frame type %d", typ))
			return
		}
	}
}

// pushDecisions streams the merged decision log to the client from
// resume onward: page, encode, write — then wait for the service to
// publish more. It reads the log once per publish (and so group-commits a
// durable shard's log at most once per wake), again at once only when a
// page came back full, and sleeps on the client's next Ack while its
// window is full. There is no timer: a page that comes back short has
// everything readable when the wait channel was taken, and anything
// published since has closed that channel.
func (l *StreamListener) pushDecisions(ss *streamSession, resume uint64) {
	defer ss.pushed.Done()
	cursor := resume
	var (
		page    []wire.Decision
		scratch []byte
	)
	for {
		room := pushWindow - max(int64(cursor)-int64(ss.lastAck.Load()), 0)
		if room <= 0 {
			select {
			case <-ss.stop:
				return
			case <-ss.acked:
			}
			continue
		}
		published := l.srv.published.wait()
		limit := int(min(room, pushBatch))
		page = l.srv.wireDecisions(cursor, limit, page[:0])
		if len(page) > 0 {
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
			if len(page) == limit {
				continue // the page was cut short of what is readable
			}
		}
		select {
		case <-ss.stop:
			return
		case <-published:
		}
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
	case errors.Is(err, ErrStopped), errors.Is(err, ErrShardDown):
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
