package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"waterwise"
	"waterwise/internal/server"
	"waterwise/internal/wire"
)

// errStreamBroken marks a stream connection that died; later batches
// are dropped as errors without blocking the schedule.
var errStreamBroken = errors.New("stream connection broken")

// pendingBatch is one in-flight Submit frame awaiting its reply. The
// protocol answers frames in order on one connection, so a FIFO pairs
// replies with their batches.
type pendingBatch struct {
	ids  []int
	sent time.Time
}

// streamConn is the persistent wire-protocol connection to the service:
// the sender writes Submit frames; a reader goroutine demuxes
// SubmitReply frames (accept/reject accounting, submission instants
// into the matcher) and pushed Decisions frames (matcher + Ack).
type streamConn struct {
	nc      net.Conn
	conn    *wire.Conn
	m       *matcher
	account func(accepted, rejected, errors int)

	pending  chan pendingBatch
	inflight atomic.Int64 // batches written but not yet replied
	broken   atomic.Bool
	done     chan struct{}

	// Acks are written by their own goroutine, never by the reader: the
	// sender can legitimately block mid-Submit when both TCP directions
	// are full, and it holds the connection's write lock while it waits.
	// A reader that wrote acks inline would block behind it and stop
	// draining pushes — completing a write-write deadlock with a server
	// whose pusher is itself waiting on this client to read. The reader
	// therefore only records the cursor; the acker contends for the
	// write lock on its own time.
	ackSeq  atomic.Uint64
	ackKick chan struct{}

	// sender-side scratch, reused across batches (single sender).
	jobs []wire.Job
	buf  []byte
}

// dialStream connects, runs the Hello/Welcome handshake subscribing to
// decisions after resume, and starts the reader.
func dialStream(addr string, resume uint64, m *matcher, account func(acc, rej, errs int)) (*streamConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(nc)
	hello := wire.Hello{Resume: resume, Flags: wire.HelloSubscribe}
	if err := conn.WriteFrame(wire.TypeHello, wire.AppendHello(nil, hello)); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := conn.ReadFrame()
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch typ {
	case wire.TypeWelcome:
		if _, err := conn.Codec().DecodeWelcome(payload); err != nil {
			nc.Close()
			return nil, err
		}
	case wire.TypeError:
		code, msg, _ := conn.Codec().DecodeError(payload)
		nc.Close()
		return nil, fmt.Errorf("handshake rejected: code %d: %s", code, msg)
	default:
		nc.Close()
		return nil, fmt.Errorf("handshake: unexpected frame type %d", typ)
	}
	st := &streamConn{
		nc: nc, conn: conn, m: m, account: account,
		pending: make(chan pendingBatch, 4096),
		done:    make(chan struct{}),
		ackKick: make(chan struct{}, 1),
	}
	go st.read()
	go st.ack()
	return st, nil
}

// send encodes one batch as a Submit frame and enqueues its reply
// expectation. The submission instant is captured before the write —
// the open-loop analogue of HTTP's pre-request stamp — and recorded in
// the matcher when the reply names the accepted ids.
func (st *streamConn) send(specs []waterwise.JobSpec) error {
	if st.broken.Load() {
		return errStreamBroken
	}
	ids := make([]int, len(specs))
	st.jobs = st.jobs[:0]
	for i, s := range specs {
		ids[i] = *s.ID // loadgen always assigns ids client-side
		st.jobs = append(st.jobs, server.WireJob(s))
	}
	payload, err := wire.AppendSubmit(st.buf[:0], st.jobs)
	if err != nil {
		return err
	}
	st.buf = payload
	// Enqueue before writing so the reader can never see a reply whose
	// batch is not yet queued; the single sender keeps the FIFO order.
	st.inflight.Add(1)
	st.pending <- pendingBatch{ids: ids, sent: time.Now()}
	if err := st.conn.WriteFrame(wire.TypeSubmit, payload); err != nil {
		st.broken.Store(true)
		st.nc.Close()
		// The enqueued batch surfaces as errors when close drains it.
		return nil
	}
	return nil
}

// read demuxes the connection until it closes or fails.
func (st *streamConn) read() {
	defer close(st.done)
	defer st.broken.Store(true)
	var (
		results []wire.SubmitResult
		ds      []wire.Decision
	)
	for {
		typ, payload, err := st.conn.ReadFrame()
		if err != nil {
			return
		}
		switch typ {
		case wire.TypeSubmitReply:
			results, err = st.conn.Codec().DecodeSubmitReply(payload, results[:0])
			if err != nil {
				return
			}
			pb := <-st.pending
			var acc, rej, errs int
			for _, r := range results {
				switch r.Code {
				case wire.SubmitOK:
					acc++
					st.m.Sent(int(r.ID), pb.sent)
				case wire.SubmitQueueFull:
					rej++ // backpressure, the 429 analogue
				default:
					errs++
				}
			}
			st.inflight.Add(-1)
			st.account(acc, rej, errs)
		case wire.TypeDecisions:
			var next uint64
			ds, next, err = st.conn.Codec().DecodeDecisions(payload, ds[:0])
			if err != nil {
				return
			}
			for i := range ds {
				st.m.Decided(int(ds[i].JobID), wire.NanoTime(ds[i].DecidedWallNano))
			}
			st.ackSeq.Store(next)
			select {
			case st.ackKick <- struct{}{}:
			default: // the acker is already due to run; it reads the latest cursor
			}
		default: // TypeError or anything unexpected: the server is done with us
			return
		}
	}
}

// ack forwards the newest decision cursor back to the server whenever
// the reader kicks it, collapsing any backlog of kicks into one Ack
// carrying the latest cursor.
func (st *streamConn) ack() {
	var sent uint64
	var buf []byte
	for {
		select {
		case <-st.ackKick:
		case <-st.done:
			return
		}
		next := st.ackSeq.Load()
		if next == sent {
			continue
		}
		buf = wire.AppendAck(buf[:0], next)
		if st.conn.WriteFrame(wire.TypeAck, buf) != nil {
			return
		}
		sent = next
	}
}

// waitReplies blocks until every written batch has been replied to,
// the connection breaks, or the deadline passes.
func (st *streamConn) waitReplies(deadline time.Time) {
	for time.Now().Before(deadline) {
		if st.inflight.Load() == 0 || st.broken.Load() {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// close tears the connection down and returns how many submitted jobs
// never got a reply (counted as errors by the caller).
func (st *streamConn) close() (unreplied int) {
	st.nc.Close()
	<-st.done
	for {
		select {
		case pb := <-st.pending:
			unreplied += len(pb.ids)
		default:
			return unreplied
		}
	}
}
