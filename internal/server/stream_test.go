package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/sched"
	"waterwise/internal/wire"
)

// streamClient is a minimal protocol client for tests: one connection,
// synchronous submit batches, and a decision reader. Ingest and
// subscribe use separate connections so replies and pushes never
// interleave on one socket.
type streamClient struct {
	t       testing.TB
	nc      net.Conn
	conn    *wire.Conn
	welcome wire.Welcome
}

func dialStream(t testing.TB, addr string, resume uint64, subscribe bool) *streamClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	var flags uint32
	if subscribe {
		flags |= wire.HelloSubscribe
	}
	if err := conn.WriteFrame(wire.TypeHello, wire.AppendHello(nil, wire.Hello{Resume: resume, Flags: flags})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.ReadFrame()
	if err != nil || typ != wire.TypeWelcome {
		t.Fatalf("handshake: type %d, err %v", typ, err)
	}
	w, err := conn.Codec().DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	return &streamClient{t: t, nc: nc, conn: conn, welcome: w}
}

func (c *streamClient) close() { c.nc.Close() }

// submit sends one Submit frame and waits for its reply.
func (c *streamClient) submit(specs []JobSpec) []wire.SubmitResult {
	c.t.Helper()
	jobs := make([]wire.Job, len(specs))
	for i := range specs {
		jobs[i] = WireJob(specs[i])
	}
	payload, err := wire.AppendSubmit(nil, jobs)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := c.conn.WriteFrame(wire.TypeSubmit, payload); err != nil {
		c.t.Fatal(err)
	}
	typ, reply, err := c.conn.ReadFrame()
	if err != nil || typ != wire.TypeSubmitReply {
		c.t.Fatalf("submit reply: type %d, err %v", typ, err)
	}
	results, err := c.conn.Codec().DecodeSubmitReply(reply, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if len(results) != len(specs) {
		c.t.Fatalf("submit reply: %d results for %d jobs", len(results), len(specs))
	}
	return results
}

// mustAccept submits and asserts every job landed (SubmitOK).
func (c *streamClient) mustAccept(specs []JobSpec) {
	c.t.Helper()
	for _, res := range c.submit(specs) {
		if res.Code != wire.SubmitOK {
			c.t.Fatalf("submit rejected with code %d", res.Code)
		}
	}
}

// readDecisions consumes pushed Decisions frames (acking each) until n
// decisions have been collected or the deadline passes.
func (c *streamClient) readDecisions(n int, deadline time.Duration) []wire.Decision {
	c.t.Helper()
	var out []wire.Decision
	c.nc.SetReadDeadline(time.Now().Add(deadline))
	defer c.nc.SetReadDeadline(time.Time{})
	for len(out) < n {
		typ, payload, err := c.conn.ReadFrame()
		if err != nil {
			c.t.Fatalf("readDecisions after %d/%d: %v", len(out), n, err)
		}
		if typ != wire.TypeDecisions {
			c.t.Fatalf("readDecisions: unexpected frame type %d", typ)
		}
		var next uint64
		out, next, err = c.conn.Codec().DecodeDecisions(payload, out)
		if err != nil {
			c.t.Fatal(err)
		}
		if err := c.conn.WriteFrame(wire.TypeAck, wire.AppendAck(nil, next)); err != nil {
			c.t.Fatal(err)
		}
	}
	return out
}

// decisionFromWire converts a decoded wire decision back to the server
// form, WireDecision's inverse.
func decisionFromWire(d *wire.Decision) Decision {
	return Decision{
		Seq:         d.Seq,
		JobID:       int(d.JobID),
		Region:      region.ID(d.Region),
		Round:       wire.NanoTime(d.RoundNano),
		Start:       wire.NanoTime(d.StartNano),
		Finish:      wire.NanoTime(d.FinishNano),
		CarbonG:     d.CarbonG,
		WaterL:      d.WaterL,
		DecidedWall: wire.NanoTime(d.DecidedWallNano),
	}
}

// connCount returns the number of live connections.
func (l *StreamListener) connCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// streamTestServer boots an accelerated server with a stream listener
// on a loopback port.
func streamTestServer(t testing.TB, cfg Config) (*Server, *StreamListener) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := srv.ServeStream(ln, StreamOptions{})
	t.Cleanup(func() {
		sl.Close()
		srv.Stop()
	})
	return srv, sl
}

// TestStreamEquivalence is the protocol's acceptance test: the same
// trace ingested over the binary stream produces a decision log
// identical decision-for-decision to HTTP/JSON ingest — same
// placements, same rounds, same dense seqs — and the stream's pushed
// copy of the log stays gap-free across a mid-run client reconnect.
func TestStreamEquivalence(t *testing.T) {
	const round = time.Minute
	envHTTP, envStream := testEnv(t), testEnv(t)
	jobs := genTrace(t, envHTTP, 6000, 24)

	httpSrv, err := New(Config{Env: envHTTP, Scheduler: newScheduler(t), Tolerance: 0.5, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpSrv.Handler())
	defer ts.Close()
	defer httpSrv.Stop()

	streamSrv, sl := streamTestServer(t, Config{
		Env: envStream, Scheduler: newScheduler(t), Tolerance: 0.5, Round: round,
	})

	// Ingest the whole trace into both servers pre-Start: HTTP/JSON
	// batches on one side, Submit frames on the other.
	ingest := dialStream(t, sl.Addr().String(), 0, false)
	defer ingest.close()
	const batch = 500
	for i := 0; i < len(jobs); i += batch {
		end := min(i+batch, len(jobs))
		specs := make([]JobSpec, 0, end-i)
		for _, j := range jobs[i:end] {
			specs = append(specs, specFor(j))
		}
		body, err := json.Marshal(specs)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+PathJobs, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("http submit: status %d", resp.StatusCode)
		}
		ingest.mustAccept(specs)
	}

	httpSrv.Start()
	streamSrv.Start()

	// While both drain, a subscriber collects the stream server's
	// pushes — disconnecting abruptly a third of the way in and
	// resuming from its last-acked seq on a fresh connection.
	firstThird := len(jobs) / 3
	sub := dialStream(t, sl.Addr().String(), 0, true)
	pushed := sub.readDecisions(firstThird, 60*time.Second)
	sub.close()
	lastAcked := pushed[len(pushed)-1].Seq
	sub2 := dialStream(t, sl.Addr().String(), lastAcked, true)
	defer sub2.close()
	pushed = append(pushed, sub2.readDecisions(len(jobs)-len(pushed), 120*time.Second)...)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := httpSrv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := streamSrv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Seqs dense across the reconnect: 1..N with no gap or duplicate.
	if len(pushed) != len(jobs) {
		t.Fatalf("pushed %d decisions, want %d", len(pushed), len(jobs))
	}
	for i, d := range pushed {
		if d.Seq != uint64(i+1) {
			t.Fatalf("pushed decision %d has seq %d, want %d (gap or duplicate across reconnect)", i, d.Seq, i+1)
		}
	}

	// Decision-for-decision equality against the HTTP server's log,
	// polled the HTTP way. DecidedWall is wall-clock and legitimately
	// differs between the two processes' runs.
	var httpDecisions []Decision
	for since := uint64(0); ; {
		resp, err := http.Get(fmt.Sprintf("%s%s?since=%d&limit=2000", ts.URL, PathDecisions, since))
		if err != nil {
			t.Fatal(err)
		}
		var page decisionsPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(page.Decisions) == 0 {
			break
		}
		httpDecisions = append(httpDecisions, page.Decisions...)
		since = page.Next
	}
	if len(httpDecisions) != len(pushed) {
		t.Fatalf("http log has %d decisions, stream pushed %d", len(httpDecisions), len(pushed))
	}
	for i := range pushed {
		h, s := httpDecisions[i], decisionFromWire(&pushed[i])
		if h.Seq != s.Seq || h.JobID != s.JobID || h.Region != s.Region ||
			!h.Round.Equal(s.Round) || !h.Start.Equal(s.Start) || !h.Finish.Equal(s.Finish) ||
			h.CarbonG != s.CarbonG || h.WaterL != s.WaterL {
			t.Fatalf("decision %d differs:\n http:  %+v\n stream: %+v", i, h, s)
		}
	}

	// And the full replay results agree, the established equivalence bar.
	hr, sr := httpSrv.Result(), streamSrv.Result()
	if len(hr.Outcomes) != len(sr.Outcomes) || len(hr.Ticks) != len(sr.Ticks) {
		t.Fatalf("results differ: %d/%d outcomes, %d/%d ticks",
			len(hr.Outcomes), len(sr.Outcomes), len(hr.Ticks), len(sr.Ticks))
	}
	for i := range hr.Outcomes {
		h, s := hr.Outcomes[i], sr.Outcomes[i]
		if h.Job.ID != s.Job.ID || h.Region != s.Region || !h.Start.Equal(s.Start) || !h.Finish.Equal(s.Finish) ||
			h.Compute != s.Compute || h.Comm != s.Comm || h.Violated != s.Violated {
			t.Fatalf("outcome %d: http %+v, stream %+v", i, h, s)
		}
	}
}

// TestStreamReconnectResume covers the resume handshake in isolation:
// an abrupt disconnect mid-push, then a resume from the last-acked
// seq, must replay gap-free with no duplicates.
func TestStreamReconnectResume(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 2000, 12)
	srv, sl := streamTestServer(t, Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
	})
	ingest := dialStream(t, sl.Addr().String(), 0, false)
	defer ingest.close()
	specs := make([]JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = specFor(j)
	}
	ingest.mustAccept(specs)
	srv.Start()

	var got []wire.Decision
	cursor := uint64(0)
	for reconnect := 0; len(got) < len(jobs); reconnect++ {
		if reconnect > 4 {
			t.Fatalf("still missing decisions after %d reconnects: %d/%d", reconnect, len(got), len(jobs))
		}
		sub := dialStream(t, sl.Addr().String(), cursor, true)
		chunk := min(len(jobs)-len(got), len(jobs)/3+1)
		got = append(got, sub.readDecisions(chunk, 60*time.Second)...)
		cursor = got[len(got)-1].Seq
		sub.close() // abrupt: no goodbye, possibly frames in flight
	}
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d: seq %d, want %d", i, d.Seq, i+1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDisconnectCleanup: clients that vanish mid-frame (torn
// submit, unread pushes) leave no goroutines, no registered conns, and
// no half-ingested batches behind.
func TestStreamDisconnectCleanup(t *testing.T) {
	env := testEnv(t)
	srv, sl := streamTestServer(t, Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
	})
	waitConns := func(want int) {
		deadline := time.Now().Add(10 * time.Second)
		for sl.connCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("ConnCount = %d, want %d", sl.connCount(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	baseline := runtime.NumGoroutine()

	// A torn submit: valid Hello, then a Submit frame cut mid-payload.
	nc, err := net.Dial("tcp", sl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	if err := conn.WriteFrame(wire.TypeHello, wire.AppendHello(nil, wire.Hello{})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := conn.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	spec := specFor(genTrace(t, env, 200, 1)[0])
	payload, err := wire.AppendSubmit(nil, []wire.Job{WireJob(spec)})
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.AppendFrame(nil, wire.TypeSubmit, payload)
	if _, err := nc.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the server read the partial frame
	nc.Close()

	// A subscriber that hangs up without reading or acking anything.
	sub := dialStream(t, sl.Addr().String(), 0, true)
	sub.close()

	waitConns(0)
	if st := srv.Status(); st.Accepted != 0 || st.Pending != 0 {
		t.Fatalf("torn frame half-ingested: accepted %d, pending %d", st.Accepted, st.Pending)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("leaked goroutines: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The listener still serves new clients after the carnage.
	c := dialStream(t, sl.Addr().String(), 0, false)
	c.mustAccept([]JobSpec{spec})
	c.close()
}

// TestStreamDedupeResubmit: idempotent re-submit over the stream hits
// the same dedupe index as HTTP — an identical retry is SubmitOK with
// the original id, a conflicting spec on the same id is the
// 409-equivalent SubmitDuplicateID frame.
func TestStreamDedupeResubmit(t *testing.T) {
	env := testEnv(t)
	_, sl := streamTestServer(t, Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
	})
	c := dialStream(t, sl.Addr().String(), 0, false)
	defer c.close()

	spec := specFor(genTrace(t, env, 200, 1)[0])
	first := c.submit([]JobSpec{spec})
	if first[0].Code != wire.SubmitOK {
		t.Fatalf("first submit: code %d", first[0].Code)
	}
	retry := c.submit([]JobSpec{spec})
	if retry[0].Code != wire.SubmitOK || retry[0].ID != first[0].ID {
		t.Fatalf("idempotent retry: code %d id %d, want OK id %d", retry[0].Code, retry[0].ID, first[0].ID)
	}
	conflict := spec
	conflict.EnergyKWh += 1
	res := c.submit([]JobSpec{conflict})
	if res[0].Code != wire.SubmitDuplicateID {
		t.Fatalf("conflicting resubmit: code %d, want SubmitDuplicateID", res[0].Code)
	}
}

// TestStreamHandshakeErrors: protocol misuse draws a typed Error frame
// and a close, not a hang.
func TestStreamHandshakeErrors(t *testing.T) {
	env := testEnv(t)
	_, sl := streamTestServer(t, Config{
		Env: env, Scheduler: newScheduler(t), Tolerance: 0.5, Round: time.Minute,
	})

	// First frame is not Hello.
	nc, err := net.Dial("tcp", sl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc)
	if err := conn.WriteFrame(wire.TypeAck, wire.AppendAck(nil, 1)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := conn.ReadFrame()
	if err != nil || typ != wire.TypeError {
		t.Fatalf("want Error frame, got type %d err %v", typ, err)
	}
	if code, _, err := conn.Codec().DecodeError(payload); err != nil || code != wire.ErrCodeProtocol {
		t.Fatalf("error frame: code %d, err %v", code, err)
	}
	if _, _, err := conn.ReadFrame(); err == nil {
		t.Fatal("connection stayed open after Error frame")
	}
	nc.Close()

	// Unexpected frame type after a valid handshake.
	c := dialStream(t, sl.Addr().String(), 0, false)
	defer c.close()
	if err := c.conn.WriteFrame(wire.TypeWelcome, nil); err != nil {
		t.Fatal(err)
	}
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, _, err = c.conn.ReadFrame()
	if err != nil || typ != wire.TypeError {
		t.Fatalf("want Error frame for client-sent Welcome, got type %d err %v", typ, err)
	}
	var ne net.Error
	if _, _, err := c.conn.ReadFrame(); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("connection stayed open after Error frame: %v", err)
	}
}

// readUnacked consumes pushed Decisions frames without acking any until n
// decisions have arrived or the deadline passes.
func (c *streamClient) readUnacked(n int, deadline time.Duration) []wire.Decision {
	c.t.Helper()
	var out []wire.Decision
	c.nc.SetReadDeadline(time.Now().Add(deadline))
	defer c.nc.SetReadDeadline(time.Time{})
	for len(out) < n {
		typ, payload, err := c.conn.ReadFrame()
		if err != nil || typ != wire.TypeDecisions {
			c.t.Fatalf("readUnacked after %d/%d: type %d, err %v", len(out), n, typ, err)
		}
		if out, _, err = c.conn.Codec().DecodeDecisions(payload, out); err != nil {
			c.t.Fatal(err)
		}
	}
	return out
}

// quiet asserts that no frame arrives within d.
func (c *streamClient) quiet(d time.Duration) {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(d))
	defer c.nc.SetReadDeadline(time.Time{})
	// The frame reader wraps the deadline error as text.
	if typ, _, err := c.conn.ReadFrame(); err == nil || !strings.Contains(err.Error(), "i/o timeout") {
		c.t.Fatalf("want no frame for %v, got type %d, err %v", d, typ, err)
	}
}

// TestStreamAckWindowResumes: a subscriber that stops acking stalls at
// pushWindow decisions in flight, and one Ack reopens the window. The
// service is drained before the Ack, so no round publishes anything after
// it: only the Ack can wake the pusher.
func TestStreamAckWindowResumes(t *testing.T) {
	const perRound = 150 // what the baseline scheduler places in one round
	n := pushWindow + 500
	srv, sl := streamTestServer(t, Config{
		Env: testEnv(t), Scheduler: sched.NewBaseline(), Tolerance: 0.5, Round: time.Minute,
		QueueCap: 2 * pushWindow, DecisionLogCap: 2 * pushWindow,
	})
	homes := srv.cfg.Env.IDs()
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = JobSpec{Benchmark: "canneal", Home: homes[i%len(homes)],
			Submit: testStart.Add(time.Duration(i/perRound) * time.Minute), DurationSec: 30}
	}
	for i, a := range srv.SubmitBatch(specs, nil) {
		if a.Err != nil {
			t.Fatalf("job %d: %v", i, a.Err)
		}
	}
	sub := dialStream(t, sl.Addr().String(), 0, true)
	defer sub.close()
	srv.Start()

	got := sub.readUnacked(pushWindow, 60*time.Second)
	if len(got) != pushWindow {
		t.Fatalf("pushed %d decisions unacked, want the window's %d", len(got), pushWindow)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	sub.quiet(50 * time.Millisecond)

	if err := sub.conn.WriteFrame(wire.TypeAck, wire.AppendAck(nil, got[len(got)-1].Seq)); err != nil {
		t.Fatal(err)
	}
	got = append(got, sub.readDecisions(n-len(got), 10*time.Second)...)
	for i, d := range got {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d: seq %d, want %d", i, d.Seq, i+1)
		}
	}
}

// heldMerge builds a two-shard in-memory service whose merge holds shard
// 0's decisions behind shard 1: shard 1 has a queued job but its round
// loop never starts, so its round clock stays before every decision. Shard
// 0 runs alone and decides jobs decisions, and a subscriber is connected
// throughout; heldMerge returns once shard 0 has drained and nothing has
// been pushed.
func heldMerge(t *testing.T, jobs int) (*Server, *streamClient) {
	t.Helper()
	srv, sl := streamTestServer(t, Config{
		Env: testEnv(t), NewScheduler: coreFactory(t), Shards: 2, Tolerance: 0.5, Round: time.Minute,
	})
	parts := srv.Partitions()
	if _, err := srv.Submit(JobSpec{Benchmark: "canneal", Home: parts[1][0], Submit: testStart}); err != nil {
		t.Fatal(err)
	}
	specs := make([]JobSpec, jobs)
	for i := range specs {
		specs[i] = JobSpec{Benchmark: "canneal", Home: parts[0][i%len(parts[0])],
			Submit: testStart.Add(time.Duration(i) * time.Minute)}
	}
	for i, a := range srv.SubmitBatch(specs, nil) {
		if a.Err != nil {
			t.Fatalf("job %d: %v", i, a.Err)
		}
	}
	sub := dialStream(t, sl.Addr().String(), 0, true)
	t.Cleanup(sub.close)
	sh0 := srv.shardList()[0]
	sh0.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sh0.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if st := sh0.Status(); st.Decisions != uint64(jobs) {
		t.Fatalf("shard 0 decided %d of %d", st.Decisions, jobs)
	}
	sub.quiet(50 * time.Millisecond) // the merge holds them
	return srv, sub
}

// TestStreamStopReleasesMerge: Stop's final merge releases decisions the
// merge held, and a live subscriber receives them. Shard 0 drained before
// Stop, so Stop is the only event that can wake the pusher.
func TestStreamStopReleasesMerge(t *testing.T) {
	const jobs = 40
	srv, sub := heldMerge(t, jobs)
	srv.Stop()
	got := sub.readDecisions(jobs, 10*time.Second)
	for i, d := range got {
		if d.Seq != uint64(i+1) || d.Shard != 0 {
			t.Fatalf("decision %d: seq %d shard %d, want seq %d from shard 0", i, d.Seq, d.Shard, i+1)
		}
	}
}
