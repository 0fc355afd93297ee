package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/trace"
	"waterwise/internal/wire"
)

// The load generator of stream-steady runs in a process of its own (this
// binary, re-executed with clientEnv set). Sharing a Go runtime with the
// server would let the server's garbage-collection cycles stall the
// sender for ~10 ms at a time on two cores, and an open-loop generator that
// cannot keep its schedule measures itself. Both processes read the same
// machine clock, so wire timestamps still split the latency by layer.

// clientEnv carries the JSON clientSpec to the child process.
const clientEnv = "WATERWISE_BENCH_CLIENT"

const (
	// simDensity is the arrival density in simulated time: the open-loop
	// schedule compresses it to the step's wall rate, so every rate sees
	// the same jobs-per-round regime.
	simDensity = 20.0 // jobs per simulated minute
	// streamDurScale keeps the simulated cluster near 15% utilisation, so
	// simulated capacity never binds and the serving path is what is timed.
	streamDurScale = 0.09
	wakeEvery      = time.Millisecond // sender wake-up cadence
	maxFrameJobs   = 512              // open-loop frame cap
	closedFrame    = 256              // closed-loop frame size
	closedInFlight = 2048             // closed-loop jobs in flight
	serviceLimitMs = 10.0             // the service limit at 12 000 jobs/s
	// settleTimeout is how long a step waits without a single decision
	// arriving before it gives the missing ones up for lost. This VM stalls
	// for seconds at a time, and a stall is not a lost job.
	settleTimeout = 30 * time.Second
)

// clientSpec is one step as the child process is told to run it.
type clientSpec struct {
	Addr string  `json:"addr"`
	Name string  `json:"name"`
	Rate float64 `json:"rate"` // jobs/s offered open loop; 0 = closed loop
	Seed int64   `json:"seed"`
	Jobs int     `json:"jobs"`
	// SpanDir, when set, is where the child writes its spans.
	SpanDir string `json:"span_dir,omitempty"`
}

// clientReport is what the child measured, printed as JSON on stdout.
type clientReport struct {
	Offered int     `json:"offered"`
	Failed  int     `json:"failed"`
	Frames  int     `json:"frames"`
	WallS   float64 `json:"wall_s"` // first send -> last decision decoded
	SetupS  float64 `json:"setup_s"`
	GenS    float64 `json:"gen_s"`
	Samples int     `json:"samples"`

	// WinP50 and WinP90 are the end-to-end figures of an open-loop step: the
	// lowest decile over Windows windows of latWindow of each window's p50
	// and p90. The Total percentiles are taken over the whole step at once.
	WinP50, WinP90                          float64
	Windows                                 int
	TotalP50, TotalP90, TotalP99, TotalP999 float64
	LateP50, LateP99                        float64
	ServerP50, ServerP90                    float64
	PushP50, PushP90                        float64
	Within                                  float64 // share of timed jobs within serviceLimitMs
	// InvalidFrac is the share of offered jobs in segments the generator
	// ran late in; they are left out of every latency above. RawLateP99 is
	// the generator's lateness over all jobs, those included.
	InvalidFrac, RawLateP99 float64
	// Rates are the decisions per second of each 100 ms window of the step.
	Rates    []float64
	RttP50   float64
	ProtoErr string
	// FailDetail says how the Failed jobs failed.
	FailDetail string
}

// streamTrace generates n jobs at the fixed simulated density.
func streamTrace(regions []region.ID, seed int64, n int) ([]*trace.Job, error) {
	minutes := int(float64(n)/simDensity) + 2
	all, err := trace.GenerateSteady(trace.Config{
		Start: simStart, Duration: time.Duration(minutes) * time.Minute,
		JobsPerDay: simDensity * 24 * 60, Regions: regions,
		DurationScale: streamDurScale, Seed: traceSeed(seed),
	})
	if err != nil {
		return nil, err
	}
	return all[:min(n, len(all))], nil
}

func regionIDs() []region.ID {
	var ids []region.ID
	for _, r := range region.Defaults() {
		ids = append(ids, r.ID)
	}
	return ids
}

// frameRec pairs an in-flight Submit frame with the reply that answers it;
// the protocol answers frames in order on one connection.
type frameRec struct {
	first, n int
	sent     int64
}

// streamClient is the benchmark's wire client: one connection, one sender
// (the caller), one reader goroutine, and an acker that keeps the server's
// push window open without ever blocking the reader behind a Submit write.
type streamClient struct {
	nc    net.Conn
	conn  *wire.Conn
	led   *ledger
	spans *spanLog
	root  int

	regions map[string]bool
	pending chan frameRec
	seenN   atomic.Int64 // decisions decoded so far
	replied atomic.Int64 // Submit frames answered so far
	kick    chan struct{}
	ackSeq  atomic.Uint64
	ackKick chan struct{}
	done    chan struct{}
	acked   sync.WaitGroup

	// Owned by the reader until done is closed.
	rttMs    []float64
	nextSeq  uint64
	protoErr error
	lastSeen int64
}

func dialStream(addr string, led *ledger, spans *spanLog, root int) (*streamClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(nc)
	if err := conn.WriteFrame(wire.TypeHello, wire.AppendHello(nil, wire.Hello{Flags: wire.HelloSubscribe})); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := conn.ReadFrame()
	if err != nil || typ != wire.TypeWelcome {
		nc.Close()
		return nil, fmt.Errorf("handshake: frame type %d: %v", typ, err)
	}
	welcome, err := conn.Codec().DecodeWelcome(payload)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c := &streamClient{
		nc: nc, conn: conn, led: led, spans: spans, root: root,
		regions: make(map[string]bool),
		// Room for four seconds of one-per-millisecond frames awaiting
		// their replies: far beyond any step that passes its checks.
		pending: make(chan frameRec, 4096),
		kick:    make(chan struct{}, 1),
		ackKick: make(chan struct{}, 1),
		done:    make(chan struct{}),
		nextSeq: 1,
	}
	for _, r := range welcome.Regions {
		c.regions[r] = true
	}
	go c.read()
	c.acked.Add(1)
	go c.ack()
	return c, nil
}

// send encodes jobs [first, first+n) as one Submit frame and writes it.
func (c *streamClient) send(wj []wire.Job, first, n int, buf []byte) ([]byte, error) {
	sp := c.spans.begin("wire.AppendSubmit", c.root, int64(first))
	buf, err := wire.AppendSubmit(buf[:0], wj[first:first+n])
	c.spans.end(sp)
	if err != nil {
		return buf, err
	}
	now := time.Now().UnixNano()
	for i := first; i < first+n; i++ {
		c.led.sent[i] = now
	}
	// Queue the expectation before writing, so the reader can never meet a
	// reply whose frame is not queued yet.
	c.pending <- frameRec{first: first, n: n, sent: now}
	sp = c.spans.begin("wire.Conn.WriteFrame", c.root, int64(first))
	err = c.conn.WriteFrame(wire.TypeSubmit, buf)
	c.spans.end(sp)
	return buf, err
}

func (c *streamClient) fail(format string, a ...any) {
	if c.protoErr == nil {
		c.protoErr = fmt.Errorf(format, a...)
	}
}

// read demultiplexes replies and pushed decisions until the connection
// closes, checking as it goes that pushed seqs are dense from 1 and every
// region is one the server said it serves.
func (c *streamClient) read() {
	defer close(c.done)
	var (
		results []wire.SubmitResult
		ds      []wire.Decision
	)
	for {
		typ, payload, err := c.conn.ReadFrame()
		if err != nil {
			return
		}
		switch typ {
		case wire.TypeSubmitReply:
			now := time.Now().UnixNano()
			results, err = c.conn.Codec().DecodeSubmitReply(payload, results[:0])
			if err != nil {
				c.fail("decoding submit reply: %v", err)
				return
			}
			fr := <-c.pending
			c.rttMs = append(c.rttMs, float64(now-fr.sent)/1e6)
			if len(results) != fr.n {
				c.fail("reply carries %d results for a %d-job frame", len(results), fr.n)
				return
			}
			for i, res := range results {
				c.led.replied(fr.first+i, res.Code == wire.SubmitOK && int(res.ID) == fr.first+i)
			}
			c.replied.Add(1)
			select {
			case c.kick <- struct{}{}:
			default:
			}
		case wire.TypeDecisions:
			sp := c.spans.begin("wire.DecodeDecisions", c.root, int64(c.nextSeq))
			var next uint64
			ds, next, err = c.conn.Codec().DecodeDecisions(payload, ds[:0])
			now := time.Now().UnixNano()
			c.spans.end(sp)
			if err != nil {
				c.fail("decoding decisions: %v", err)
				return
			}
			for i := range ds {
				d := &ds[i]
				if d.Seq != c.nextSeq {
					c.fail("pushed seq %d, want %d", d.Seq, c.nextSeq)
				}
				c.nextSeq = d.Seq + 1
				if !c.regions[d.Region] {
					c.fail("job %d placed in unserved region %q", d.JobID, d.Region)
				}
				if d.JobID < 0 || int(d.JobID) >= len(c.led.due) {
					c.fail("decision for unknown job %d", d.JobID)
					continue
				}
				c.led.pushed(int(d.JobID), d.DecidedWallNano, now)
			}
			c.lastSeen = now
			c.seenN.Add(int64(len(ds)))
			c.ackSeq.Store(next)
			for _, ch := range []chan struct{}{c.ackKick, c.kick} {
				select {
				case ch <- struct{}{}:
				default: // already due to run; it reads the latest state
				}
			}
		default:
			c.fail("unexpected frame type %d", typ)
			return
		}
	}
}

// ack forwards the newest decision cursor whenever the reader kicks it.
func (c *streamClient) ack() {
	defer c.acked.Done()
	var sent uint64
	var buf []byte
	for {
		select {
		case <-c.ackKick:
		case <-c.done:
			return
		}
		if next := c.ackSeq.Load(); next != sent {
			buf = wire.AppendAck(buf[:0], next)
			if c.conn.WriteFrame(wire.TypeAck, buf) != nil {
				return
			}
			sent = next
		}
	}
}

// wait blocks until the reader decodes another frame; false means the
// connection ended or nothing arrived within timeout.
func (c *streamClient) wait(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-c.kick:
		return true
	case <-c.done:
		return false
	case <-deadline.C:
		return false
	}
}

func (c *streamClient) close() {
	c.nc.Close()
	<-c.done
	c.acked.Wait()
}

// sleepUntil blocks in the kernel until t. The Go runtime's own timers
// round up to its poller's millisecond granularity, which would make a
// one-millisecond cadence run 30-60% slow.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early return only sends the next frame sooner
	}
}

// runClientStep is the child process: generate the step's jobs, run the
// open or closed loop against spec.Addr, and digest the ledger.
func runClientStep(spec clientSpec, started time.Time) (*clientReport, error) {
	var spans *spanLog
	if spec.SpanDir != "" {
		spans = newSpanLog()
	}
	root := spans.begin("client."+spec.Name, -1, 0)
	g0 := time.Now()
	jobs, err := streamTrace(regionIDs(), spec.Seed, spec.Jobs)
	if err != nil {
		return nil, err
	}
	rep := &clientReport{GenS: time.Since(g0).Seconds()}
	wj := make([]wire.Job, len(jobs))
	for i, j := range jobs {
		wj[i] = server.WireJob(specFor(j))
	}
	led := newLedger(len(jobs))
	client, err := dialStream(spec.Addr, led, spans, root)
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(started).Seconds()

	var buf []byte
	begin := time.Now()
	if spec.Rate > 0 {
		// Open loop: the trace's own submit times, compressed to the wall
		// rate, are the due instants; each wake-up sends every job due.
		simPerWall := spec.Rate / simDensity * 60
		origin := begin.Add(20 * time.Millisecond)
		for i, j := range jobs {
			led.due[i] = origin.UnixNano() + int64(float64(j.Submit.Sub(simStart))/simPerWall)
		}
		for next := 0; next < len(jobs) && err == nil; {
			now := time.Now()
			end := next
			for end < len(jobs) && end-next < maxFrameJobs && led.due[end] <= now.UnixNano() {
				end++
			}
			if n := end - next; n > 0 {
				buf, err = client.send(wj, next, n, buf)
				rep.Frames++
				next = end
				if n == maxFrameJobs {
					continue // still behind schedule: send again without sleeping
				}
			}
			wake := now.Truncate(wakeEvery).Add(wakeEvery)
			if next < len(jobs) && led.due[next] > wake.UnixNano() {
				wake = time.Unix(0, led.due[next])
			}
			sleepUntil(wake)
		}
		rep.Offered = len(jobs)
	} else {
		// Closed loop: at most closedInFlight jobs between send and decoded
		// decision. Nothing is scheduled, so a job is due when it is sent.
		next := 0
		for next+closedFrame <= len(jobs) && err == nil {
			if int64(next)-client.seenN.Load() > closedInFlight-closedFrame {
				if !client.wait(settleTimeout) {
					break
				}
				continue
			}
			buf, err = client.send(wj, next, closedFrame, buf)
			rep.Frames++
			next += closedFrame
		}
		copy(led.due[:next], led.sent[:next])
		rep.Offered = next
	}
	// Wait for what is still in flight — a pushed decision can overtake the
	// reply to its own Submit frame, so both are counted — until nothing
	// arrives any more.
	for (client.seenN.Load() < int64(rep.Offered) || client.replied.Load() < int64(rep.Frames)) && client.wait(settleTimeout) {
	}
	client.close()
	spans.end(root)

	if client.protoErr != nil {
		rep.ProtoErr = client.protoErr.Error()
	} else if err != nil {
		rep.ProtoErr = "sending: " + err.Error()
	}
	rep.WallS = float64(client.lastSeen-begin.UnixNano()) / 1e9
	rep.Rates = led.windowRates(rep.Offered, begin.UnixNano(), client.lastSeen)
	lat := led.latencies(rep.Offered, spec.Rate > 0)
	rep.Failed, rep.Samples, rep.FailDetail = lat.failed, len(lat.total), led.failures(rep.Offered)
	rep.InvalidFrac, rep.RawLateP99 = lat.invalidFrac, lat.rawLateP99
	// JSON has no +Inf: a tail made of failed jobs reads as the largest
	// float, and Failed says why.
	total := func(q float64) float64 { return min(quantile(lat.total, q), math.MaxFloat64) }
	rep.TotalP50, rep.TotalP90, rep.TotalP99, rep.TotalP999 = total(0.5), total(0.9), total(0.99), total(0.999)
	if spec.Rate > 0 {
		rep.WinP50, rep.WinP90, rep.Windows = led.windowed(rep.Offered)
		rep.WinP50, rep.WinP90 = min(rep.WinP50, math.MaxFloat64), min(rep.WinP90, math.MaxFloat64)
	}
	rep.LateP50, rep.LateP99 = quantile(lat.late, 0.5), quantile(lat.late, 0.99)
	rep.ServerP50, rep.ServerP90 = quantile(lat.server, 0.5), quantile(lat.server, 0.9)
	rep.PushP50, rep.PushP90 = quantile(lat.push, 0.5), quantile(lat.push, 0.9)
	rep.Within = lat.within(serviceLimitMs)
	rep.RttP50 = median(client.rttMs)
	if err := spans.write(spec.SpanDir, "stream-steady.client-"+spec.Name); err != nil {
		return nil, err
	}
	return rep, nil
}

// clientMain runs when this binary was started as the load generator.
func clientMain(raw string, started time.Time) {
	var spec clientSpec
	err := json.Unmarshal([]byte(raw), &spec)
	var rep *clientReport
	if err == nil {
		rep, err = runClientStep(spec, started)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench client:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench client: report:", err)
		os.Exit(1)
	}
}

// spawnClient runs one step in a child process and waits for its report.
func spawnClient(spec clientSpec) (*clientReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), clientEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var rep clientReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("load generator report: %w", err)
	}
	return &rep, nil
}
