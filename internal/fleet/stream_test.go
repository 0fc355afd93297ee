package fleet

import (
	"context"
	"net"
	"testing"
	"time"

	"waterwise/internal/server"
	"waterwise/internal/wire"
)

// TestFleetStreamMergedPush: the gateway speaks the wire protocol —
// submits over one stream connection fan out to shards by home region,
// and pushed decisions are the k-way-merged global stream: dense seqs,
// shard coordinates attached, identical to the gateway's own merged
// log.
func TestFleetStreamMergedPush(t *testing.T) {
	env := testEnv(t)
	jobs := genTrace(t, env, 3000, 12)
	f, err := New(Config{
		Env: env, NewScheduler: coreFactory(t), Tolerance: 0.5, Round: time.Minute, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := f.ServeStream(ln, server.StreamOptions{})
	defer sl.Close()

	// Ingest the trace over the stream; the gateway routes by home.
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	if err := conn.WriteFrame(wire.TypeHello, wire.AppendHello(nil, wire.Hello{Flags: wire.HelloSubscribe})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.ReadFrame()
	if err != nil || typ != wire.TypeWelcome {
		t.Fatalf("handshake: type %d, err %v", typ, err)
	}
	welcome, err := conn.Codec().DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(welcome.Regions) != len(env.IDs()) {
		t.Fatalf("welcome advertises %d regions, want %d", len(welcome.Regions), len(env.IDs()))
	}

	const batch = 500
	for i := 0; i < len(jobs); i += batch {
		end := min(i+batch, len(jobs))
		specs := make([]wire.Job, 0, end-i)
		for _, j := range jobs[i:end] {
			specs = append(specs, server.WireJob(specFor(j)))
		}
		p, err := wire.AppendSubmit(nil, specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteFrame(wire.TypeSubmit, p); err != nil {
			t.Fatal(err)
		}
		typ, reply, err := conn.ReadFrame()
		if err != nil || typ != wire.TypeSubmitReply {
			t.Fatalf("submit reply: type %d, err %v", typ, err)
		}
		results, err := conn.Codec().DecodeSubmitReply(reply, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Code != wire.SubmitOK {
				t.Fatalf("gateway rejected a routed submit with code %d", res.Code)
			}
		}
	}
	f.Start()

	// Collect every pushed decision (replies are done, so only
	// Decisions frames remain on this connection).
	var pushed []wire.Decision
	nc.SetReadDeadline(time.Now().Add(120 * time.Second))
	for len(pushed) < len(jobs) {
		typ, payload, err := conn.ReadFrame()
		if err != nil {
			t.Fatalf("after %d/%d pushed: %v", len(pushed), len(jobs), err)
		}
		if typ != wire.TypeDecisions {
			t.Fatalf("unexpected frame type %d", typ)
		}
		var next uint64
		pushed, next, err = conn.Codec().DecodeDecisions(payload, pushed)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteFrame(wire.TypeAck, wire.AppendAck(nil, next)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	shardsSeen := map[uint32]bool{}
	for i, d := range pushed {
		if d.Seq != uint64(i+1) {
			t.Fatalf("pushed decision %d: seq %d, want %d", i, d.Seq, i+1)
		}
		shardsSeen[d.Shard] = true
	}
	if len(shardsSeen) != 2 {
		t.Fatalf("pushed decisions came from %d shards, want 2", len(shardsSeen))
	}

	// The pushed stream is the merged log, decision for decision.
	merged := f.Decisions(0, 0)
	if len(merged) != len(pushed) {
		t.Fatalf("merged log has %d decisions, pushed %d", len(merged), len(pushed))
	}
	for i := range merged {
		m, p := merged[i], pushed[i]
		if m.Seq != p.Seq || m.JobID != int(p.JobID) || int(p.Shard) != m.Shard || p.ShardSeq != m.ShardSeq ||
			string(m.Region) != p.Region || !m.Round.Equal(wire.NanoTime(p.RoundNano)) ||
			!m.Start.Equal(wire.NanoTime(p.StartNano)) || !m.Finish.Equal(wire.NanoTime(p.FinishNano)) ||
			m.CarbonG != p.CarbonG || m.WaterL != p.WaterL {
			t.Fatalf("decision %d: merged %+v, pushed %+v", i, m, p)
		}
	}
}
