package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"

	"waterwise"
)

// TestLoadgenSmoke drives an in-process accelerated server end to end
// through run() for about a second, once over HTTP and once over the
// stream protocol: every accepted job must be decided and matched, no
// submission may error, and the scraped server-side histogram must count
// the same decisions.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server for about a second per protocol")
	}
	for _, protocol := range []string{"http", "stream"} {
		t.Run(protocol, func(t *testing.T) {
			env, err := waterwise.NewEnvironment(waterwise.EnvironmentConfig{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			sched, err := waterwise.NewScheduler(waterwise.SchedulerConfig{CrossRoundWarmStart: true})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := waterwise.NewServer(env, sched, waterwise.ServerConfig{Tolerance: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Stop()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer waterwise.NewStreamListener(ln, srv, waterwise.StreamOptions{}).Close()
			srv.Start()

			var out bytes.Buffer
			err = run([]string{
				"-url", ts.URL, "-protocol", protocol, "-stream-addr", ln.Addr().String(),
				"-rate", "400", "-duration", "1s", "-poll", "10ms", "-drain", "30s",
				"-seed", "3", "-id-base", "1", "-json",
			}, &out)
			if err != nil {
				t.Fatal(err)
			}
			var rep report
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatalf("-json report does not decode: %v\n%s", err, out.Bytes())
			}
			if rep.Protocol != protocol || rep.Errors != 0 || rep.Accepted == 0 || rep.Decided != rep.Accepted {
				t.Fatalf("report: protocol %s, offered %d, accepted %d, rejected %d, errors %d, decided %d",
					rep.Protocol, rep.Offered, rep.Accepted, rep.Rejected, rep.Errors, rep.Decided)
			}
			t.Logf("%s: accepted %d of %d, decided %d, client p50 %.1f ms, server p50 %.1f ms",
				protocol, rep.Accepted, rep.Offered, rep.Decided, rep.LatencyP50Ms, rep.ServerLatencyP50Ms)
			if rep.ServerLatencyCount != uint64(rep.Decided) {
				t.Errorf("scraped server latency count %d, want %d decided", rep.ServerLatencyCount, rep.Decided)
			}
		})
	}
}
