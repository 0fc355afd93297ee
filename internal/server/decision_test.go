package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"waterwise/internal/energy"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/wire"
)

// appendDecisionForm is the WAL's decision encoding written from the
// public Decision, as the log wrote it before decisions were records.
func appendDecisionForm(b []byte, d Decision) []byte {
	b = wire.AppendU64(b, d.Seq)
	b = wire.AppendI64(b, int64(d.JobID))
	b = wire.AppendStr32(b, string(d.Region))
	b = wire.AppendTime(b, d.Round)
	b = wire.AppendTime(b, d.Start)
	b = wire.AppendTime(b, d.Finish)
	b = wire.AppendF64(b, d.CarbonG)
	b = wire.AppendF64(b, d.WaterL)
	return wire.AppendTime(b, d.DecidedWall)
}

// TestDecisionRecordRoundTrip: a record converts to its Decision and back
// unchanged, for every region index of a partition, a zero DecidedWall
// and extreme instants; both forms encode to the same WAL bytes and the
// same wire decision; and the records stay pointer-free at their sizes.
func TestDecisionRecordRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(decRecord{}); got != 72 {
		t.Errorf("decRecord is %d bytes, want 72", got)
	}
	if got := unsafe.Sizeof(mergedRecord{}); got != 80 {
		t.Errorf("mergedRecord is %d bytes, want 80", got)
	}
	regions := testEnv(t).IDs()
	srv := &Server{parts: [][]region.ID{regions[:1], regions}}
	instants := []int64{
		wire.TimeNone, wire.TimeNone + 1, math.MaxInt64, -1, 0, 1,
		testStart.UnixNano(), math.MinInt64 / 2,
	}
	for ri := range regions {
		for i, ns := range instants {
			d := decRecord{
				seq: uint64(i) + 1, jobID: int64(i) - 3,
				round: ns, start: instants[(i+1)%len(instants)], finish: instants[(i+2)%len(instants)],
				decidedWall: ns, carbonG: float64(i) * 1.5, waterL: -float64(ri),
				region: uint16(ri), shard: 1,
			}
			if i == 0 && ri == 0 {
				d.decidedWall = wire.TimeNone // the zero DecidedWall of a recovered decision
			}
			md := srv.decision(99, &d)
			pub := md.Decision
			if pub.Region != regions[ri] || md.Shard != 1 || md.ShardSeq != d.seq || pub.Seq != 99 {
				t.Fatalf("record %+v converts to %+v", d, md)
			}
			if (d.decidedWall == wire.TimeNone) != pub.DecidedWall.IsZero() {
				t.Fatalf("decided wall %d converts to %v", d.decidedWall, pub.DecidedWall)
			}
			for _, at := range []time.Time{pub.Round, pub.Start, pub.Finish, pub.DecidedWall} {
				if !at.IsZero() && at.Location() != time.UTC {
					t.Fatalf("instant %v is not in UTC", at)
				}
			}
			pub.Seq = d.seq
			if back := record(&pub, ri, 1); back != d {
				t.Fatalf("round trip:\n got  %+v\n want %+v", back, d)
			}
			if got, want := appendDecision(nil, &d, regions), appendDecisionForm(nil, pub); !bytes.Equal(got, want) {
				t.Fatalf("WAL bytes of %+v:\n got  %x\n want %x", d, got, want)
			}
			if got, want := srv.wireDecision(99, &d), WireDecision(md.Decision, uint32(md.Shard), md.ShardSeq); got != want {
				t.Fatalf("wire form of %+v:\n got  %+v\n want %+v", d, got, want)
			}
		}
	}
}

// TestSnapshotRejectsDecisionOutsidePartition: a snapshot whose ring holds
// a decision in a region the restoring shard does not own is refused, not
// indexed out of range.
func TestSnapshotRejectsDecisionOutsidePartition(t *testing.T) {
	env := testEnv(t)
	src := testShard(t, Config{Env: env, Scheduler: newScheduler(t, false), Tolerance: 0.5, Round: time.Minute})
	src.decisions.Append(decRecord{seq: 1, jobID: 5, region: 2, round: testStart.UnixNano(),
		start: testStart.UnixNano(), finish: testStart.UnixNano(), decidedWall: wire.TimeNone})
	src.decSeq = 1
	snap := src.marshalSnapshotLocked()

	ids := env.IDs()
	part, err := env.Partition(ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	dst := testShard(t, Config{Env: part, Scheduler: newScheduler(t, false), Tolerance: 0.5, Round: time.Minute})
	if err := dst.restoreSnapshot(snap); err == nil {
		t.Fatalf("restored a ring decision in %s into a shard over %v", ids[2], dst.regions)
	}
	whole := testShard(t, Config{Env: env, Scheduler: newScheduler(t, false), Tolerance: 0.5, Round: time.Minute})
	if err := whole.restoreSnapshot(snap); err != nil {
		t.Fatalf("restoring into the whole environment: %v", err)
	}
}

// drained builds a service over cfg, submits jobs, and runs it until every
// job is decided.
func drained(t testing.TB, cfg Config, jobs []*trace.Job) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	for _, j := range jobs {
		if _, err := srv.Submit(specFor(j)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return srv
}

// getDecisions is the body of GET /v1/decisions?since=since.
func getDecisions(srv *Server, since uint64) []byte {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("%s?since=%d", PathDecisions, since), nil))
	return rec.Body.Bytes()
}

// TestDecisionsPagePastEnd: a cursor at or past the newest decision —
// before any round, or after a drain — gives an empty page that is not nil
// and holds no capacity, from one shard's ring or from the merged log, and
// GET /v1/decisions renders it as [] rather than null.
func TestDecisionsPagePastEnd(t *testing.T) {
	jobs := genTrace(t, testEnv(t), 500, 2)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Env: testEnv(t), NewScheduler: coreFactory(t), Shards: shards, Tolerance: 0.5, Round: time.Minute}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Stop()
			cfg.Env = testEnv(t)
			srv := drained(t, cfg, jobs)
			all := srv.Decisions(0, 0)
			if len(all) != len(jobs) {
				t.Fatalf("%d decisions for %d jobs", len(all), len(jobs))
			}
			last := all[len(all)-1].Seq
			for _, tc := range []struct {
				srv   *Server
				since uint64
			}{{fresh, 0}, {fresh, 7}, {srv, last}, {srv, last + 7}} {
				page, _ := tc.srv.DecisionsPage(tc.since, 0)
				if page == nil || len(page) != 0 || cap(page) != 0 {
					t.Errorf("DecisionsPage(%d) = %v (nil %t, len %d, cap %d), want a non-nil empty page",
						tc.since, page, page == nil, len(page), cap(page))
				}
				if body := getDecisions(tc.srv, tc.since); !bytes.Contains(body, []byte(`"decisions":[]`)) {
					t.Errorf("GET since=%d: %s, want \"decisions\":[]", tc.since, body)
				}
			}
		})
	}
}

// TestLiveDecisionInstantsRenderUTC: under an environment whose Start is
// not in UTC, a live decision's Round, Start, Finish and DecidedWall are
// the same instants rendered in UTC, identical to what the same decisions
// carry once recovered from the log, and the JSON carries no offset.
func TestLiveDecisionInstantsRenderUTC(t *testing.T) {
	start := testStart.In(time.FixedZone("UTC+2", 2*60*60))
	newEnv := func() *region.Environment {
		env, err := region.NewEnvironment(region.Defaults(), energy.Table, start, 24*3, 21)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	dir := t.TempDir()
	cfg := func() Config {
		return Config{Env: newEnv(), Scheduler: newScheduler(t, false), Tolerance: 0.5, Round: time.Minute, DataDir: dir}
	}
	srv := drained(t, cfg(), genTrace(t, newEnv(), 500, 2))
	live := srv.Decisions(0, 0)
	if len(live) == 0 {
		t.Fatal("no decisions")
	}
	for _, d := range live {
		for name, at := range map[string]time.Time{"Round": d.Round, "Start": d.Start, "Finish": d.Finish, "DecidedWall": d.DecidedWall} {
			if at.Location() != time.UTC {
				t.Fatalf("job %d: %s %v is in %v, want UTC", d.JobID, name, at, at.Location())
			}
		}
		if off := d.Round.Sub(start); off < 0 || off%time.Minute != 0 {
			t.Fatalf("job %d: round %v is not a round instant from %v", d.JobID, d.Round, start)
		}
	}
	if body := getDecisions(srv, 0); bytes.Contains(body, []byte("+02:00")) {
		t.Errorf("GET /v1/decisions renders an offset: %.200s", body)
	}
	srv.Stop()

	recovered, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Stop()
	got := recovered.Decisions(0, 0)
	if len(got) != len(live) {
		t.Fatalf("recovered %d decisions, live %d", len(got), len(live))
	}
	for i := range live {
		if !reflect.DeepEqual(got[i], live[i]) {
			t.Fatalf("decision %d: recovered %+v, live %+v", i, got[i], live[i])
		}
	}
}
