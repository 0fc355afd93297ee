package server

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"waterwise/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the committed fuzz seed corpora")

// goldenPayload reads one of the golden WAL fixtures under testdata.
func goldenPayload(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".hex"))
	if err != nil {
		tb.Fatal(err)
	}
	b, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		tb.Fatalf("%s: bad fixture hex: %v", name, err)
	}
	return b
}

// hostileRound is a 21-byte round record declaring 2^22 decisions.
func hostileRound() []byte {
	b := wire.AppendU64(wire.AppendI64([]byte{recRound}, 1), 1)
	return wire.AppendU32(b, 1<<22)
}

// hostileSnapshot is a 96-byte snapshot whose header parses and whose
// ingest queue declares 2^26 jobs.
func hostileSnapshot() []byte {
	b := wire.AppendU32(nil, snapVersion)
	b = append(b, make([]byte, 11*8)...) // round clock, time, counters
	return wire.AppendU32(b, 1<<26)
}

// walFuzzSeeds cuts the three golden payloads into seeds — each whole,
// truncated, and with single bits flipped — plus the empty input and
// the two hostile-count inputs. FuzzWALRecord and FuzzSnapshot share
// them: each decoder also sees the other's format.
func walFuzzSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{nil, hostileRound(), hostileSnapshot()}
	for _, name := range []string{"wal_job_v1", "wal_round_v1", "snapshot_v1"} {
		b := goldenPayload(tb, name)
		seeds = append(seeds, b, b[:1], b[:len(b)/2], b[:len(b)-1])
		for _, off := range []int{0, len(b) / 3, len(b) / 2, len(b) - 1} {
			flip := bytes.Clone(b)
			flip[off] ^= 0x41
			seeds = append(seeds, flip)
		}
	}
	return seeds
}

// TestWALFuzzCorpusCommitted keeps testdata/fuzz/FuzzWALRecord and
// testdata/fuzz/FuzzSnapshot in sync with walFuzzSeeds: -update rewrites
// the corpus files in the go-fuzz v1 encoding, and the plain run fails if
// a seed is missing or stale, so `go test -fuzz` and CI always start from
// the committed inputs.
func TestWALFuzzCorpusCommitted(t *testing.T) {
	for _, target := range []string{"FuzzWALRecord", "FuzzSnapshot"} {
		for i, seed := range walFuzzSeeds(t) {
			checkCorpusFile(t, target, fmt.Sprintf("seed_%02d", i), fmt.Sprintf("[]byte(%s)\n", strconv.Quote(string(seed))))
		}
	}
}

// checkCorpusFile checks that testdata/fuzz/<target>/<name> is the go-fuzz
// v1 file whose values are args, one line each; -update writes it.
func checkCorpusFile(t *testing.T, target, name, args string) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	body := "go test fuzz v1\n" + args
	path := filepath.Join(dir, name)
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fuzz seed (run with -update): %v", err)
	}
	if string(got) != body {
		t.Fatalf("fuzz seed %s/%s out of date (run with -update)", target, name)
	}
}

// allocatedBy reports how many bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWALDecodeBoundsCounts: recovery reads counts it did not write, so
// a count the payload cannot hold must fail before anything is sized by
// it. Trusting them, the hostile snapshot allocates ~6.6 GB and the
// hostile round record ~576 MB before failing.
func TestWALDecodeBoundsCounts(t *testing.T) {
	srv := testShard(t, Config{Env: testEnv(t), Scheduler: newScheduler(t, false), Tolerance: 0.5,
		Round: time.Minute, DecisionLogCap: 8})
	for _, tc := range []struct {
		name  string
		input []byte
		run   func([]byte) error
	}{
		{"round record", hostileRound(), srv.replayRecord},
		{"snapshot", hostileSnapshot(), srv.restoreSnapshot},
	} {
		var err error
		grew := allocatedBy(func() { err = tc.run(tc.input) })
		if err == nil {
			t.Errorf("%s declaring a count its %d bytes cannot hold: no error", tc.name, len(tc.input))
		}
		if grew >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", tc.name, len(tc.input), grew)
		}
	}
}

// FuzzWALRecord feeds arbitrary bytes to the log record decoder. The
// invariants: never panic; a record that decodes re-encodes to exactly
// its input (no field is dropped or normalised, no trailing bytes
// tolerated); and its decision capacity is bounded by what the payload
// can hold, so a hostile count cannot force a large allocation.
func FuzzWALRecord(f *testing.F) {
	for _, seed := range walFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if cap(rec.decisions)*decisionSize > len(data) {
			t.Fatalf("decoded capacity %d exceeds what %d payload bytes hold", cap(rec.decisions), len(data))
		}
		var again []byte
		if rec.job != nil {
			again = encodeJobRecord(rec.job, rec.digest)
		} else {
			again = encodeDecisions(rec.k, rec.seqAfter, rec.decisions)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("record does not re-encode to its input:\n got %x\nwant %x", again, data)
		}
	})
}

// FuzzSnapshot restores arbitrary bytes into a fresh shard with a small
// decision ring. The invariants: an error or a restored shard, never a
// panic; no more jobs than the bytes can hold; and a restored state is a
// fixpoint — its snapshot restores into a state whose snapshot is the
// same bytes, since every section is written in a fixed order. Beside the
// committed seeds it starts from the golden snapshot with its ring's
// region renamed out of the partition, which must be an error.
func FuzzSnapshot(f *testing.F) {
	for _, seed := range walFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add(ringOutsidePartition(f))
	env, sched := testEnv(f), newScheduler(f, false)
	restore := func(t *testing.T, data []byte) (*shard, error) {
		srv := testShard(t, Config{Env: env, Scheduler: sched, Tolerance: 0.5, Round: time.Minute, DecisionLogCap: 8})
		return srv, srv.restoreSnapshot(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := restore(t, data)
		if err != nil {
			return
		}
		if srv.sim.Pending()+srv.future.Len() > len(data)/jobSize {
			t.Fatalf("restored %d jobs from %d bytes", srv.sim.Pending()+srv.future.Len(), len(data))
		}
		once := srv.marshalSnapshotLocked()
		again, err := restore(t, once)
		if err != nil {
			t.Fatalf("a restored state's snapshot does not restore: %v", err)
		}
		if twice := again.marshalSnapshotLocked(); !bytes.Equal(twice, once) {
			t.Fatalf("snapshot is not a fixpoint:\n once  %x\n twice %x", once, twice)
		}
	})
}

// ringOutsidePartition is the golden snapshot with every ring decision's
// region renamed to one no partition holds, and the check that restoring
// it fails.
func ringOutsidePartition(tb testing.TB) []byte {
	snap := goldenPayload(tb, "snapshot_v1")
	srv := testShard(tb, Config{Env: testEnv(tb), Scheduler: newScheduler(tb, false), Tolerance: 0.5, Round: time.Minute, DecisionLogCap: 8})
	if err := srv.restoreSnapshot(snap); err != nil {
		tb.Fatal(err)
	}
	// The ring is the snapshot's last section: rename from its start.
	var ring []byte
	srv.decisions.Each(func(d decRecord) { ring = appendDecision(ring, &d, srv.regions) })
	at := len(snap) - len(ring)
	out := bytes.Clone(snap)
	for _, id := range srv.regions {
		name := []byte(id)
		out = append(out[:at:at], bytes.ReplaceAll(out[at:], name, bytes.Repeat([]byte("?"), len(name)))...)
	}
	if err := testShard(tb, Config{Env: testEnv(tb), Scheduler: newScheduler(tb, false), Tolerance: 0.5, Round: time.Minute}).restoreSnapshot(out); err == nil {
		tb.Fatal("restored a ring decision outside the partition")
	}
	return out
}
