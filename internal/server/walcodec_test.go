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

var update = flag.Bool("update", false, "rewrite the committed WAL fuzz seed corpora")

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
		dir := filepath.Join("testdata", "fuzz", target)
		for i, seed := range walFuzzSeeds(t) {
			name := fmt.Sprintf("seed_%02d", i)
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
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
	srv, err := New(Config{Env: testEnv(t), Scheduler: newScheduler(t, false), Tolerance: 0.5,
		Round: time.Minute, DecisionLogCap: 8})
	if err != nil {
		t.Fatal(err)
	}
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
			again = encodeRoundRecord(rec.k, rec.seqAfter, rec.decisions)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("record does not re-encode to its input:\n got %x\nwant %x", again, data)
		}
	})
}

// FuzzSnapshot restores arbitrary bytes into a fresh server with a small
// decision ring. The invariant: an error or a restored server, never a
// panic.
func FuzzSnapshot(f *testing.F) {
	for _, seed := range walFuzzSeeds(f) {
		f.Add(seed)
	}
	env, sched := testEnv(f), newScheduler(f, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := New(Config{Env: env, Scheduler: sched, Tolerance: 0.5, Round: time.Minute, DecisionLogCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		if srv.restoreSnapshot(data) == nil && srv.sim.Pending()+len(srv.future) > len(data)/jobSize {
			t.Fatalf("restored %d jobs from %d bytes", srv.sim.Pending()+len(srv.future), len(data))
		}
	})
}
