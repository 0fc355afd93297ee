package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, opt Options) *Log {
	t.Helper()
	l, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendT(t *testing.T, l *Log, payload []byte) uint64 {
	t.Helper()
	idx, err := l.Append(payload)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return idx
}

func record(i int) []byte { return []byte(fmt.Sprintf("record-%04d-payload", i)) }

func replayAll(t *testing.T, l *Log, after uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	err := l.Replay(after, func(idx uint64, payload []byte) error {
		got[idx] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendSyncReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	for i := 1; i <= 100; i++ {
		if idx := appendT(t, l, record(i)); idx != uint64(i) {
			t.Fatalf("record %d got index %d", i, idx)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := l.Stats()
	if st.Appended != 100 || st.Synced != 100 {
		t.Fatalf("stats after sync: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	if l2.Appended() != 100 {
		t.Fatalf("reopened Appended = %d, want 100", l2.Appended())
	}
	got := replayAll(t, l2, 0)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i := 1; i <= 100; i++ {
		if got[uint64(i)] != string(record(i)) {
			t.Fatalf("record %d = %q", i, got[uint64(i)])
		}
	}
	// Appends continue after the existing tail.
	if idx := appendT(t, l2, record(101)); idx != 101 {
		t.Fatalf("post-reopen append got index %d, want 101", idx)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record (28 bytes framed) rotates after ~2.
	l := openT(t, Options{Dir: dir, segmentBytes: 64})
	for i := 1; i <= 20; i++ {
		appendT(t, l, record(i))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(starts) < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(starts))
	}
	l2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	got := replayAll(t, l2, 7)
	if len(got) != 13 {
		t.Fatalf("replay after=7 returned %d records, want 13", len(got))
	}
	for i := 8; i <= 20; i++ {
		if got[uint64(i)] != string(record(i)) {
			t.Fatalf("record %d = %q", i, got[uint64(i)])
		}
	}
}

func TestCrashDropsUnsynced(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	for i := 1; i <= 10; i++ {
		appendT(t, l, record(i))
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	for i := 11; i <= 15; i++ {
		appendT(t, l, record(i))
	}
	l.Crash() // records 11..15 were never flushed

	l2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	if l2.Appended() != 10 {
		t.Fatalf("after crash Appended = %d, want 10 (unsynced tail lost)", l2.Appended())
	}
	got := replayAll(t, l2, 0)
	if len(got) != 10 || got[10] != string(record(10)) {
		t.Fatalf("unexpected replay after crash: %d records", len(got))
	}
}

// TestTornTailByteByByte is the torn-write satellite: for every possible
// truncation point inside the final record, and for every corrupted byte
// position in it, recovery must truncate the damage and reopen cleanly
// with all prior records intact.
func TestTornTailByteByByte(t *testing.T) {
	build := func(t *testing.T) (string, string, int64) {
		dir := t.TempDir()
		l := openT(t, Options{Dir: dir})
		for i := 1; i <= 5; i++ {
			appendT(t, l, record(i))
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		starts, _ := listSegments(dir)
		path := filepath.Join(dir, segName(starts[0]))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		recBytes := int64(headerBytes + len(record(5)))
		return dir, path, fi.Size() - recBytes // offset where record 5 begins
	}

	check := func(t *testing.T, dir string) {
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open after tail damage: %v", err)
		}
		defer l.Close()
		if l.Appended() != 4 {
			t.Fatalf("Appended = %d, want 4 (damaged final record dropped)", l.Appended())
		}
		got := replayAll(t, l, 0)
		for i := 1; i <= 4; i++ {
			if got[uint64(i)] != string(record(i)) {
				t.Fatalf("record %d corrupted by tail recovery: %q", i, got[uint64(i)])
			}
		}
		// The log must accept appends at the truncated position.
		if idx := appendT(t, l, []byte("resumed")); idx != 5 {
			t.Fatalf("resume append got index %d, want 5", idx)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync after resume: %v", err)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		dir, path, off := build(t)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for cut := off; cut < int64(len(full)); cut++ {
			if err := os.WriteFile(path, full[:cut], 0o666); err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			check(t, dir)
			// restore for the next cut (check appended a record + synced)
			if err := os.WriteFile(path, full, 0o666); err != nil {
				t.Fatalf("restore: %v", err)
			}
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		dir, path, off := build(t)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		for pos := off; pos < int64(len(full)); pos++ {
			damaged := append([]byte(nil), full...)
			damaged[pos] ^= 0xff
			if err := os.WriteFile(path, damaged, 0o666); err != nil {
				t.Fatalf("flip at %d: %v", pos, err)
			}
			check(t, dir)
			if err := os.WriteFile(path, full, 0o666); err != nil {
				t.Fatalf("restore: %v", err)
			}
		}
	})
}

// TestMidLogCorruptionIsError: damage in a sealed (non-final) segment is
// real corruption and must refuse to open, not silently drop records.
func TestMidLogCorruptionIsError(t *testing.T) {
	dir2 := t.TempDir()
	l2 := openT(t, Options{Dir: dir2, segmentBytes: 64})
	for i := 1; i <= 20; i++ {
		appendT(t, l2, record(i))
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts2, _ := listSegments(dir2)
	if len(starts2) < 2 {
		t.Fatalf("need multiple segments, got %d", len(starts2))
	}
	p0 := filepath.Join(dir2, segName(starts2[0]))
	d0, _ := os.ReadFile(p0)
	d0[headerBytes+1] ^= 0xff
	if err := os.WriteFile(p0, d0, 0o666); err != nil {
		t.Fatalf("corrupt sealed segment: %v", err)
	}
	if _, err := Open(Options{Dir: dir2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-log corruption: got %v, want ErrCorrupt", err)
	}
}

func TestSnapshotRoundTripAndRetention(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir, segmentBytes: 64})
	for i := 1; i <= 20; i++ {
		appendT(t, l, record(i))
	}
	if err := l.WriteSnapshot(8, []byte("state-at-8")); err != nil {
		t.Fatalf("WriteSnapshot(8): %v", err)
	}
	if err := l.WriteSnapshot(15, []byte("state-at-15")); err != nil {
		t.Fatalf("WriteSnapshot(15): %v", err)
	}
	if err := l.WriteSnapshot(20, []byte("state-at-20")); err != nil {
		t.Fatalf("WriteSnapshot(20): %v", err)
	}
	// Retention: keep 2 snapshots, drop fully-covered segments.
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatalf("listSnapshots: %v", err)
	}
	if len(snaps) != 2 || snaps[0] != 15 || snaps[1] != 20 {
		t.Fatalf("retained snapshots = %v, want [15 20]", snaps)
	}
	payload, covered, err := l.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if covered != 20 || string(payload) != "state-at-20" {
		t.Fatalf("LatestSnapshot = %q @ %d", payload, covered)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	payload, covered, err = l2.LatestSnapshot()
	if err != nil || covered != 20 || string(payload) != "state-at-20" {
		t.Fatalf("reopened LatestSnapshot = %q @ %d (err %v)", payload, covered, err)
	}
	if got := replayAll(t, l2, covered); len(got) != 0 {
		t.Fatalf("replay after full snapshot returned %d records, want 0", len(got))
	}
	if l2.Appended() != 20 {
		t.Fatalf("Appended = %d, want 20", l2.Appended())
	}
}

// TestCorruptLatestSnapshotFallsBack: a rotted newest snapshot is skipped
// in favor of the previous one.
func TestCorruptLatestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	for i := 1; i <= 10; i++ {
		appendT(t, l, record(i))
	}
	if err := l.WriteSnapshot(5, []byte("good-5")); err != nil {
		t.Fatalf("snapshot 5: %v", err)
	}
	if err := l.WriteSnapshot(10, []byte("good-10")); err != nil {
		t.Fatalf("snapshot 10: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p := filepath.Join(dir, snapName(10))
	data, _ := os.ReadFile(p)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p, data, 0o666); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}
	l2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	payload, covered, err := l2.LatestSnapshot()
	if err != nil {
		t.Fatalf("LatestSnapshot: %v", err)
	}
	if covered != 5 || string(payload) != "good-5" {
		t.Fatalf("fallback snapshot = %q @ %d, want good-5 @ 5", payload, covered)
	}
}

func TestSyncIdempotentAndStats(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	defer l.Close()
	appendT(t, l, record(1))
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st1 := l.Stats()
	if err := l.Sync(); err != nil { // nothing new: must not fsync again
		t.Fatalf("second Sync: %v", err)
	}
	if st2 := l.Stats(); st2.Fsyncs != st1.Fsyncs {
		t.Fatalf("no-op Sync bumped fsyncs: %d -> %d", st1.Fsyncs, st2.Fsyncs)
	}
	if st1.Fsyncs == 0 || st1.LastSync.IsZero() {
		t.Fatalf("missing fsync accounting: %+v", st1)
	}
	if st1.FsyncP50 <= 0 || st1.FsyncP99 < st1.FsyncP50 {
		t.Fatalf("bad fsync percentiles: %+v", st1)
	}
}

func TestRecordTooLarge(t *testing.T) {
	l := openT(t, Options{Dir: t.TempDir(), maxRecordBytes: 16})
	defer l.Close()
	if _, err := l.Append(make([]byte, 17)); err == nil {
		t.Fatal("oversized append succeeded")
	}
}

// TestTornLengthHeader: a garbage length header at the tail (e.g. 0xffffffff)
// must be treated as torn, not attempted as a 4 GiB allocation.
func TestTornLengthHeader(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, Options{Dir: dir})
	appendT(t, l, record(1))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, _ := listSegments(dir)
	path := filepath.Join(dir, segName(starts[0]))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], 0xffffffff)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	f.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open with garbage tail header: %v", err)
	}
	defer l2.Close()
	if l2.Appended() != 1 {
		t.Fatalf("Appended = %d, want 1", l2.Appended())
	}
}
