// Package wal is the dependency-free durability layer under the serving
// stack: a segmented, CRC-checked, fsync-batched write-ahead log plus
// atomically-written snapshots, both plain files in one directory.
//
// The log is a sequence of records numbered from 1. Each record is framed
// as a 4-byte little-endian payload length, a 4-byte CRC32 (IEEE) of the
// payload, and the payload bytes; records append to the active segment
// file and segments rotate at a size threshold. Appends are buffered in
// user space; Sync flushes the buffer and fsyncs the segment — the
// group-commit point callers batch (the scheduling server syncs once per
// round). A snapshot covers a record index: recovery loads the newest
// valid snapshot and replays only the records after its covered index,
// and segments whose records are all covered are deleted (retention).
//
// Torn tails are expected, corruption is not: a partial or CRC-failing
// record at the very end of the last segment — the footprint of a crash
// mid-write — is truncated away on Open and appends resume cleanly after
// it, while an invalid record anywhere earlier is reported as an error
// (ErrCorrupt) rather than silently skipped.
//
// A Log is not safe for concurrent use; the owner serializes access (the
// scheduling server holds its own mutex across every call).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrCorrupt reports an invalid record before the end of the log — real
// corruption, as opposed to the torn final record a crash leaves (which
// Open truncates and recovers from silently).
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

const (
	headerBytes    = 8 // uint32 payload length + uint32 CRC32
	segSuffix      = ".wal"
	snapPrefix     = "snap-"
	snapSuffix     = ".snap"
	defaultSegment = 4 << 20
	defaultMaxRec  = 64 << 20
	syncSampleCap  = 512
	// keepSnapshots is how many newest snapshot files retention
	// preserves: the latest plus one fallback.
	keepSnapshots = 2
)

// Options parameterizes a Log.
type Options struct {
	// Dir is the log directory (created if absent). Required.
	Dir string
	// SyncDelay, when non-nil, is consulted on every effective Sync (one
	// that has new records to commit) and the returned duration is slept
	// before the fsync — the slow-disk fault-injection hook the scenario
	// harness uses to emulate a degraded device. The stall is part of the
	// measured fsync duration, so it surfaces in Stats.FsyncP50/P99
	// exactly like a real slow disk. Nil (the default) adds no branch
	// beyond one pointer check: the hook is exactly free when unused.
	SyncDelay func() time.Duration

	// segmentBytes is the rotation threshold for segment files (default
	// 4 MiB). A single record larger than the threshold still lands in
	// one segment; rotation happens between records.
	segmentBytes int64
	// maxRecordBytes rejects absurd appends and, symmetrically, treats a
	// length header beyond it as a torn/corrupt record instead of
	// allocating garbage (default 64 MiB). Only tests lower either.
	maxRecordBytes int
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("wal: empty directory")
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = defaultSegment
	}
	if o.maxRecordBytes <= 0 {
		o.maxRecordBytes = defaultMaxRec
	}
	return o, nil
}

// Stats is a point-in-time accounting of the log, for status endpoints
// and metrics.
type Stats struct {
	// Segments and Bytes size the on-disk log (snapshot files excluded).
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Appended and Synced count records: Synced trails Appended by the
	// records buffered since the last Sync (lost if the process dies).
	Appended uint64 `json:"appended"`
	Synced   uint64 `json:"synced"`
	// Fsyncs counts Sync calls that reached the disk; LastSync is the
	// wall instant of the newest (zero before the first).
	Fsyncs   uint64    `json:"fsyncs"`
	LastSync time.Time `json:"last_sync,omitzero"`
	// FsyncP50 and FsyncP99 are percentiles of recent fsync stalls (over
	// a bounded window of the latest syncs).
	FsyncP50 time.Duration `json:"fsync_p50_ns"`
	FsyncP99 time.Duration `json:"fsync_p99_ns"`
	// Snapshots counts snapshots written through this Log handle;
	// SnapshotCovered is the record index the newest one covers.
	Snapshots       uint64 `json:"snapshots"`
	SnapshotCovered uint64 `json:"snapshot_covered"`
	// TruncatedBytes is the torn tail Open cut off, if any.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// Log is an append-only segmented record log rooted at one directory.
// Construct with Open; it is ready to Append even when the directory
// already holds records (recovery reads happen via LatestSnapshot and
// Replay, appends continue after the existing tail).
type Log struct {
	opt Options

	f        *os.File      // active segment
	w        *writeBuffer  // user-space append buffer (group commit)
	segStart uint64        // record index of the active segment's first record
	segBytes int64         // bytes in the active segment (including buffered)
	segments []segmentInfo // closed + active segments, ascending by start

	next      uint64 // index the next Append receives
	synced    uint64 // records durably on disk
	fsyncs    uint64
	lastSync  time.Time
	syncDur   []time.Duration
	syncPos   int
	snapshots uint64
	snapCover uint64
	truncated int64
	closed    bool
}

// segmentInfo locates one segment file: the index of its first record and
// its size. The active segment is the last entry.
type segmentInfo struct {
	start uint64
	bytes int64
}

// writeBuffer is a minimal bufio.Writer stand-in whose unflushed contents
// can be discarded — the semantics Crash needs (bufio.Writer.Reset would
// do, but an explicit type keeps the loss model visible).
type writeBuffer struct {
	f   *os.File
	buf []byte
}

// appendRecord frames payload into the buffer, spilling to the file
// once 64 KiB accumulates. Spills fall between records.
func (b *writeBuffer) appendRecord(payload []byte) error {
	b.buf = appendFrame(b.buf, payload)
	if len(b.buf) >= 1<<16 {
		return b.Flush()
	}
	return nil
}

// Flush pushes the buffered bytes into the OS (not yet fsynced).
func (b *writeBuffer) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

func segName(start uint64) string  { return fmt.Sprintf("%016x%s", start, segSuffix) }
func snapName(cover uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, cover, snapSuffix) }

// Open creates or reopens the log at opt.Dir: it scans every segment,
// validates record framing, truncates a torn final record, and leaves the
// log positioned to append after the last intact record. Mid-log
// corruption returns ErrCorrupt.
func Open(opt Options) (*Log, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opt: opt, next: 1, syncDur: make([]time.Duration, 0, syncSampleCap)}

	starts, err := listSegments(opt.Dir)
	if err != nil {
		return nil, err
	}
	if len(starts) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Every segment but the last must be fully intact; the last may carry
	// a torn tail, which is truncated away.
	for i, start := range starts {
		path := filepath.Join(opt.Dir, segName(start))
		last := i == len(starts)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %s: %v", ErrCorrupt, segName(start), err)
		}
		count, goodBytes, _ := walkSegment(data, opt.maxRecordBytes, nil)
		if goodBytes != int64(len(data)) && !last {
			return nil, fmt.Errorf("%w: segment %s: invalid record at offset %d", ErrCorrupt, segName(start), goodBytes)
		}
		if want := start; i > 0 && want != l.next {
			return nil, fmt.Errorf("%w: segment %s starts at record %d, want %d", ErrCorrupt, segName(start), want, l.next)
		}
		if i == 0 {
			l.next = start
		}
		l.next += uint64(count)
		if torn := int64(len(data)) - goodBytes; torn > 0 {
			l.truncated = torn
			if err := os.Truncate(path, goodBytes); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", segName(start), err)
			}
		}
		l.segments = append(l.segments, segmentInfo{start: start, bytes: goodBytes})
	}
	l.synced = l.next - 1
	// Reopen the last segment for appending.
	lastSeg := l.segments[len(l.segments)-1]
	f, err := os.OpenFile(filepath.Join(opt.Dir, segName(lastSeg.start)), os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = &writeBuffer{f: f}
	l.segStart = lastSeg.start
	l.segBytes = lastSeg.bytes
	if covers, err := listSnapshots(opt.Dir); err == nil && len(covers) > 0 {
		l.snapCover = covers[len(covers)-1]
	}
	return l, nil
}

// listIndexed returns the record indices encoded in dir's file names of
// the form prefix + 16 hex digits + suffix — segment starts, snapshot
// coverage — ascending. Names that do not parse are not ours.
func listIndexed(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var idx []uint64
	for _, e := range ents {
		digits, hasPrefix := strings.CutPrefix(e.Name(), prefix)
		digits, hasSuffix := strings.CutSuffix(digits, suffix)
		if !hasPrefix || !hasSuffix {
			continue
		}
		if n, err := strconv.ParseUint(digits, 16, 64); err == nil {
			idx = append(idx, n)
		}
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	return idx, nil
}

// listSegments returns the start indices of every segment file, ascending.
func listSegments(dir string) ([]uint64, error) { return listIndexed(dir, "", segSuffix) }

// listSnapshots returns the covered indices of the snapshot files,
// ascending.
func listSnapshots(dir string) ([]uint64, error) { return listIndexed(dir, snapPrefix, snapSuffix) }

// appendFrame is the one writer of the length|CRC|payload framing that
// segment records and snapshot files share.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// walkSegment is the one reader of that framing. It walks data, a whole
// segment or snapshot file, as frames, hands each intact payload to fn
// (when non-nil), and returns how many were intact and the offset past
// the last. It stops at the first frame whose length exceeds maxRec or
// the remaining bytes, or whose CRC fails; what goodBytes < len(data)
// means is the caller's policy — a torn tail to truncate on the final
// segment, ErrCorrupt anywhere else, a snapshot to skip. An error is only
// ever fn's.
func walkSegment(data []byte, maxRec int, fn func(payload []byte) error) (count int, goodBytes int64, err error) {
	off := int64(0)
	for int64(len(data))-off >= headerBytes {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > int64(maxRec) || off+headerBytes+n > int64(len(data)) {
			break // runs past the end: torn length or torn payload
		}
		payload := data[off+headerBytes : off+headerBytes+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return count, off, err
			}
		}
		off += headerBytes + n
		count++
	}
	return count, off, nil
}

func (l *Log) openSegment(start uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opt.Dir, segName(start)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = &writeBuffer{f: f}
	l.segStart = start
	l.segBytes = 0
	l.segments = append(l.segments, segmentInfo{start: start})
	return nil
}

// Append buffers one record and returns its index (1-based). The record
// is not durable until the next Sync.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, errors.New("wal: log closed")
	}
	if len(payload) > l.opt.maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds cap %d", len(payload), l.opt.maxRecordBytes)
	}
	if l.segBytes >= l.opt.segmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	if err := l.w.appendRecord(payload); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	idx := l.next
	l.next++
	l.segBytes += headerBytes + int64(len(payload))
	l.segments[len(l.segments)-1].bytes = l.segBytes
	return idx, nil
}

// rotate seals the active segment (flush + fsync) and opens the next one.
func (l *Log) rotate() error {
	if err := l.syncActive(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.openSegment(l.next)
}

// Sync is the group-commit point: it flushes buffered records into the
// OS and fsyncs the active segment, making every record appended so far
// durable. The fsync stall is sampled for the percentile stats.
func (l *Log) Sync() error {
	if l.closed {
		return errors.New("wal: log closed")
	}
	if l.synced == l.next-1 {
		return nil // nothing new
	}
	t0 := time.Now()
	if l.opt.SyncDelay != nil {
		if d := l.opt.SyncDelay(); d > 0 {
			time.Sleep(d)
		}
	}
	if err := l.syncActive(); err != nil {
		return err
	}
	d := time.Since(t0)
	l.fsyncs++
	l.lastSync = time.Now()
	l.synced = l.next - 1
	if len(l.syncDur) < syncSampleCap {
		l.syncDur = append(l.syncDur, d)
	} else {
		l.syncDur[l.syncPos] = d
	}
	l.syncPos = (l.syncPos + 1) % syncSampleCap
	return nil
}

func (l *Log) syncActive() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Appended reports how many records the log holds (buffered included).
func (l *Log) Appended() uint64 { return l.next - 1 }

// FirstIndex is the record index of the oldest record still on disk —
// retention deletes snapshot-covered segments, so it exceeds 1 once a
// snapshot has allowed pruning. (An empty log reports the index its
// first record will get.)
func (l *Log) FirstIndex() uint64 { return l.segments[0].start }

// Close syncs and closes the log. Idempotent.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	err := l.Sync()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates power loss for tests and fault injection: every record
// buffered since the last Sync (or flush) is discarded and the file is
// closed without syncing, so a reopened log sees exactly what a killed
// process would have left behind.
func (l *Log) Crash() {
	if l.closed {
		return
	}
	l.closed = true
	l.w.buf = nil // the loss: unflushed records never reach the OS
	_ = l.f.Close()
}

// Stats returns a point-in-time accounting of the log.
func (l *Log) Stats() Stats {
	st := Stats{
		Segments:        len(l.segments),
		Appended:        l.next - 1,
		Synced:          l.synced,
		Fsyncs:          l.fsyncs,
		LastSync:        l.lastSync,
		Snapshots:       l.snapshots,
		SnapshotCovered: l.snapCover,
		TruncatedBytes:  l.truncated,
	}
	for _, s := range l.segments {
		st.Bytes += s.bytes
	}
	if n := len(l.syncDur); n > 0 {
		sorted := append([]time.Duration(nil), l.syncDur...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.FsyncP50 = sorted[n/2]
		p99 := (n*99 + 99) / 100
		if p99 > n {
			p99 = n
		}
		st.FsyncP99 = sorted[p99-1]
	}
	return st
}

// Replay streams every record with index > after, in order, to fn. It
// reads the files as Open left them, so an invalid record mid-stream is
// ErrCorrupt (Open already truncated any legitimate torn tail). Replay
// must not run concurrently with Append on the same handle; recovery
// replays before serving starts.
func (l *Log) Replay(after uint64, fn func(idx uint64, payload []byte) error) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	for i, seg := range l.segments {
		segEnd := l.next // exclusive record bound of the last segment
		if i+1 < len(l.segments) {
			segEnd = l.segments[i+1].start
		}
		if segEnd <= after+1 {
			continue // fully covered by the snapshot
		}
		data, err := os.ReadFile(filepath.Join(l.opt.Dir, segName(seg.start)))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		idx := seg.start - 1 // index of the record the walk last yielded
		count, goodBytes, err := walkSegment(data, l.opt.maxRecordBytes, func(payload []byte) error {
			if idx++; idx <= after {
				return nil
			}
			return fn(idx, payload)
		})
		if err != nil {
			return err
		}
		if goodBytes != int64(len(data)) {
			return fmt.Errorf("%w: record %d invalid (segment %s offset %d)", ErrCorrupt, seg.start+uint64(count), segName(seg.start), goodBytes)
		}
	}
	return nil
}

// WriteSnapshot durably records a snapshot covering every record with
// index <= covered: the payload is CRC-framed, written to a temp file,
// fsynced, and renamed into place, so a crash mid-write leaves either the
// old snapshot set or the new one, never a torn file that recovery could
// half-trust. Older snapshots beyond the retention count and segments
// whose records are all covered are deleted.
func (l *Log) WriteSnapshot(covered uint64, payload []byte) error {
	if l.closed {
		return errors.New("wal: log closed")
	}
	if covered > l.next-1 {
		return fmt.Errorf("wal: snapshot covers record %d, log has %d", covered, l.next-1)
	}
	// The snapshot asserts records <= covered are folded in, so they must
	// not be lost to a crash that the snapshot itself survives.
	if err := l.Sync(); err != nil {
		return err
	}
	tmp := filepath.Join(l.opt.Dir, snapName(covered)+".tmp")
	if err := writeFileSync(tmp, appendFrame(make([]byte, 0, headerBytes+len(payload)), payload)); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.opt.Dir, snapName(covered))); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.opt.Dir); err != nil {
		return err
	}
	l.snapshots++
	l.snapCover = covered
	l.retainLocked(covered)
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// retainLocked applies retention after a snapshot at covered: old
// snapshot files beyond keepSnapshots go, and so does every non-active
// segment whose records all lie at or below covered.
func (l *Log) retainLocked(covered uint64) {
	if snaps, err := listSnapshots(l.opt.Dir); err == nil && len(snaps) > keepSnapshots {
		for _, c := range snaps[:len(snaps)-keepSnapshots] {
			_ = os.Remove(filepath.Join(l.opt.Dir, snapName(c)))
		}
	}
	kept := l.segments[:0]
	for i, seg := range l.segments {
		end := l.next
		if i+1 < len(l.segments) {
			end = l.segments[i+1].start
		}
		if i+1 < len(l.segments) && end <= covered+1 {
			_ = os.Remove(filepath.Join(l.opt.Dir, segName(seg.start)))
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
}

// LatestSnapshot loads the newest valid snapshot payload and the record
// index it covers. Snapshots that fail validation (a torn write that
// somehow survived the atomic rename protocol, or on-disk rot) are
// skipped in favor of the next-newest; no snapshot at all returns
// (nil, 0, nil) — recovery then replays the whole log.
func (l *Log) LatestSnapshot() ([]byte, uint64, error) {
	covers, err := listSnapshots(l.opt.Dir)
	if err != nil {
		return nil, 0, err
	}
	for i := len(covers) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(l.opt.Dir, snapName(covers[i])))
		if err != nil {
			continue
		}
		// A snapshot is one frame filling the file; its size is not capped.
		var payload []byte
		count, goodBytes, _ := walkSegment(data, len(data), func(p []byte) error { payload = p; return nil })
		if count == 1 && goodBytes == int64(len(data)) {
			return payload, covers[i], nil
		}
	}
	return nil, 0, nil
}
