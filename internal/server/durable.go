package server

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/units"
	"waterwise/internal/wal"
)

// The durability layer. With Config.DataDir set, every accepted job and
// every scheduling round is appended to a write-ahead log (internal/wal)
// before it is acknowledged, and settled scheduler state is snapshotted
// periodically. Recovery is replay: because the whole stack is
// deterministic — same environment, same scheduler, same pending order,
// same machine-model state in, same decisions out (the warm≡cold and
// sharded≡unsharded equivalence proofs of earlier PRs are what make this
// safe) — a restarted server restores the newest snapshot and re-runs the
// logged rounds through cluster.Sim, re-deriving decisions bit-for-bit
// rather than trusting persisted solver state. The logged decisions act
// as a checksum: replay validates every re-derived placement against the
// logged one and refuses to serve from a diverged log.
//
// What is durable when: records are appended per event but fsynced by
// group commit — on the SyncInterval clock, and, crucially, before any
// decision is served (DecisionsPage syncs a dirty log before reading
// the ring), so a decision a client has seen can never be lost to a
// crash. A crash loses at most the last interval's unserved rounds —
// every one of which replay re-derives — plus jobs acknowledged in that
// window, which the client must retry; the idempotent dedupe index
// makes the retry safe (same id + same spec digest returns the original
// id instead of ErrDuplicateID).
//
// Two mutations are deliberately not logged, because they re-derive:
// empty rounds (no pending work — they only advance the round clock,
// which the next logged round re-establishes) and horizon-overrun
// abandonment (the recovered loop re-runs the abandon round from the
// restored queue state).

// ErrReplayDiverged reports a recovery replay whose re-derived decisions
// do not match the logged ones — the data directory belongs to a
// different configuration (environment, scheduler, tolerance, round
// cadence) than the server was built with.
var ErrReplayDiverged = errors.New("server: wal replay diverged from logged decisions")

// WAL record types and the snapshot format version.
const (
	recJob      = 1 // one accepted job, appended before Submit acknowledges
	recRound    = 2 // one scheduling round that stepped the simulator
	snapVersion = 1
)

// zeroTimeSentinel encodes time.Time{} (distinguishable from any real
// instant, which UnixNano cannot represent as MinInt64).
const zeroTimeSentinel = int64(math.MinInt64)

// specDigest is the idempotency key of a submission: FNV-1a over the
// canonical client-visible spec, computed before Submit-defaulting so a
// client retrying the same request (zero Submit instant included)
// produces the same digest the original acceptance recorded.
func specDigest(spec JobSpec) uint64 {
	h := fnv.New64a()
	var b [8]byte
	wu := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	ws := func(s string) { wu(uint64(len(s))); io.WriteString(h, s) }
	if spec.ID != nil {
		wu(1)
		wu(uint64(int64(*spec.ID)))
	} else {
		wu(0)
	}
	ws(spec.Benchmark)
	ws(string(spec.Home))
	if spec.Submit.IsZero() {
		wu(0)
	} else {
		wu(1)
		wu(uint64(spec.Submit.UTC().UnixNano()))
	}
	wu(math.Float64bits(spec.DurationSec))
	wu(math.Float64bits(spec.EnergyKWh))
	wu(math.Float64bits(spec.EstDurationSec))
	wu(math.Float64bits(spec.EstEnergyKWh))
	return h.Sum64()
}

// walEnc builds a little-endian binary payload.
type walEnc struct{ b []byte }

func (e *walEnc) u8(v uint8) { e.b = append(e.b, v) }
func (e *walEnc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *walEnc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *walEnc) i64(v int64)   { e.u64(uint64(v)) }
func (e *walEnc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *walEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *walEnc) time(t time.Time) {
	if t.IsZero() {
		e.i64(zeroTimeSentinel)
		return
	}
	e.i64(t.UnixNano())
}

// walDec reads a walEnc payload, latching the first error.
type walDec struct {
	b   []byte
	off int
	err error
}

func (d *walDec) fail() {
	if d.err == nil {
		d.err = errors.New("server: truncated wal payload")
	}
}
func (d *walDec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *walDec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *walDec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}
func (d *walDec) i64() int64   { return int64(d.u64()) }
func (d *walDec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *walDec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}
func (d *walDec) time() time.Time {
	n := d.i64()
	if n == zeroTimeSentinel {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

func encJob(e *walEnc, j *trace.Job) {
	e.i64(int64(j.ID))
	e.time(j.Submit)
	e.str(j.Benchmark)
	e.str(string(j.Home))
	e.i64(int64(j.Duration))
	e.f64(float64(j.Energy))
	e.i64(int64(j.EstDuration))
	e.f64(float64(j.EstEnergy))
}

func decJob(d *walDec) *trace.Job {
	return &trace.Job{
		ID:          int(d.i64()),
		Submit:      d.time(),
		Benchmark:   d.str(),
		Home:        region.ID(d.str()),
		Duration:    time.Duration(d.i64()),
		Energy:      units.KWh(d.f64()),
		EstDuration: time.Duration(d.i64()),
		EstEnergy:   units.KWh(d.f64()),
	}
}

func encDecision(e *walEnc, dd Decision) {
	e.u64(dd.Seq)
	e.i64(int64(dd.JobID))
	e.str(string(dd.Region))
	e.time(dd.Round)
	e.time(dd.Start)
	e.time(dd.Finish)
	e.f64(dd.CarbonG)
	e.f64(dd.WaterL)
	e.time(dd.DecidedWall)
}

func decDecision(d *walDec) Decision {
	return Decision{
		Seq:         d.u64(),
		JobID:       int(d.i64()),
		Region:      region.ID(d.str()),
		Round:       d.time(),
		Start:       d.time(),
		Finish:      d.time(),
		CarbonG:     d.f64(),
		WaterL:      d.f64(),
		DecidedWall: d.time(),
	}
}

// encodeJobRecord frames a recJob: the resolved job plus the spec digest
// the dedupe index remembers.
func encodeJobRecord(j *trace.Job, digest uint64) []byte {
	var e walEnc
	e.u8(recJob)
	e.u64(digest)
	encJob(&e, j)
	return e.b
}

// encodeRoundRecord frames a recRound: the round index, the decision
// sequence after the round, and the round's decisions in commit order.
func encodeRoundRecord(k int64, decSeqAfter uint64, ds []Decision) []byte {
	var e walEnc
	e.u8(recRound)
	e.i64(k)
	e.u64(decSeqAfter)
	e.u32(uint32(len(ds)))
	for _, dd := range ds {
		encDecision(&e, dd)
	}
	return e.b
}

// WALStatus is the "wal" block of /v1/status: the log's on-disk
// accounting plus what the last recovery did.
type WALStatus struct {
	wal.Stats
	// RecoveryMs is how long the restart path took (snapshot restore +
	// log replay); zero for a server that started fresh.
	RecoveryMs float64 `json:"recovery_ms"`
	// RecoveredRecords counts the log records replayed at startup;
	// RecoveredSnapshot reports whether a snapshot seeded the state.
	RecoveredRecords  uint64 `json:"recovered_records"`
	RecoveredSnapshot bool   `json:"recovered_snapshot"`
	// Deduped counts idempotent re-submits served from the dedupe index
	// (original id returned, no new job created).
	Deduped uint64 `json:"deduped_total"`
}

// openDurable opens the WAL at cfg.DataDir and runs the restart path,
// leaving the server ready to Start exactly where the dead process would
// have resumed. The log is attached only after recovery: nothing replay
// drives writes to it. Called from New, before anyone can see the server.
func (s *Server) openDurable() error {
	l, err := wal.Open(wal.Options{Dir: s.cfg.DataDir, SyncDelay: s.cfg.WALSyncDelay})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := s.recoverFrom(l); err != nil {
		l.Close()
		return err
	}
	s.wlog, s.lastWalSync, s.recoveryDur = l, time.Now(), time.Since(t0)
	return nil
}

// recoverFrom loads the newest valid snapshot and replays the log tail
// behind it through the shard's own transitions.
func (s *Server) recoverFrom(l *wal.Log) error {
	payload, covered, err := l.LatestSnapshot()
	if err != nil {
		return err
	}
	if covered+1 < l.FirstIndex() {
		// Retention deleted segments trusting a newer snapshot that is now
		// unreadable; the surviving snapshot leaves a gap nothing can fill.
		return fmt.Errorf("server: wal records %d..%d lost (snapshot covers %d, log starts at %d)",
			covered+1, l.FirstIndex()-1, covered, l.FirstIndex())
	}
	if payload != nil {
		if err := s.restoreSnapshot(payload); err != nil {
			return fmt.Errorf("server: restoring snapshot: %w", err)
		}
		s.recoveredSnap = true
	}
	if err := l.Replay(covered, func(idx uint64, p []byte) error {
		s.recoveredRecs++
		if err := s.replayRecord(p); err != nil {
			return fmt.Errorf("record %d: %w", idx, err)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("server: replaying wal: %w", err)
	}
	return nil
}

// replayRecord is the recovery driver: it decodes one logged record and
// applies it through the transitions the live server ran — admitLocked
// for a job, ingestDueLocked and stepLocked for a round. It adds the
// log's checksum role: a logged round with nothing to run, or ending at
// another seq than recorded, is ErrReplayDiverged (stepLocked compares
// the decisions themselves).
func (s *Server) replayRecord(payload []byte) error {
	d := &walDec{b: payload}
	switch typ := d.u8(); typ {
	case recJob:
		digest := d.u64()
		job := decJob(d)
		if d.err != nil {
			return d.err
		}
		s.admitLocked(job, digest, time.Time{})
		return nil
	case recRound:
		k := d.i64()
		decSeqAfter := d.u64()
		n := int(d.u32())
		if d.err != nil {
			return d.err
		}
		logged := make([]Decision, n)
		for i := range logged {
			logged[i] = decDecision(d)
		}
		if d.err != nil {
			return d.err
		}
		now := s.ingestDueLocked(k, time.Time{})
		if !now.Before(s.cfg.Env.End()) || s.sim.Pending() == 0 {
			return fmt.Errorf("%w: logged round %d cannot re-run (pending %d)", ErrReplayDiverged, k, s.sim.Pending())
		}
		if _, _, err := s.stepLocked(k, logged); err != nil {
			return fmt.Errorf("server: replaying round %d: %w", k, err)
		}
		if s.decSeq != decSeqAfter {
			return fmt.Errorf("%w: round %d ends at seq %d, log says %d", ErrReplayDiverged, k, s.decSeq, decSeqAfter)
		}
		return nil
	default:
		return fmt.Errorf("server: unknown wal record type %d", typ)
	}
}

// recordDecidedLocked moves a job's dedupe entry from the live set to the
// bounded decided index, so a client retrying a decided job gets its
// original id back instead of ErrDuplicateID. It returns the instant the
// job was accepted (zero when unknown). Called with mu held.
func (s *Server) recordDecidedLocked(id int) time.Time {
	lj, ok := s.live[id]
	if !ok {
		return time.Time{}
	}
	delete(s.live, id)
	if _, exists := s.decidedIdx[id]; !exists {
		s.decidedFIFO = append(s.decidedFIFO, id)
	}
	s.decidedIdx[id] = lj.digest
	for len(s.decidedFIFO) > dedupeCap {
		victim := s.decidedFIFO[0]
		s.decidedFIFO = s.decidedFIFO[1:]
		delete(s.decidedIdx, victim)
	}
	return lj.accepted
}

// walAppendLocked appends one record; an I/O failure is fatal to the
// round loop (serving un-durable acceptances would break the recovery
// contract). Called with mu held.
func (s *Server) walAppendLocked(payload []byte) error {
	if _, err := s.wlog.Append(payload); err != nil {
		err = fmt.Errorf("server: wal append: %w", err)
		if s.runErr == nil {
			s.runErr = err
		}
		return err
	}
	s.walDirty = true
	return nil
}

// walSyncLocked is the group-commit point. Called with mu held.
func (s *Server) walSyncLocked() error {
	if err := s.wlog.Sync(); err != nil {
		err = fmt.Errorf("server: wal sync: %w", err)
		if s.runErr == nil {
			s.runErr = err
		}
		return err
	}
	s.walDirty = false
	s.lastWalSync = time.Now()
	return nil
}

// walSyncIfDirtyLocked group-commits any appended-but-unsynced records.
// It is the read-path commit point: serving a decision (or sealing the
// backlog at Start) forces everything behind it onto disk first, so
// syncs are driven by the reader rate, not the round rate — in
// accelerated mode rounds fire thousands of times a second and an fsync
// apiece would serialize the whole pipeline on the disk. Called with mu
// held; a no-op without a log or with a clean one.
func (s *Server) walSyncIfDirtyLocked() error {
	if s.wlog == nil || !s.walDirty {
		return nil
	}
	return s.walSyncLocked()
}

// walRoundLocked logs one completed scheduling round and drives the
// sync and snapshot cadences. The round record is appended before the
// round's decisions can reach a reader, but fsynced only on the
// SyncInterval clock (or by the next read — see walSyncIfDirtyLocked):
// a crash loses at most the last interval's rounds, every one of which
// replay re-derives, and never a decision that was already served.
// Called with mu held, after the round's decisions are in the ring.
//
// rt receives the round's durability stage timings (append, fsync,
// snapshot) for the round trace.
func (s *Server) walRoundLocked(k int64, rt *obs.RoundTrace) {
	mark := time.Now()
	if s.walAppendLocked(encodeRoundRecord(k, s.decSeq, s.roundDecs)) != nil {
		return
	}
	now := time.Now()
	rt.Stages[obs.StageWALAppend] = now.Sub(mark)
	if now.Sub(s.lastWalSync) >= s.cfg.SyncInterval {
		if s.walSyncLocked() != nil {
			return
		}
		rt.Stages[obs.StageWALFsync] = time.Since(now)
	}
	s.sinceSnap++
	if s.sinceSnap >= s.cfg.SnapshotEvery {
		mark = time.Now()
		_ = s.snapshotLocked()
		rt.Stages[obs.StageSnapshot] = time.Since(mark)
	}
}

// snapshotLocked writes a snapshot of the settled (between-rounds) state
// covering every WAL record appended so far. Failures are reported but
// not fatal: the log alone still recovers. Called with mu held.
func (s *Server) snapshotLocked() error {
	if s.wlog == nil {
		return nil
	}
	// Commit the log first so the snapshot never claims coverage of
	// records a crash could still drop from the write buffer.
	if err := s.walSyncIfDirtyLocked(); err != nil {
		return err
	}
	if err := s.wlog.WriteSnapshot(s.wlog.Appended(), s.marshalSnapshotLocked()); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	s.sinceSnap = 0
	return nil
}

// marshalSnapshotLocked encodes everything recovery cannot re-derive
// from the log tail: the round clock, counters, ingest queue, dedupe
// indices, the simulator's pending set and machine-model reservations,
// and the decision ring (so a gateway cursor behind the snapshot is
// still servable after restart). Scheduler-internal state (warm bases)
// is deliberately absent: the warm≡cold equivalence proof means a cold
// scheduler re-derives identical decisions.
func (s *Server) marshalSnapshotLocked() []byte {
	var e walEnc
	e.u32(snapVersion)
	e.i64(s.nextK)
	e.time(s.simNow)
	e.u64(s.decSeq)
	e.u64(s.accepted)
	e.u64(s.rejected)
	e.u64(s.rounds)
	e.u64(s.decided)
	e.u64(s.deduped)
	e.i64(int64(s.unscheduled))
	e.i64(int64(s.overheadSum))
	e.i64(int64(s.autoID))
	// Ingest queue, in heap-array order (re-heapified on restore).
	e.u32(uint32(len(s.future)))
	for _, j := range s.future {
		encJob(&e, j)
	}
	// Live dedupe entries (id -> spec digest); iteration order is
	// irrelevant, it restores into a map.
	e.u32(uint32(len(s.live)))
	for id, lj := range s.live {
		e.i64(int64(id))
		e.u64(lj.digest)
	}
	// Decided dedupe index, in FIFO order so eviction resumes correctly.
	e.u32(uint32(len(s.decidedFIFO)))
	for _, id := range s.decidedFIFO {
		e.i64(int64(id))
		e.u64(s.decidedIdx[id])
	}
	// Simulator: pending jobs with slack-manager bookkeeping, and the
	// per-server reservation state.
	pending := s.sim.PendingSnapshot()
	e.u32(uint32(len(pending)))
	for i := range pending {
		encJob(&e, pending[i].Job)
		e.time(pending[i].FirstSeen)
		e.u32(uint32(pending[i].Deferrals))
	}
	busy := s.sim.BusySnapshot()
	e.u32(uint32(len(busy)))
	for _, id := range s.cfg.Env.IDs() { // stable order
		until, ok := busy[id]
		if !ok {
			continue
		}
		e.str(string(id))
		e.u32(uint32(len(until)))
		for _, t := range until {
			e.time(t)
		}
	}
	// Decision ring, oldest first.
	e.u32(uint32(s.decisions.Len()))
	s.decisions.Each(func(dd Decision) { encDecision(&e, dd) })
	return e.b
}

// restoreSnapshot is marshalSnapshotLocked's inverse. Called from
// openDurable on a freshly-constructed server.
func (s *Server) restoreSnapshot(payload []byte) error {
	d := &walDec{b: payload}
	if v := d.u32(); v != snapVersion {
		return fmt.Errorf("server: snapshot version %d, want %d", v, snapVersion)
	}
	s.nextK = d.i64()
	s.simNow = d.time()
	s.decSeq = d.u64()
	s.accepted = d.u64()
	s.rejected = d.u64()
	s.rounds = d.u64()
	s.decided = d.u64()
	s.deduped = d.u64()
	s.unscheduled = int(d.i64())
	s.overheadSum = time.Duration(d.i64())
	s.autoID = int(d.i64())
	nf := int(d.u32())
	if d.err != nil {
		return d.err
	}
	s.future = make(futureHeap, 0, nf)
	for i := 0; i < nf; i++ {
		s.future = append(s.future, decJob(d))
	}
	heap.Init(&s.future)
	nl := int(d.u32())
	if d.err != nil {
		return d.err
	}
	for i := 0; i < nl; i++ {
		id := int(d.i64())
		s.live[id] = liveJob{digest: d.u64()}
	}
	nd := int(d.u32())
	if d.err != nil {
		return d.err
	}
	for i := 0; i < nd; i++ {
		id := int(d.i64())
		s.decidedIdx[id] = d.u64()
		s.decidedFIFO = append(s.decidedFIFO, id)
	}
	np := int(d.u32())
	if d.err != nil {
		return d.err
	}
	pending := make([]cluster.PendingJob, 0, np)
	for i := 0; i < np; i++ {
		pj := cluster.PendingJob{Job: decJob(d)}
		pj.FirstSeen = d.time()
		pj.Deferrals = int(d.u32())
		pending = append(pending, pj)
	}
	s.sim.RestorePending(pending)
	nb := int(d.u32())
	if d.err != nil {
		return d.err
	}
	busy := make(map[region.ID][]time.Time, nb)
	for i := 0; i < nb; i++ {
		id := region.ID(d.str())
		ns := int(d.u32())
		if d.err != nil {
			return d.err
		}
		until := make([]time.Time, ns)
		for j := range until {
			until[j] = d.time()
		}
		busy[id] = until
	}
	if d.err == nil {
		if err := s.sim.RestoreBusy(busy); err != nil {
			return err
		}
	}
	nr := int(d.u32())
	if d.err != nil {
		return d.err
	}
	for i := 0; i < nr; i++ {
		s.decisions.Append(decDecision(d))
	}
	return d.err
}

// Crash simulates a process kill for fault-injection tests: the round
// loop halts, the WAL drops everything buffered since its last sync and
// closes without a final snapshot, and queued state simply evaporates —
// exactly what SIGKILL leaves on disk. Recovery happens by constructing
// a new server over the same DataDir. (A read that lands between the halt
// and the drop may group-commit first: the same kill, a moment later.)
func (s *Server) Crash() {
	if !s.halt() {
		return
	}
	s.mu.Lock()
	if s.wlog != nil {
		s.wlog.Crash()
	}
	s.mu.Unlock()
}

// NextAutoID reports the next id an ID-less submission would receive —
// after recovery, the floor a fleet gateway must raise its own id
// counter to so restarted shards never re-mint a recovered job's id.
func (s *Server) NextAutoID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.autoID
}

// walStatusLocked builds the /v1/status wal block. Called with mu held.
func (s *Server) walStatusLocked() *WALStatus {
	if s.wlog == nil {
		return nil
	}
	return &WALStatus{
		Stats:             s.wlog.Stats(),
		RecoveryMs:        float64(s.recoveryDur.Microseconds()) / 1000,
		RecoveredRecords:  s.recoveredRecs,
		RecoveredSnapshot: s.recoveredSnap,
		Deduped:           s.deduped,
	}
}
