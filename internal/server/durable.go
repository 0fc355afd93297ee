package server

import (
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/trace"
	"waterwise/internal/units"
	"waterwise/internal/wal"
	"waterwise/internal/wire"
)

// The durability layer. With Config.DataDir set, every accepted job and
// every scheduling round is appended to a write-ahead log (internal/wal)
// before it is acknowledged, and settled scheduler state is snapshotted
// periodically. Recovery is replay: because the whole stack is
// deterministic — same environment, same scheduler, same pending order,
// same machine-model state in, same decisions out (the warm≡cold and
// sharded≡unsharded equivalence proofs of earlier PRs are what make this
// safe) — a restarted shard restores the newest snapshot and re-runs the
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
// cadence) than the shard was built with.
var ErrReplayDiverged = errors.New("server: wal replay diverged from logged decisions")

// WAL record types and the snapshot format version.
const (
	recJob      = 1 // one accepted job, appended before Submit acknowledges
	recRound    = 2 // one scheduling round that stepped the simulator
	snapVersion = 1
)

// specDigest is the idempotency key of a submission: FNV-1a over the
// canonical client-visible spec, computed before Submit-defaulting so a
// client retrying the same request (zero Submit instant included)
// produces the same digest the original acceptance recorded. Presence
// flags, string lengths and values are all 8-byte words.
func specDigest(spec JobSpec) uint64 {
	b := make([]byte, 0, 128)
	if spec.ID != nil {
		b = wire.AppendI64(wire.AppendU64(b, 1), int64(*spec.ID))
	} else {
		b = wire.AppendU64(b, 0)
	}
	b = append(wire.AppendU64(b, uint64(len(spec.Benchmark))), spec.Benchmark...)
	b = append(wire.AppendU64(b, uint64(len(spec.Home))), spec.Home...)
	if spec.Submit.IsZero() {
		b = wire.AppendU64(b, 0)
	} else {
		b = wire.AppendI64(wire.AppendU64(b, 1), spec.Submit.UnixNano())
	}
	b = wire.AppendF64(b, spec.DurationSec)
	b = wire.AppendF64(b, spec.EnergyKWh)
	b = wire.AppendF64(b, spec.EstDurationSec)
	b = wire.AppendF64(b, spec.EstEnergyKWh)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Minimum encoded sizes of the log's repeated elements: recovery checks
// every declared count against them before sizing anything by it.
// Strings count only their 4-byte length.
const (
	jobSize      = 8 + 8 + 4 + 4 + 4*8   // id, submit, benchmark, home, durations and energies
	decisionSize = 8 + 8 + 4 + 4*8 + 2*8 // seq, job id, region, four instants, footprints
	dedupeSize   = 8 + 8                 // id, spec digest
	pendingSize  = jobSize + 8 + 4       // job, FirstSeen, Deferrals
	busySize     = 4 + 4                 // region, server count
)

func appendJob(b []byte, j *trace.Job) []byte {
	b = wire.AppendI64(b, int64(j.ID))
	b = wire.AppendTime(b, j.Submit)
	b = wire.AppendStr32(b, j.Benchmark)
	b = wire.AppendStr32(b, string(j.Home))
	b = wire.AppendI64(b, int64(j.Duration))
	b = wire.AppendF64(b, float64(j.Energy))
	b = wire.AppendI64(b, int64(j.EstDuration))
	return wire.AppendF64(b, float64(j.EstEnergy))
}

func readJob(r *wire.Reader) *trace.Job {
	return &trace.Job{
		ID:          int(r.I64()),
		Submit:      r.Time(),
		Benchmark:   r.Str32(),
		Home:        region.ID(r.Str32()),
		Duration:    time.Duration(r.I64()),
		Energy:      units.KWh(r.F64()),
		EstDuration: time.Duration(r.I64()),
		EstEnergy:   units.KWh(r.F64()),
	}
}

func appendDecision(b []byte, d Decision) []byte {
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

func readDecision(r *wire.Reader) Decision {
	return Decision{
		Seq:         r.U64(),
		JobID:       int(r.I64()),
		Region:      region.ID(r.Str32()),
		Round:       r.Time(),
		Start:       r.Time(),
		Finish:      r.Time(),
		CarbonG:     r.F64(),
		WaterL:      r.F64(),
		DecidedWall: r.Time(),
	}
}

// encodeJobRecord frames a recJob: the resolved job plus the spec digest
// the dedupe index remembers.
func encodeJobRecord(j *trace.Job, digest uint64) []byte {
	b := make([]byte, 0, 1+8+jobSize+len(j.Benchmark)+len(j.Home))
	return appendJob(wire.AppendU64(append(b, recJob), digest), j)
}

// encodeRoundRecord frames a recRound: the round index, the decision
// sequence after the round, and the round's decisions in commit order.
func encodeRoundRecord(k int64, decSeqAfter uint64, ds []Decision) []byte {
	// Sized for region names of up to 8 bytes: one allocation per round.
	b := make([]byte, 0, 1+8+8+4+len(ds)*(decisionSize+8))
	b = wire.AppendU64(wire.AppendI64(append(b, recRound), k), decSeqAfter)
	b = wire.AppendU32(b, uint32(len(ds)))
	for _, d := range ds {
		b = appendDecision(b, d)
	}
	return b
}

// walRecord is one decoded log record: a job (job non-nil, with its spec
// digest) or a round (its index, the seq after it, its decisions).
type walRecord struct {
	job       *trace.Job
	digest    uint64
	k         int64
	seqAfter  uint64
	decisions []Decision
}

// decodeRecord parses one logged record and touches no shard state: it
// is the half of replay that reads bytes it did not write.
func decodeRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	r := wire.NewReader(payload)
	switch typ := r.U8(); typ {
	case recJob:
		rec.digest = r.U64()
		rec.job = readJob(&r)
	case recRound:
		rec.k, rec.seqAfter = r.I64(), r.U64()
		n := r.Count(decisionSize, "decision")
		rec.decisions = make([]Decision, 0, n)
		for i := 0; i < n && r.OK(); i++ {
			rec.decisions = append(rec.decisions, readDecision(&r))
		}
	default:
		if r.OK() {
			return rec, fmt.Errorf("server: unknown wal record type %d", typ)
		}
	}
	return rec, r.Done("wal record")
}

// WALStatus is the "wal" block of /v1/status: the log's on-disk
// accounting plus what the last recovery did.
type WALStatus struct {
	wal.Stats
	// RecoveryMs is how long the restart path took (snapshot restore +
	// log replay); zero for a shard that started fresh.
	RecoveryMs float64 `json:"recovery_ms"`
	// RecoveredRecords counts the log records replayed at startup;
	// RecoveredSnapshot reports whether a snapshot seeded the state.
	RecoveredRecords  uint64 `json:"recovered_records"`
	RecoveredSnapshot bool   `json:"recovered_snapshot"`
	// Deduped counts idempotent re-submits served from the dedupe index
	// (original id returned, no new job created).
	Deduped uint64 `json:"deduped_total"`
}

// add sums another shard's block into w: counters and sizes add, the
// fsync stall percentiles and last sync keep the worst and newest, and the
// recovery took as long as the shards' sequential recoveries together.
func (w *WALStatus) add(o *WALStatus) {
	w.Segments += o.Segments
	w.Bytes += o.Bytes
	w.Appended += o.Appended
	w.Synced += o.Synced
	w.Fsyncs += o.Fsyncs
	if o.LastSync.After(w.LastSync) {
		w.LastSync = o.LastSync
	}
	w.FsyncP50 = max(w.FsyncP50, o.FsyncP50)
	w.FsyncP99 = max(w.FsyncP99, o.FsyncP99)
	w.Snapshots += o.Snapshots
	w.SnapshotCovered += o.SnapshotCovered
	w.TruncatedBytes += o.TruncatedBytes
	w.RecoveryMs += o.RecoveryMs
	w.RecoveredRecords += o.RecoveredRecords
	w.RecoveredSnapshot = w.RecoveredSnapshot || o.RecoveredSnapshot
	w.Deduped += o.Deduped
}

// openDurable opens the WAL at cfg.DataDir and runs the restart path,
// leaving the shard ready to Start exactly where the dead process would
// have resumed. The log is attached only after recovery: nothing replay
// drives writes to it. Called from newShard, before anyone can see the
// shard.
func (s *shard) openDurable() error {
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
func (s *shard) recoverFrom(l *wal.Log) error {
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
// applies it through the transitions the live shard ran — admitLocked
// for a job, ingestDueLocked and stepLocked for a round. It adds the
// log's checksum role: a logged round with nothing to run, or ending at
// another seq than recorded, is ErrReplayDiverged (stepLocked compares
// the decisions themselves).
func (s *shard) replayRecord(payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	if rec.job != nil {
		s.admitLocked(rec.job, rec.digest, time.Time{})
		return nil
	}
	k := rec.k
	now := s.ingestDueLocked(k, time.Time{})
	if !now.Before(s.cfg.Env.End()) || s.sim.Pending() == 0 {
		return fmt.Errorf("%w: logged round %d cannot re-run (pending %d)", ErrReplayDiverged, k, s.sim.Pending())
	}
	if _, _, err := s.stepLocked(k, rec.decisions); err != nil {
		return fmt.Errorf("server: replaying round %d: %w", k, err)
	}
	if s.decSeq != rec.seqAfter {
		return fmt.Errorf("%w: round %d ends at seq %d, log says %d", ErrReplayDiverged, k, s.decSeq, rec.seqAfter)
	}
	return nil
}

// recordDecidedLocked moves a job's dedupe entry from the live set to the
// bounded decided index, so a client retrying a decided job gets its
// original id back instead of ErrDuplicateID. It returns the instant the
// job was accepted (zero when unknown). Called with mu held.
func (s *shard) recordDecidedLocked(id int) time.Time {
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
func (s *shard) walAppendLocked(payload []byte) error {
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
func (s *shard) walSyncLocked() error {
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
func (s *shard) walSyncIfDirtyLocked() error {
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
func (s *shard) walRoundLocked(k int64, rt *obs.RoundTrace) {
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
func (s *shard) snapshotLocked() error {
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
// and the decision ring (so a merge cursor behind the snapshot is
// still servable after restart). Scheduler-internal state (warm bases)
// is deliberately absent: the warm≡cold equivalence proof means a cold
// scheduler re-derives identical decisions.
func (s *shard) marshalSnapshotLocked() []byte {
	b := wire.AppendU32(nil, snapVersion)
	b = wire.AppendI64(b, s.nextK)
	b = wire.AppendTime(b, s.simNow)
	b = wire.AppendU64(b, s.decSeq)
	b = wire.AppendU64(b, s.accepted)
	b = wire.AppendU64(b, s.rejected)
	b = wire.AppendU64(b, s.rounds)
	b = wire.AppendU64(b, s.decided)
	b = wire.AppendU64(b, s.deduped)
	b = wire.AppendI64(b, int64(s.unscheduled))
	b = wire.AppendI64(b, int64(s.overheadSum))
	b = wire.AppendI64(b, int64(s.autoID))
	// Ingest queue, in heap-array order (re-heapified on restore).
	b = wire.AppendU32(b, uint32(len(s.future)))
	for _, j := range s.future {
		b = appendJob(b, j)
	}
	// Live dedupe entries (id -> spec digest); iteration order is
	// irrelevant, it restores into a map.
	b = wire.AppendU32(b, uint32(len(s.live)))
	for id, lj := range s.live {
		b = wire.AppendU64(wire.AppendI64(b, int64(id)), lj.digest)
	}
	// Decided dedupe index, in FIFO order so eviction resumes correctly.
	b = wire.AppendU32(b, uint32(len(s.decidedFIFO)))
	for _, id := range s.decidedFIFO {
		b = wire.AppendU64(wire.AppendI64(b, int64(id)), s.decidedIdx[id])
	}
	// Simulator: pending jobs with slack-manager bookkeeping, and the
	// per-server reservation state.
	pending := s.sim.PendingSnapshot()
	b = wire.AppendU32(b, uint32(len(pending)))
	for i := range pending {
		b = appendJob(b, pending[i].Job)
		b = wire.AppendTime(b, pending[i].FirstSeen)
		b = wire.AppendU32(b, uint32(pending[i].Deferrals))
	}
	busy := s.sim.BusySnapshot()
	b = wire.AppendU32(b, uint32(len(busy)))
	for _, id := range s.cfg.Env.IDs() { // stable order
		until, ok := busy[id]
		if !ok {
			continue
		}
		b = wire.AppendStr32(b, string(id))
		b = wire.AppendU32(b, uint32(len(until)))
		for _, t := range until {
			b = wire.AppendTime(b, t)
		}
	}
	// Decision ring, oldest first.
	b = wire.AppendU32(b, uint32(s.decisions.Len()))
	s.decisions.Each(func(d Decision) { b = appendDecision(b, d) })
	return b
}

// restoreSnapshot is marshalSnapshotLocked's inverse. Called from
// openDurable on a freshly-constructed shard. Every declared count is
// checked against the bytes left before anything is sized by it, and the
// simulator is only touched once the whole payload has parsed.
func (s *shard) restoreSnapshot(payload []byte) error {
	r := wire.NewReader(payload)
	if v := r.U32(); v != snapVersion {
		return fmt.Errorf("server: snapshot version %d, want %d", v, snapVersion)
	}
	s.nextK = r.I64()
	s.simNow = r.Time()
	s.decSeq = r.U64()
	s.accepted = r.U64()
	s.rejected = r.U64()
	s.rounds = r.U64()
	s.decided = r.U64()
	s.deduped = r.U64()
	s.unscheduled = int(r.I64())
	s.overheadSum = time.Duration(r.I64())
	s.autoID = int(r.I64())
	nf := r.Count(jobSize, "queued job")
	s.future = make(futureHeap, 0, nf)
	for i := 0; i < nf && r.OK(); i++ {
		s.future = append(s.future, readJob(&r))
	}
	heap.Init(&s.future)
	for i, n := 0, r.Count(dedupeSize, "live job"); i < n && r.OK(); i++ {
		id := int(r.I64())
		s.live[id] = liveJob{digest: r.U64()}
	}
	for i, n := 0, r.Count(dedupeSize, "decided job"); i < n && r.OK(); i++ {
		id := int(r.I64())
		s.decidedIdx[id] = r.U64()
		s.decidedFIFO = append(s.decidedFIFO, id)
	}
	np := r.Count(pendingSize, "pending job")
	pending := make([]cluster.PendingJob, 0, np)
	for i := 0; i < np && r.OK(); i++ {
		pending = append(pending, cluster.PendingJob{Job: readJob(&r), FirstSeen: r.Time(), Deferrals: int(r.U32())})
	}
	nb := r.Count(busySize, "busy region")
	busy := make(map[region.ID][]time.Time, nb)
	for i := 0; i < nb && r.OK(); i++ {
		id := region.ID(r.Str32())
		until := make([]time.Time, r.Count(8, "server"))
		for j := range until {
			until[j] = r.Time()
		}
		busy[id] = until
	}
	for i, n := 0, r.Count(decisionSize, "ring decision"); i < n && r.OK(); i++ {
		s.decisions.Append(readDecision(&r))
	}
	if err := r.Done("snapshot"); err != nil {
		return err
	}
	s.sim.RestorePending(pending)
	return s.sim.RestoreBusy(busy)
}

// Crash simulates a process kill: the round loop halts, the WAL drops
// everything buffered since its last sync and closes without a final
// snapshot, and queued state simply evaporates — exactly what SIGKILL
// leaves on disk. Recovery happens by building the shard again over the
// same directory. (A read that lands between the halt and the drop may
// group-commit first: the same kill, a moment later.)
func (s *shard) Crash() {
	if !s.halt() {
		return
	}
	s.mu.Lock()
	if s.wlog != nil {
		s.wlog.Crash()
	}
	s.mu.Unlock()
}

// walStatusLocked builds the /v1/status wal block. Called with mu held.
func (s *shard) walStatusLocked() *WALStatus {
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
