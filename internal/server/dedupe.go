package server

import (
	"fmt"
	"slices"
	"time"

	"waterwise/internal/wire"
)

// dedupeCap bounds the decided-job half of the dedupe index that makes
// client re-submits idempotent after a restart (entries evicted FIFO).
const dedupeCap = 262144

// Dedupe entry state bits.
const (
	// idLive: an accepted, undecided job holds the id.
	idLive uint8 = 1 << iota
	// idDecided: a decided job's spec digest is remembered under the id.
	idDecided
)

// dedupeEntry is one job id's idempotency state: the spec digests of the
// job that holds it live and of the job last decided under it, and when
// the live job was accepted. It has no pointers, so the index costs the
// GC nothing to scan. A resubmission is deduped against the live digest
// while a job is live, else against the decided one; a live id with
// another digest is ErrDuplicateID, and a decided id with another digest
// is accepted as a new job, the decided digest staying until that job is
// decided in turn.
type dedupeEntry struct {
	live, decided uint64
	// accepted is the live job's acceptance, in monotonic nanoseconds since
	// the shard's epoch; 0 for a recovered job, whose instant is unknown.
	accepted int64
	state    uint8
}

// dedupeLocked checks a submission against the index: dup reports an
// idempotent re-submit, err a live id held by another spec. Called with
// mu held.
func (s *shard) dedupeLocked(id int, digest uint64) (dup bool, err error) {
	e, ok := s.dedupe[id]
	switch {
	case !ok:
		return false, nil
	case e.state&idLive != 0:
		if e.live == digest {
			return true, nil
		}
		return false, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	return e.state&idDecided != 0 && e.decided == digest, nil
}

// markLiveLocked records an admitted job under its id; accepted is the
// instant Submit accepted it, zero for a recovered one. Called with mu
// held.
func (s *shard) markLiveLocked(id int, digest uint64, accepted time.Time) {
	e := s.dedupe[id]
	e.live, e.state, e.accepted = digest, e.state|idLive, 0
	if !accepted.IsZero() {
		e.accepted = max(int64(accepted.Sub(s.epoch)), 1)
	}
	s.dedupe[id] = e
}

// recordDecidedLocked moves a job's digest from the live half of its
// entry to the decided half, so a client retrying a decided job gets its
// original id back instead of ErrDuplicateID, and evicts the oldest
// decided digests beyond dedupeCap. It returns when the job was accepted
// (monotonic nanoseconds since the shard's epoch, 0 when unknown): one
// lookup and one store. Called with mu held.
func (s *shard) recordDecidedLocked(id int) int64 {
	e, ok := s.dedupe[id]
	if !ok || e.state&idLive == 0 {
		return 0
	}
	if e.state&idDecided == 0 {
		s.decidedFIFO = append(s.decidedFIFO, id)
	}
	s.dedupe[id] = dedupeEntry{decided: e.live, state: idDecided}
	for len(s.decidedFIFO) > dedupeCap {
		victim := s.decidedFIFO[0]
		s.decidedFIFO = s.decidedFIFO[1:]
		s.forgetLocked(victim, idDecided)
	}
	return e.accepted
}

// forgetLocked clears the state bit (idLive or idDecided) of id's entry,
// deleting the entry once neither is left. Called with mu held.
func (s *shard) forgetLocked(id int, bit uint8) {
	e, ok := s.dedupe[id]
	if !ok {
		return
	}
	if e.state &^= bit; e.state == 0 {
		delete(s.dedupe, id)
		return
	}
	if bit == idLive {
		e.live, e.accepted = 0, 0
	} else {
		e.decided = 0
	}
	s.dedupe[id] = e
}

// appendDedupe encodes the index in the snapshot's two sections: live
// entries (id, digest) in ascending id order, so equal states encode to
// equal bytes, then decided entries in FIFO order, so eviction resumes
// where it stopped. Called with mu held.
func (s *shard) appendDedupe(b []byte) []byte {
	live := make([]int, 0, len(s.dedupe))
	for id, e := range s.dedupe {
		if e.state&idLive != 0 {
			live = append(live, id)
		}
	}
	slices.Sort(live)
	b = wire.AppendU32(b, uint32(len(live)))
	for _, id := range live {
		b = wire.AppendU64(wire.AppendI64(b, int64(id)), s.dedupe[id].live)
	}
	b = wire.AppendU32(b, uint32(len(s.decidedFIFO)))
	for _, id := range s.decidedFIFO {
		b = wire.AppendU64(wire.AppendI64(b, int64(id)), s.dedupe[id].decided)
	}
	return b
}

// readDedupe is appendDedupe's inverse, into an empty index.
func (s *shard) readDedupe(r *wire.Reader) {
	for i, n := 0, r.Count(dedupeSize, "live job"); i < n && r.OK(); i++ {
		id := int(r.I64())
		e := s.dedupe[id]
		e.live, e.state = r.U64(), e.state|idLive
		s.dedupe[id] = e
	}
	for i, n := 0, r.Count(dedupeSize, "decided job"); i < n && r.OK(); i++ {
		id := int(r.I64())
		e := s.dedupe[id]
		e.decided, e.state = r.U64(), e.state|idDecided
		s.dedupe[id] = e
		s.decidedFIFO = append(s.decidedFIFO, id)
	}
}
