package server

import (
	"iter"

	"waterwise/internal/region"
	"waterwise/internal/wire"
)

// decRecord is a Decision as the serving logs hold it — a shard's ring,
// the merge's staging queues and, inside mergedRecord, the merged ring.
// Instants are Unix nanoseconds in wire.TimeNano's convention
// (wire.TimeNone for the zero time) and the region is an index into the
// deciding shard's partition (its Env.IDs() order), so a record has no
// pointers: 72 bytes, in log blocks the GC never scans. Decision and
// MergedDecision are built from it only at the edges — DecisionsPage, the
// wire encoder and the WAL codec — and the round trip is exact.
type decRecord struct {
	seq                               uint64
	jobID                             int64
	round, start, finish, decidedWall int64
	carbonG, waterL                   float64
	// region indexes the partition of shard, the shard that decided it.
	region, shard uint16
}

// LogSeq returns the shard-local sequence number.
func (d decRecord) LogSeq() uint64 { return d.seq }

// mergedRecord is one entry of the merged log: a shard's record — its seq
// the shard-local one — under its service-wide sequence number. 80 bytes.
type mergedRecord struct {
	seq uint64
	d   decRecord
}

// LogSeq returns the service-wide sequence number.
func (m mergedRecord) LogSeq() uint64 { return m.seq }

// decision builds the public form of d, a record of the shard whose
// partition is regions.
func (d *decRecord) decision(regions []region.ID) Decision {
	return Decision{
		Seq: d.seq, JobID: int(d.jobID), Region: regions[d.region],
		Round: wire.NanoTime(d.round), Start: wire.NanoTime(d.start), Finish: wire.NanoTime(d.finish),
		CarbonG: d.carbonG, WaterL: d.waterL,
		DecidedWall: wire.NanoTime(d.decidedWall),
	}
}

// record is the log form of d, whose region is the partition's entry
// region, decided by shard.
func record(d *Decision, region, shard int) decRecord {
	return decRecord{
		seq: d.Seq, jobID: int64(d.JobID),
		round: wire.TimeNano(d.Round), start: wire.TimeNano(d.Start), finish: wire.TimeNano(d.Finish),
		carbonG: d.CarbonG, waterL: d.WaterL,
		decidedWall: wire.TimeNano(d.DecidedWall),
		region:      uint16(region), shard: uint16(shard),
	}
}

// decision builds the public form of record d, whose service-wide
// sequence number is seq.
func (s *Server) decision(seq uint64, d *decRecord) MergedDecision {
	md := MergedDecision{Decision: d.decision(s.parts[d.shard]), Shard: int(d.shard), ShardSeq: d.seq}
	md.Seq = seq
	return md
}

// wireDecision is WireDecision(s.decision(seq, d)) without the time.Time
// round trip.
func (s *Server) wireDecision(seq uint64, d *decRecord) wire.Decision {
	return wire.Decision{
		Seq: seq, JobID: d.jobID, Shard: uint32(d.shard), ShardSeq: d.seq,
		RoundNano: d.round, StartNano: d.start, FinishNano: d.finish, DecidedWallNano: d.decidedWall,
		CarbonG: d.carbonG, WaterL: d.waterL,
		Region: string(s.parts[d.shard][d.region]),
	}
}

// readPage is the one read of the merged log, behind DecisionsPage and the
// stream pusher: it pulls newly final shard decisions into the stream,
// then calls read with the number n of merged decisions with Seq > since
// (at most limit; limit <= 0 means all) and an iterator over them, oldest
// first, as (service-wide seq, record) pairs. The records are the logs'
// own: read must not keep them past its return. It returns the merged
// log's cursor.
//
// The merge of one shard's log is that log, in its own order and with its
// own seqs: a one-shard service reads the shard's ring directly rather
// than hold every decision twice.
func (s *Server) readPage(since uint64, limit int, read func(n int, page iter.Seq2[uint64, *decRecord])) Cursor {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if len(s.parts) == 1 {
		return s.shardList()[0].readDecisions(func(r *Ring[decRecord]) {
			lo, hi := r.Span(since, limit)
			read(hi-lo, func(yield func(uint64, *decRecord) bool) {
				for c := range r.Chunks(lo, hi) {
					for i := range c {
						if !yield(c[i].seq, &c[i]) {
							return
						}
					}
				}
			})
		})
	}
	cur := s.mergeLocked()
	lo, hi := s.merged.Span(since, limit)
	read(hi-lo, func(yield func(uint64, *decRecord) bool) {
		for c := range s.merged.Chunks(lo, hi) {
			for i := range c {
				if !yield(c[i].seq, &c[i].d) {
					return
				}
			}
		}
	})
	return cur
}

// DecisionsPage returns up to limit merged decisions with Seq > since,
// oldest first (limit <= 0 means all), and the merged log's cursor, pulling
// any newly final shard decisions into the stream first. The merged log is
// a bounded ring like each shard's own: decisions older than the last
// DecisionLogCap may be gone. The page is never nil.
func (s *Server) DecisionsPage(since uint64, limit int) ([]MergedDecision, Cursor) {
	var page []MergedDecision
	cur := s.readPage(since, limit, func(n int, recs iter.Seq2[uint64, *decRecord]) {
		page = make([]MergedDecision, 0, n)
		for seq, d := range recs {
			page = append(page, s.decision(seq, d))
		}
	})
	return page, cur
}

// Decisions is DecisionsPage without the cursor.
func (s *Server) Decisions(since uint64, limit int) []MergedDecision {
	ds, _ := s.DecisionsPage(since, limit)
	return ds
}

// wireDecisions appends up to limit merged decisions with Seq > since
// to dst in wire form, oldest first: straight from the log records, with
// no []MergedDecision page in between.
func (s *Server) wireDecisions(since uint64, limit int, dst []wire.Decision) []wire.Decision {
	s.readPage(since, limit, func(_ int, recs iter.Seq2[uint64, *decRecord]) {
		for seq, d := range recs {
			dst = append(dst, s.wireDecision(seq, d))
		}
	})
	return dst
}

// pageRecords copies up to limit merged decisions with Seq > since out of
// the log, oldest first, as records under their service-wide seqs. Only
// the copy holds the log's lock: GET /v1/decisions encodes the page after
// the lock is released, so encoding never holds up a round.
func (s *Server) pageRecords(since uint64, limit int) []mergedRecord {
	var page []mergedRecord
	s.readPage(since, limit, func(n int, recs iter.Seq2[uint64, *decRecord]) {
		page = make([]mergedRecord, 0, n)
		for seq, d := range recs {
			page = append(page, mergedRecord{seq: seq, d: *d})
		}
	})
	return page
}

// regionIndex is id's position in the shard's partition, or -1.
func (s *shard) regionIndex(id region.ID) int {
	for i, r := range s.regions {
		if r == id {
			return i
		}
	}
	return -1
}
