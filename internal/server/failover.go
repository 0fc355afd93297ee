package server

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Failover has one path. A shard dies by KillShard, by a crash of the
// shard itself, or by a round-loop failure (a scheduler error, a WAL write
// or fsync that failed); each ends in shardDown. From then on the dead
// shard refuses its submissions with ErrShardDown rather than hold them
// anywhere: it has no log to write them ahead to, and an acknowledgement
// nothing logged would be lost to the next crash. The client retries, and
// the dedupe index makes that safe.
//
// A durable service (DataDir, with NewScheduler to build the fresh
// scheduler recovery re-derives decisions with) rebuilds the shard from its
// data directory at once — the newest snapshot plus the log tail, as New
// does — and swaps it in. What reaches that directory depends on the
// death: a killed or crashed shard has lost its unsynced records, as a
// SIGKILL would, but a failed round is the round's fault, not the
// process's, so the dead shard's log is closed with a final sync and the
// jobs it acknowledged survive. The merge cursor is untouched: the
// recovered ring carries the same shard-local seqs, so the merged stream
// continues without a gap or renumbering. An in-memory service has nothing
// to rebuild from, so its dead shard stays down, and the merge counts it as
// idle rather than hold every other shard's decisions behind its frozen
// round clock. Either way the cause of the death stays in the shard's
// status (ShardStatus.LastErr) after a restart replaces it.
//
// Region re-assignment is deliberately out of scope: it would change the
// partitions and break the sharded≡unsharded equivalence proof. A restart
// restores the fixed partition; it never rebalances it.

// A rebuild that fails (the directory cannot be opened, or does not
// replay) is retried with a doubling wait between these bounds. A shard
// that dies again within restartBackoffMax of its last restart — a crash
// loop — first waits twice what that restart waited (at least
// restartBackoffMin), so a deterministic fault backs off to one attempt
// per restartBackoffMax; a shard that stayed up longer starts over with
// no wait.
const (
	restartBackoffMin = 100 * time.Millisecond
	restartBackoffMax = 5 * time.Second
)

// failover is the Server's failover state, guarded by Server.mu.
type failover struct {
	// recovers reports that dead shards are rebuilt: DataDir and
	// NewScheduler are both set.
	recovers bool
	// up is signalled, on Server.mu, whenever a restart swaps a shard in
	// or restarts halt: Drain waits on it for a dead shard's replacement.
	up *sync.Cond
	// halted is set by Stop and Crash: no shard restarts after it, and
	// halting is closed to cut short a restart's backoff wait.
	halted     bool
	halting    chan struct{}
	restarting sync.WaitGroup

	down       []bool          // the shard in the slot is dead
	restarts   []uint64        // successful restarts per shard
	upAt       []time.Time     // the newest restart per shard
	upWait     []time.Duration // what the newest restart waited before its rebuild
	restartErr []error         // why the last rebuild failed, while down
	lastDown   []error         // why the shard last died, kept across restarts
}

func newFailover(cfg Config) failover {
	n := cfg.Shards
	return failover{
		recovers:   cfg.DataDir != "" && cfg.NewScheduler != nil,
		halting:    make(chan struct{}),
		down:       make([]bool, n),
		restarts:   make([]uint64, n),
		upAt:       make([]time.Time, n),
		upWait:     make([]time.Duration, n),
		restartErr: make([]error, n),
		lastDown:   make([]error, n),
	}
}

// KillShard crash-stops one shard the way a SIGKILL would: the round loop
// halts and the shard's WAL drops its unsynced buffer, with no final
// snapshot. The shard then takes the one failover path: it refuses its
// submissions, and a durable service rebuilds it on its own. Killing a
// shard that is already dead does nothing.
func (s *Server) KillShard(i int) error {
	if i < 0 || i >= len(s.parts) {
		return fmt.Errorf("server: no shard %d", i)
	}
	s.mu.Lock()
	sh := s.shards[i]
	s.mu.Unlock()
	sh.Crash()
	return nil
}

// shardDown is every shard's death hook: Crash calls it, and so does a
// round loop that exits on a failure. The first call for the shard in
// service marks its slot down and, when the service recovers shards,
// starts the restart. It publishes the death: a dead in-memory shard no
// longer holds the merge back. Repeats, calls for a shard already
// replaced, and deaths during Stop or Crash are ignored.
func (s *Server) shardDown(sh *shard) {
	why := sh.downErr()
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sh.id
	if s.halted || s.shards[i] != sh || s.down[i] {
		return
	}
	s.down[i], s.lastDown[i] = true, why
	if s.recovers {
		s.restarting.Add(1)
		go s.restart(sh)
	}
	s.published.publish()
}

// restart rebuilds a dead shard from its data directory and swaps it in,
// started if the service is. It retries a failed rebuild with backoff
// until one succeeds or the service halts.
func (s *Server) restart(dead *shard) {
	defer s.restarting.Done()
	i := dead.id
	// A round loop that failed still holds its log open: close it, keeping
	// what the shard acknowledged, so the rebuild has the directory to
	// itself.
	dead.release()
	var wait time.Duration
	s.mu.Lock()
	if !s.upAt[i].IsZero() && time.Since(s.upAt[i]) < restartBackoffMax {
		wait = min(max(2*s.upWait[i], restartBackoffMin), restartBackoffMax)
	}
	s.mu.Unlock()
	for {
		select {
		case <-s.halting:
			return
		case <-time.After(wait):
		}
		s.mu.Lock()
		cfg := s.cfg
		s.mu.Unlock()
		sh, err := s.buildShard(i, cfg)
		s.mu.Lock()
		if err != nil {
			s.restartErr[i] = fmt.Errorf("restart: %w", err)
			s.mu.Unlock()
			wait = min(max(2*wait, restartBackoffMin), restartBackoffMax)
			continue
		}
		if s.halted {
			s.mu.Unlock()
			sh.Crash() // close the log; the recovered state is on disk already
			return
		}
		s.shards[i], s.down[i], s.restartErr[i] = sh, false, nil
		sh.setQueueCap(s.cfg.QueueCap) // a SetQueueCap since cfg was read
		s.autoID = max(s.autoID, sh.autoID)
		s.restarts[i]++
		s.upAt[i], s.upWait[i] = time.Now(), wait
		started := s.started
		s.up.Broadcast()
		s.mu.Unlock()
		s.published.publish() // the recovered ring may hold decisions no merge has read
		if started {
			sh.Start()
		}
		return
	}
}

// replacement waits out a dead shard's restart and returns the shard that
// took its place; nil when no restart is coming — an in-memory service,
// or one that is stopping — or ctx ends first.
func (s *Server) replacement(ctx context.Context, dead *shard) *shard {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.up.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	i := dead.id
	for s.shards[i] == dead && s.recovers && !s.halted && ctx.Err() == nil {
		s.up.Wait()
	}
	if s.shards[i] == dead {
		return nil
	}
	return s.shards[i]
}

// haltRestarts ends failover for Stop and Crash: no shard restarts after
// it returns, and a restart in flight has finished or given up.
// Idempotent.
func (s *Server) haltRestarts() {
	s.mu.Lock()
	if !s.halted {
		s.halted = true
		close(s.halting)
		s.up.Broadcast()
	}
	s.mu.Unlock()
	s.restarting.Wait()
}
