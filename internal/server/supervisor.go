package server

import (
	"time"
)

// The supervisor is a watchdog goroutine that probes every shard, declares
// one dead after a threshold of consecutive failed probes (a shard that
// stopped or whose round loop errored without the service stopping it),
// and drives RestartShard with capped exponential backoff until the shard
// rejoins. Region re-assignment is deliberately out of scope (it would
// change partitions and break the sharded≡unsharded equivalence proof);
// the supervisor restores the fixed partition, it never rebalances it.

// Supervisor defaults (applied by SupervisorConfig.withDefaults).
const (
	// DefaultSupervisorInterval is the health-probe cadence.
	DefaultSupervisorInterval = 25 * time.Millisecond
	// DefaultSupervisorFailThreshold is how many consecutive failed
	// probes declare a shard dead (2: one stray observation mid-restart
	// never triggers a kill).
	DefaultSupervisorFailThreshold = 2
	// DefaultSupervisorBackoffMin seeds the restart backoff after a
	// failed restart attempt.
	DefaultSupervisorBackoffMin = 100 * time.Millisecond
	// DefaultSupervisorBackoffMax caps the restart backoff.
	DefaultSupervisorBackoffMax = 5 * time.Second
)

// SupervisorConfig parameterizes the watchdog. Zero values take the
// defaults above.
type SupervisorConfig struct {
	// Interval is the health-probe cadence.
	Interval time.Duration
	// FailThreshold is how many consecutive failed probes mark a live
	// shard dead (KillShard semantics: the service starts buffering).
	// Shards killed explicitly skip the threshold — they are already dead.
	FailThreshold int
	// BackoffMin and BackoffMax bound the capped exponential backoff
	// between restart attempts while RestartShard keeps failing.
	BackoffMin time.Duration
	BackoffMax time.Duration
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultSupervisorInterval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultSupervisorFailThreshold
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = DefaultSupervisorBackoffMin
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultSupervisorBackoffMax
	}
	return c
}

// ShardSupervision is one shard's view in the supervisor status block.
type ShardSupervision struct {
	Shard int `json:"shard"`
	// State is "up" (probes passing), "dead" (awaiting a restart
	// attempt), or "backoff" (a restart failed; waiting out the delay).
	State string `json:"state"`
	// Restarts counts successful supervisor-driven restarts of this shard.
	Restarts uint64 `json:"restarts"`
	// Strikes is the current consecutive-failed-probe count (resets on a
	// passing probe or a successful restart).
	Strikes int `json:"strikes,omitempty"`
	// BackoffMs is the current restart backoff, nonzero only after a
	// failed restart attempt.
	BackoffMs float64 `json:"backoff_ms,omitempty"`
	// LastRestart is the wall instant of the newest successful restart.
	LastRestart time.Time `json:"last_restart,omitzero"`
}

// SupervisorStatus is the "supervisor" block of /v1/status.
type SupervisorStatus struct {
	// Restarts counts successful supervisor-driven shard restarts,
	// service-wide (the waterwise_fleet_restarts_total counter).
	Restarts uint64             `json:"restarts"`
	Shards   []ShardSupervision `json:"shards"`
}

// supervisor is the watchdog state. Per-shard slices are guarded by the
// Server's mu (the same lock the dead/buffered bookkeeping lives under);
// the loop goroutine is started by Start and stopped by Stop before the
// shards are, so a deliberate shutdown never looks like a crash.
type supervisor struct {
	cfg  SupervisorConfig
	stop chan struct{}
	done chan struct{}

	// All guarded by Server.mu.
	running  bool
	strikes  []int
	backoff  []time.Duration
	next     []time.Time // earliest next restart attempt per shard
	restarts []uint64    // successful restarts per shard
	lastUp   []time.Time // newest successful restart per shard
	total    uint64
}

func newSupervisor(cfg SupervisorConfig, shards int) *supervisor {
	return &supervisor{
		cfg:      cfg.withDefaults(),
		strikes:  make([]int, shards),
		backoff:  make([]time.Duration, shards),
		next:     make([]time.Time, shards),
		restarts: make([]uint64, shards),
		lastUp:   make([]time.Time, shards),
	}
}

// startSupervisor launches the watchdog loop (idempotent). Called from
// Start.
func (s *Server) startSupervisor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sup == nil || s.sup.running {
		return
	}
	s.sup.running = true
	s.sup.stop = make(chan struct{})
	s.sup.done = make(chan struct{})
	go s.supervise()
}

// stopSupervisor halts the watchdog and waits for it (idempotent).
// Called from Stop and Crash before the shards go down, so the shutdown is
// never mistaken for a crash.
func (s *Server) stopSupervisor() {
	s.mu.Lock()
	if s.sup == nil || !s.sup.running {
		s.mu.Unlock()
		return
	}
	s.sup.running = false
	stop, done := s.sup.stop, s.sup.done
	s.mu.Unlock()
	close(stop)
	<-done
}

// supervise is the watchdog loop: probe, declare, restart.
func (s *Server) supervise() {
	sup := s.sup
	defer close(sup.done)
	t := time.NewTicker(sup.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-sup.stop:
			return
		case <-t.C:
		}
		for i := range s.parts {
			s.superviseShard(i)
		}
	}
}

// superviseShard runs one probe-and-repair step for one shard.
func (s *Server) superviseShard(i int) {
	sup := s.sup
	s.mu.Lock()
	dead := s.dead[i]
	sh := s.shards[i]
	s.mu.Unlock()
	if !dead {
		if !sh.Stopped() {
			s.mu.Lock()
			sup.strikes[i] = 0
			s.mu.Unlock()
			return
		}
		// The shard halted without the service killing it — a direct Crash
		// or a round-loop failure. Strike; at the threshold, mark it dead
		// the usual way (KillShard is idempotent and, on an
		// already-stopped shard, only flips the service to buffering).
		s.mu.Lock()
		sup.strikes[i]++
		strikes := sup.strikes[i]
		s.mu.Unlock()
		if strikes < sup.cfg.FailThreshold {
			return
		}
		_ = s.KillShard(i)
	}
	s.mu.Lock()
	wait := time.Until(sup.next[i]) > 0
	s.mu.Unlock()
	if wait {
		return
	}
	err := s.RestartShard(i)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if sup.backoff[i] < sup.cfg.BackoffMin {
			sup.backoff[i] = sup.cfg.BackoffMin
		} else {
			sup.backoff[i] *= 2
		}
		if sup.backoff[i] > sup.cfg.BackoffMax {
			sup.backoff[i] = sup.cfg.BackoffMax
		}
		sup.next[i] = time.Now().Add(sup.backoff[i])
		return
	}
	sup.backoff[i] = 0
	sup.next[i] = time.Time{}
	sup.strikes[i] = 0
	sup.restarts[i]++
	sup.lastUp[i] = time.Now()
	sup.total++
}

// supervisorStatusLocked builds the status block. Called with mu held;
// nil when supervision is disabled.
func (s *Server) supervisorStatusLocked() *SupervisorStatus {
	sup := s.sup
	if sup == nil {
		return nil
	}
	st := &SupervisorStatus{
		Restarts: sup.total,
		Shards:   make([]ShardSupervision, len(s.shards)),
	}
	for i := range s.shards {
		ss := ShardSupervision{
			Shard:       i,
			State:       "up",
			Restarts:    sup.restarts[i],
			Strikes:     sup.strikes[i],
			LastRestart: sup.lastUp[i],
		}
		if s.dead[i] {
			ss.State = "dead"
			if sup.backoff[i] > 0 {
				ss.State = "backoff"
				ss.BackoffMs = float64(sup.backoff[i].Microseconds()) / 1000
			}
		}
		st.Shards[i] = ss
	}
	return st
}

// Restarts reports the number of successful supervisor-driven shard
// restarts (0 with supervision disabled).
func (s *Server) Restarts() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sup == nil {
		return 0
	}
	return s.sup.total
}
