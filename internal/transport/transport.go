// Package transport solves one WaterWise scheduling round (paper Eq. 8–13)
// as the transportation problem it is: place each of M jobs in exactly one
// of N regions (Eq. 9), at most cap_n jobs in region n (Eq. 10), at least
// total cost. The delay-tolerance rows of Eq. 11 arrive already folded into
// the cost table — a forbidden pair as +Inf in hard mode, σ·max(0, ratio −
// TOL) added to the pair's cost in soft mode — so the constraint matrix is
// the bipartite one, totally unimodular, and a network algorithm reaches
// the integral optimum the MILP's relaxation would.
//
// The algorithm is successive shortest paths over the N-node region
// exchange graph. Jobs are inserted in queue order; after each insertion
// the placement of the jobs so far is optimal. Edge a→b is the cheapest
// move of one job already placed in a over to b, cost[j][b] − cost[j][a],
// kept in a per-(a, b) heap. A new job enters region a at cost[k][a], and
// Bellman–Ford over the N regions finds the cheapest chain of moves that
// ends in a region with a free slot. A round costs O(M·(N³ + N²·log M)),
// and a job whose cheapest region has room costs O(N·log M).
//
// Ties break by lowest region index, then by lowest queue position. The
// result is a pure function of the cost table and the capacities: the
// solver reads no clock and iterates no map.
package transport

import (
	"errors"
	"fmt"
	"math"
)

// Status reports the outcome of a Solve.
type Status int

const (
	// Optimal means every job is placed and the placement is of least
	// total cost.
	Optimal Status = iota
	// Infeasible means no placement respects the capacities and the
	// forbidden pairs.
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	}
	return "unknown"
}

// relTol scales the smallest path improvement the search acts on: a path
// must beat another by more than relTol times the table's largest finite
// cost magnitude. Exact ties are common in scheduling rounds, and rounding
// in cost[j][b] − cost[j][a] must not turn a zero-cost cycle of moves into
// a negative one.
const relTol = 1e-12

// Solver holds the scratch of successive solves. The zero value is ready to
// use; its buffers grow with the largest round it has solved and hold no
// pointers. A Solver is not safe for concurrent use.
type Solver struct {
	cost []float64 // the table being solved, row-major M×N
	n    int
	tol  float64

	where []int32 // region of each placed job
	// pos[j*n+b] is job j's index in heap (where[j], b), or -1 when j is
	// not in it (cost[j][b] is +Inf).
	pos  []int32
	heap []int32 // the n·n exchange heaps, back to back
	off  []int32 // off[a*n+b]: where heap (a, b) starts in heap
	hlen []int32 // hlen[a*n+b]: its length
	free []int32 // free slots per region

	dist []float64
	pred []int32
}

// Solve places job j (0 ≤ j < len(assign)) in region assign[j] (0 ≤
// assign[j] < len(caps)) so that region b holds at most caps[b] jobs and
// Σ_j cost[j*len(caps)+assign[j]] is least. cost is row-major; +Inf marks a
// pair no placement may use. On Infeasible the contents of assign are
// unspecified. An error reports a malformed input: a table of the wrong
// size, a negative capacity, or a NaN or −Inf cost.
func (s *Solver) Solve(cost []float64, caps []int, assign []int) (Status, error) {
	M, N := len(assign), len(caps)
	if len(cost) != M*N {
		return 0, fmt.Errorf("transport: cost table has %d entries, want %d×%d", len(cost), M, N)
	}
	if M*N > math.MaxInt32 {
		return 0, fmt.Errorf("transport: %d×%d round is too large", M, N)
	}
	scale := 1.0
	for _, c := range cost {
		switch {
		case math.IsNaN(c) || math.IsInf(c, -1):
			return 0, errors.New("transport: cost table holds NaN or -Inf")
		case !math.IsInf(c, 1):
			scale = max(scale, math.Abs(c))
		}
	}
	total := 0
	for _, c := range caps {
		if c < 0 {
			return 0, fmt.Errorf("transport: negative capacity %d", c)
		}
		total += min(c, M)
	}
	if M == 0 {
		return Optimal, nil
	}
	if total < M {
		return Infeasible, nil
	}
	s.reset(cost, caps, M)
	s.tol = relTol * scale
	for k := 0; k < M; k++ {
		ok, err := s.insert(int32(k))
		if err != nil {
			return 0, err
		}
		if !ok {
			return Infeasible, nil
		}
	}
	for j := range assign {
		assign[j] = int(s.where[j])
	}
	return Optimal, nil
}

// reset sizes the scratch for an M-job round over caps and empties it.
// Heap (a, b) never holds more than min(caps[a], M) jobs.
func (s *Solver) reset(cost []float64, caps []int, M int) {
	N := len(caps)
	s.cost, s.n = cost, N
	s.where = grow(s.where, M)
	s.pos = grow(s.pos, M*N)
	for i := range s.pos {
		s.pos[i] = -1
	}
	s.off = grow(s.off, N*N)
	s.hlen = grow(s.hlen, N*N)
	s.free = grow(s.free, N)
	s.pred = grow(s.pred, N)
	s.dist = grow(s.dist, N)
	next := int32(0)
	for a, c := range caps {
		size := int32(min(c, M))
		for b := 0; b < N; b++ {
			s.off[a*N+b] = next
			s.hlen[a*N+b] = 0
			if b != a {
				next += size
			}
		}
		s.free[a] = int32(c)
	}
	s.heap = grow(s.heap, int(next))
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T int32 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// insert places job k along a shortest augmenting path, keeping the
// placement of jobs 0..k optimal. It reports false when job k fits nowhere,
// however the jobs before it are moved.
func (s *Solver) insert(k int32) (bool, error) {
	N := s.n
	row := s.cost[int(k)*N : int(k)*N+N]
	// A job whose cheapest region has room goes there: with the placement
	// optimal, no chain of moves ending in a free region costs less than 0.
	best := -1
	for b, c := range row {
		if !math.IsInf(c, 1) && (best < 0 || c < row[best]) {
			best = b
		}
	}
	if best < 0 {
		return false, nil
	}
	if s.free[best] > 0 {
		s.place(k, int32(best))
		return true, nil
	}

	dist, pred := s.dist, s.pred
	copy(dist, row)
	for b := range pred {
		pred[b] = -1
	}
	for round := 0; ; round++ {
		if round > N {
			return false, errors.New("transport: negative cycle in the exchange graph")
		}
		changed := false
		for a := 0; a < N; a++ {
			if math.IsInf(dist[a], 1) {
				continue
			}
			for b := 0; b < N; b++ {
				e := a*N + b
				if b == a || s.hlen[e] == 0 {
					continue
				}
				j := int(s.heap[s.off[e]])
				nd := dist[a] + (s.cost[j*N+b] - s.cost[j*N+a])
				if nd < dist[b]-s.tol {
					dist[b], pred[b] = nd, int32(a)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	t := -1
	for b := 0; b < N; b++ {
		if s.free[b] > 0 && !math.IsInf(dist[b], 1) && (t < 0 || dist[b] < dist[t]-s.tol) {
			t = b
		}
	}
	if t < 0 {
		return false, nil
	}
	// Walk the path back from its free end: each region passes its
	// cheapest mover on before it receives one, so every move reads the
	// heap top the search priced.
	v := int32(t)
	for steps := 0; pred[v] >= 0; steps++ {
		if steps >= N {
			return false, errors.New("transport: cycle in the shortest-path tree")
		}
		u := pred[v]
		s.move(s.heap[s.off[int(u)*N+int(v)]], u, v)
		v = u
	}
	s.place(k, v)
	return true, nil
}

// place puts unplaced job j in region a and enters it in a's heaps.
func (s *Solver) place(j, a int32) {
	N := s.n
	s.where[j] = a
	s.free[a]--
	for b := 0; b < N; b++ {
		if int32(b) != a && !math.IsInf(s.cost[int(j)*N+b], 1) {
			s.push(int(a)*N+b, j)
		}
	}
}

// move takes job j out of region a and places it in region b.
func (s *Solver) move(j, a, b int32) {
	N := s.n
	for x := 0; x < N; x++ {
		if p := s.pos[int(j)*N+x]; p >= 0 {
			s.remove(int(a)*N+x, p)
		}
	}
	s.free[a]++
	s.place(j, b)
}

// less orders heap e = a*n+b: the cheaper move of a job from a to b first,
// ties by lower queue position.
func (s *Solver) less(e int, x, y int32) bool {
	N := s.n
	a, b := e/N, e%N
	kx := s.cost[int(x)*N+b] - s.cost[int(x)*N+a]
	ky := s.cost[int(y)*N+b] - s.cost[int(y)*N+a]
	return kx < ky || (kx == ky && x < y)
}

// at returns heap e's slots and the column of pos its entries index.
func (s *Solver) at(e int) ([]int32, int) {
	return s.heap[s.off[e] : s.off[e]+s.hlen[e]], e % s.n
}

func (s *Solver) push(e int, j int32) {
	i := s.hlen[e]
	s.hlen[e]++
	h, b := s.at(e)
	h[i] = j
	s.pos[int(j)*s.n+b] = i
	s.up(e, h, b, int(i))
}

// remove deletes the entry at index p of heap e.
func (s *Solver) remove(e int, p int32) {
	h, b := s.at(e)
	last := int32(len(h) - 1)
	s.pos[int(h[p])*s.n+b] = -1
	if p != last {
		h[p] = h[last]
		s.pos[int(h[p])*s.n+b] = p
	}
	s.hlen[e]--
	h = h[:last]
	if p != last {
		s.down(e, h, b, int(p))
		s.up(e, h, b, int(p))
	}
}

func (s *Solver) up(e int, h []int32, b, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(e, h[i], h[p]) {
			return
		}
		s.swap(h, b, i, p)
		i = p
	}
}

func (s *Solver) down(e int, h []int32, b, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && s.less(e, h[c+1], h[c]) {
			c++
		}
		if !s.less(e, h[c], h[i]) {
			return
		}
		s.swap(h, b, i, c)
		i = c
	}
}

func (s *Solver) swap(h []int32, b, i, k int) {
	h[i], h[k] = h[k], h[i]
	s.pos[int(h[i])*s.n+b] = int32(i)
	s.pos[int(h[k])*s.n+b] = int32(k)
}
