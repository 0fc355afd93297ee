package transport

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed FuzzTransport seed corpus")

var inf = math.Inf(1)

// objective sums the placement's costs in job order.
func objective(cost []float64, N int, assign []int) float64 {
	total := 0.0
	for j, b := range assign {
		total += cost[j*N+b]
	}
	return total
}

// checkFeasible fails unless assign uses no forbidden pair and fills no
// region past its capacity.
func checkFeasible(t *testing.T, name string, cost []float64, caps, assign []int) {
	t.Helper()
	N := len(caps)
	load := make([]int, N)
	for j, b := range assign {
		if b < 0 || b >= N {
			t.Fatalf("%s: job %d placed in region %d of %d", name, j, b, N)
		}
		if math.IsInf(cost[j*N+b], 1) {
			t.Fatalf("%s: job %d placed on forbidden pair (%d, %d)", name, j, j, b)
		}
		load[b]++
	}
	for b := range caps {
		if load[b] > caps[b] {
			t.Fatalf("%s: region %d holds %d jobs, capacity %d", name, b, load[b], caps[b])
		}
	}
}

// bruteForce enumerates all N^M placements and returns the least total
// cost, or ok=false when none is feasible.
func bruteForce(cost []float64, caps []int, M int) (best float64, ok bool) {
	N := len(caps)
	assign := make([]int, M)
	load := make([]int, N)
	best = inf
	var walk func(j int)
	walk = func(j int) {
		if j == M {
			if c := objective(cost, N, assign); c < best {
				best, ok = c, true
			}
			return
		}
		for b := 0; b < N; b++ {
			if load[b] == caps[b] || math.IsInf(cost[j*N+b], 1) {
				continue
			}
			load[b]++
			assign[j] = b
			walk(j + 1)
			load[b]--
		}
	}
	walk(0)
	return best, ok
}

func TestSolveSmallRounds(t *testing.T) {
	cases := []struct {
		name   string
		cost   []float64
		caps   []int
		want   Status
		assign []int
	}{
		{"empty round", nil, []int{1, 2}, Optimal, []int{}},
		{"no regions", []float64{}, nil, Optimal, []int{}},
		// Job 0 takes region 0 first; job 1 can only go to region 0, so job
		// 0 must move over to region 1 along an augmenting path.
		{"augment", []float64{1, 2, 1, inf}, []int{1, 1}, Optimal, []int{1, 0}},
		// A chain of two moves: job 2 enters region 0, job 0 moves to 1,
		// job 1 moves to 2.
		{"two moves", []float64{
			0, 1, inf,
			inf, 0, 5,
			0, inf, inf,
		}, []int{1, 1, 1}, Optimal, []int{1, 2, 0}},
		{"too little capacity", []float64{0, 0, 0, 0, 0, 0}, []int{1, 1}, Infeasible, nil},
		{"forbidden everywhere", []float64{0, 0, inf, inf}, []int{2, 2}, Infeasible, nil},
		{"forbidden pairs starve a region", []float64{0, inf, 0, inf}, []int{1, 5}, Infeasible, nil},
		// Exact ties: lowest region index, then the earlier job keeps it.
		{"ties", []float64{1, 1, 1, 1}, []int{1, 1}, Optimal, []int{0, 1}},
	}
	var s Solver
	for _, c := range cases {
		M := 0
		if len(c.caps) > 0 {
			M = len(c.cost) / len(c.caps)
		}
		assign := make([]int, M)
		st, err := s.Solve(c.cost, c.caps, assign)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st != c.want {
			t.Fatalf("%s: status %v, want %v", c.name, st, c.want)
		}
		if st == Optimal && !slices.Equal(assign, c.assign) {
			t.Errorf("%s: placement %v, want %v", c.name, assign, c.assign)
		}
	}
}

func TestSolveRejectsMalformedInput(t *testing.T) {
	var s Solver
	for _, c := range []struct {
		name string
		cost []float64
		caps []int
		m    int
	}{
		{"short table", []float64{1, 2, 3}, []int{1, 1}, 2},
		{"negative capacity", []float64{1, 2}, []int{1, -1}, 1},
		{"NaN cost", []float64{1, math.NaN()}, []int{1, 1}, 1},
		{"-Inf cost", []float64{math.Inf(-1), 1}, []int{1, 1}, 1},
	} {
		if _, err := s.Solve(c.cost, c.caps, make([]int, c.m)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestSolveIsPureFunction solves the same tie-heavy rounds on a fresh
// solver and on one whose scratch holds larger earlier rounds: the
// placements must be identical.
func TestSolveIsPureFunction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var reused Solver
	for k := 0; k < 50; k++ {
		M, N := 1+r.Intn(200), 2+r.Intn(9)
		cost := make([]float64, M*N)
		for v := range cost {
			cost[v] = 0.25 * float64(r.Intn(4))
			if r.Intn(10) == 0 {
				cost[v] = inf
			}
		}
		caps := make([]int, N)
		for i := 0; i < M+r.Intn(M); i++ {
			caps[r.Intn(N)]++
		}
		var fresh Solver
		a1, a2 := make([]int, M), make([]int, M)
		st1, err1 := fresh.Solve(cost, caps, a1)
		st2, err2 := reused.Solve(cost, caps, a2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if st1 != st2 || (st1 == Optimal && !slices.Equal(a1, a2)) {
			t.Fatalf("round %d: fresh %v %v, reused %v %v", k, st1, a1, st2, a2)
		}
	}
}

// decodeRound builds a round from fuzz bytes: M ≤ 7 jobs, N ≤ 4 regions,
// capacities from 0 to M+1 (below, at and above the batch), costs from a
// five-value set plus +Inf so exact ties are common, and in each cell a
// delay-tolerance excess that hard mode turns into a forbidden pair and
// soft mode prices at σ = 10 per unit, as core folds Eq. 11–13 into the
// table. Missing bytes read as 0.
func decodeRound(data []byte) (cost []float64, caps []int, M int) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	M, N, soft := 1+at(0)%7, 1+at(1)%4, at(2)%2 == 1
	caps = make([]int, N)
	for n := range caps {
		caps[n] = at(3+n) % (M + 2)
	}
	values := []float64{0, 0.25, 0.5, 0.75, 1, inf}
	excess := []float64{0, 0.1, 0.35}
	cost = make([]float64, M*N)
	for v := range cost {
		b := at(3 + N + v)
		c, ex := values[b%6], excess[b/6%3]
		switch {
		case ex > 0 && !soft:
			c = inf
		case ex > 0:
			c += 10 * ex
		}
		cost[v] = c
	}
	return cost, caps, M
}

// transportFuzzSeeds are FuzzTransport's starting rounds: the corner
// shapes and a few random ones.
func transportFuzzSeeds() [][]byte {
	seeds := [][]byte{
		{},                                   // 1 job, 1 region of capacity 0
		{6, 3, 0, 2, 2, 2, 2},                // 7 jobs over 4 regions of 2, all ties
		{6, 1, 1, 3, 4, 7, 19, 4, 13, 5, 31}, // soft mode, tight capacity
		{4, 2, 0, 5, 0, 1, 5, 5, 5, 11, 0, 0, 0, 1, 2, 3, 4, 5, 6},
	}
	r := rand.New(rand.NewSource(37))
	for len(seeds) < 12 {
		b := make([]byte, 3+4+28)
		r.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// TestTransportFuzzCorpusCommitted keeps testdata/fuzz/FuzzTransport in sync
// with transportFuzzSeeds: -update rewrites the files, and the plain run
// fails if one is missing or stale.
func TestTransportFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTransport")
	for i, seed := range transportFuzzSeeds() {
		path := filepath.Join(dir, fmt.Sprintf("seed_%02d", i))
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
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
			t.Fatalf("fuzz seed %s out of date (run with -update)", path)
		}
	}
}

// FuzzTransport compares Solve with brute-force enumeration of all N^M
// placements: the same status, a feasible placement, and the least total
// cost within 1e-9.
func FuzzTransport(f *testing.F) {
	for _, seed := range transportFuzzSeeds() {
		f.Add(seed)
	}
	var s Solver
	f.Fuzz(func(t *testing.T, data []byte) {
		cost, caps, M := decodeRound(data)
		assign := make([]int, M)
		st, err := s.Solve(cost, caps, assign)
		if err != nil {
			t.Fatal(err)
		}
		best, ok := bruteForce(cost, caps, M)
		if ok != (st == Optimal) {
			t.Fatalf("status %v, brute force feasible=%v (caps %v, cost %v)", st, ok, caps, cost)
		}
		if !ok {
			return
		}
		checkFeasible(t, "fuzz", cost, caps, assign)
		if got := objective(cost, len(caps), assign); math.Abs(got-best) > 1e-9*max(1, math.Abs(best)) {
			t.Fatalf("objective %.12g, brute force %.12g (caps %v, cost %v, placement %v)", got, best, caps, cost, assign)
		}
	})
}

// BenchmarkTransport solves production-shaped rounds: 1000 jobs (the
// large-deployment MaxBatch) and 15 jobs (the paper's regime) over five
// regions, with Σ caps 1.2·M spread evenly so capacity binds, and 2% of
// pairs forbidden.
func BenchmarkTransport(b *testing.B) {
	for _, M := range []int{1000, 15} {
		b.Run(fmt.Sprintf("%dx5", M), func(b *testing.B) {
			const N = 5
			r := rand.New(rand.NewSource(1))
			cost := make([]float64, M*N)
			for v := range cost {
				cost[v] = 0.2 + r.Float64()
				if r.Intn(50) == 0 {
					cost[v] = inf
				}
			}
			caps := make([]int, N)
			for n := range caps {
				caps[n] = int(math.Ceil(1.2 * float64(M) / N))
			}
			assign := make([]int, M)
			var s Solver
			for b.Loop() {
				if st, err := s.Solve(cost, caps, assign); err != nil || st != Optimal {
					b.Fatal(st, err)
				}
			}
		})
	}
}
