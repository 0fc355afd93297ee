package lp

import "math"

// Column statuses of the bounded-variable simplex. Every column is either
// basic or sits at one of its finite bounds; columns with lo == hi are
// "fixed" and never priced.
const (
	statLower int8 = iota // nonbasic at lower bound
	statUpper             // nonbasic at upper bound
	statBasic
	statFixed // nonbasic with lo == hi: never priced, value is lo
)

// simplex is the sparse revised bounded-variable simplex engine. Where the
// previous generation of this file maintained a dense B⁻¹A tableau — making
// every pivot O(m·n) and every warm-start revival O(m²·n) — this engine keeps
// the constraint matrix in compressed sparse column form (shared with the
// Problem, never copied), represents the basis inverse implicitly as a sparse
// LU factorization (lu.go) extended by an eta file of product-form updates,
// and computes the vectors each pivot needs by FTRAN/BTRAN triangular solves:
//
//   - pricing:     y = B⁻ᵀc_B (one BTRAN), then d_j = c_j − y·a_j per
//     candidate column, scanned with a rotating partial-pricing cursor;
//   - pivot column: w = B⁻¹a_q (one FTRAN) feeds the ratio test and the
//     basic-value update;
//   - dual pivots:  ρ = B⁻ᵀe_r (one BTRAN) yields the leaving row's tableau
//     row as ρ·a_j per column.
//
// Each pivot appends one eta; after refactorEvery of them the basis is
// refactorized from its column headers and the basic values are recomputed,
// which bounds both the eta file's growth and numerical drift. Pivot cost
// therefore tracks the matrix's nonzero count, not m·n — for the WaterWise
// round MILP (assignment rows + capacity rows, ~2 nonzeros per column) a
// thousand-job round prices and pivots in microseconds where the dense
// tableau needed a 90 MB clear per solve.
//
// The struct doubles as the reusable Basis: between solves it keeps only the
// basis headers (basis, statuses, bounds, costs, original RHS). Warm starts
// revive state by refactorizing from those headers and re-solving B⁻¹b /
// re-pricing reduced costs — no tableau snapshot exists to replay.
type simplex struct {
	m       int // constraint rows
	nstruct int // structural columns (the Problem's variables)
	nreal   int // structural + slack columns
	width   int // + artificial columns

	a        *csc      // structural columns, shared with the Problem
	slackRow []int32   // column nstruct+k -> its row (slack coefficient +1)
	artRow   []int32   // column nreal+k -> its row
	artSign  []float64 // artificial coefficient (±1, making its value ≥ 0)

	lo, hi []float64 // width: column bounds (slacks: [0,inf) / (-inf,0] / [0,0])
	cost   []float64 // width: minimization-space costs (artificials 0)
	status []int8    // width
	basis  []int     // m: column basic at position k (position order is
	// arbitrary and re-permuted at each refactorization)
	xB   []float64 // m: current value of basis[k]
	rhs0 []float64 // m: row RHS at construction (drift check + B⁻¹b source)

	lu luFactor
	// eta file: product-form updates since the last refactorization. Eta e
	// records pivot position etaPivPos[e] with pivot value etaPivVal[e] and
	// off-pivot entries etaPos/etaVal[etaStart[e]:etaStart[e+1]].
	etaStart  []int32
	etaPos    []int32
	etaVal    []float64
	etaPivPos []int32
	etaPivVal []float64

	// scratch, len m
	w         []float64 // FTRAN result (entering column in basis coordinates)
	y         []float64 // BTRAN result, original-row indexed
	rho       []float64 // BTRAN of a unit vector (dual pivot row)
	zs        []float64 // BTRAN intermediate, basis-position indexed
	rhsW      []float64 // computeXB right-hand side accumulator
	permBasis []int     // refactor: counting-sorted basis order
	permXB    []float64 // refactor: xB permuted alongside
	nnzCnt    []int32   // refactor: counting-sort buckets

	p1cost []float64 // width: phase-1 cost vector (1 on artificials)

	eps         float64
	maxIter     int
	iters       int // pivots + bound flips across all phases
	priceCursor int // partial-pricing rotation
	// clean marks an identity revival: warmApply found nothing changed since
	// the stored optimal state, so solveWarm returns it verbatim (bitwise
	// rerun determinism) instead of re-deriving it through a fresh
	// factorization's rounding.
	clean bool
}

const (
	feasTol       = 1e-7  // primal feasibility tolerance on basic values
	dualTol       = 1e-7  // dual feasibility tolerance on reduced costs
	etaDropTol    = 1e-12 // eta entries below this are dropped
	refactorEvery = 64    // etas accumulated before refactorizing
)

func inf() float64 { return math.Inf(1) }

// newSimplex builds the engine for p in minimization space. Slack layout: one
// slack per LE/GE row (LE: [0,+inf), GE: (-inf,0], both with +1
// coefficients), none for EQ rows. Rows whose slack cannot serve as the
// initial basic variable get a structural column via the triangular crash, or
// failing that an artificial column. recycled may carry a same-shape engine
// whose allocations are reused (a reused model's round-to-round path:
// objective and RHS change, so the basis is useless, but the arrays are not).
func newSimplex(p *Problem, recycled *simplex) *simplex {
	m := len(p.rows)
	nstruct := p.nvars
	nSlack := 0
	for _, r := range p.rows {
		if r.Op != EQ {
			nSlack++
		}
	}
	nreal := nstruct + nSlack
	maxWidth := nreal + m // worst case: artificial in every row
	var s *simplex
	if recycled != nil && recycled.m == m && recycled.nstruct == nstruct && recycled.nreal == nreal {
		s = recycled
	} else {
		s = &simplex{
			m: m, nstruct: nstruct, nreal: nreal,
			slackRow: make([]int32, nSlack),
			lo:       make([]float64, maxWidth),
			hi:       make([]float64, maxWidth),
			cost:     make([]float64, maxWidth),
			status:   make([]int8, maxWidth),
			basis:    make([]int, m),
			xB:       make([]float64, m),
			rhs0:     make([]float64, m),
		}
	}
	s.a = p.structCSC()
	s.eps = p.epsTol
	s.iters = 0
	s.priceCursor = 0
	s.clean = false
	s.artRow = s.artRow[:0]
	s.artSign = s.artSign[:0]
	s.ensureScratch()

	copy(s.lo, p.lower)
	copy(s.hi, p.upper)
	objSign := 1.0
	if p.sense == Maximize {
		objSign = -1
	}
	for j := 0; j < nstruct; j++ {
		s.cost[j] = objSign * p.obj[j]
		if p.lower[j] == p.upper[j] {
			s.status[j] = statFixed
		} else {
			s.status[j] = statLower // structural lower bounds are always finite
		}
	}

	// Pass 1: slack columns, plus each row's residual at the
	// all-at-lower-bound point. Slacks go basic wherever that is feasible;
	// other rows stay pending (basis position -1).
	resid := s.rhsW // scratch alias: consumed before computeXB runs
	for i, r := range p.rows {
		resid[i] = r.RHS
		s.rhs0[i] = r.RHS
		s.basis[i] = -1
		s.xB[i] = 0
	}
	for j := 0; j < nstruct; j++ {
		lj := s.lo[j]
		if lj == 0 {
			continue
		}
		for t := s.a.colPtr[j]; t < s.a.colPtr[j+1]; t++ {
			resid[s.a.rowIdx[t]] -= s.a.val[t] * lj
		}
	}
	slack := nstruct
	for i, r := range p.rows {
		switch r.Op {
		case LE:
			s.slackRow[slack-nstruct] = int32(i)
			s.lo[slack], s.hi[slack] = 0, inf()
			if resid[i] >= 0 {
				s.basis[i] = slack
				s.status[slack] = statBasic
				s.xB[i] = resid[i]
			} else {
				s.status[slack] = statLower
			}
			slack++
		case GE:
			s.slackRow[slack-nstruct] = int32(i)
			s.lo[slack], s.hi[slack] = math.Inf(-1), 0
			if resid[i] <= 0 {
				s.basis[i] = slack
				s.status[slack] = statBasic
				s.xB[i] = resid[i]
			} else {
				s.status[slack] = statUpper
			}
			slack++
		}
	}

	// Pass 2: triangular crash — give pending rows a structural basic column
	// when that keeps the start primal feasible, avoiding both an artificial
	// variable and its phase-1 work. Cost-greedy selection means e.g. an
	// assignment row starts on its cheapest eligible variable, so phase 2
	// begins near the optimum.
	s.crash(p, resid)

	// Pass 3: artificials for rows the crash could not cover. The artificial
	// coefficient takes the residual's sign so its starting value is ≥ 0 (no
	// row normalization needed — the revised engine never rewrites rows).
	art := nreal
	for i := range p.rows {
		if s.basis[i] != -1 {
			continue
		}
		sign, val := 1.0, resid[i]
		if val < 0 {
			sign, val = -1, -val
		}
		s.artRow = append(s.artRow, int32(i))
		s.artSign = append(s.artSign, sign)
		s.lo[art], s.hi[art] = 0, inf()
		s.cost[art] = 0
		s.basis[i] = art
		s.status[art] = statBasic
		s.xB[i] = val
		art++
	}
	s.width = art
	s.maxIter = 200 * (s.m + s.width + 10)
	if p.maxIt > 0 {
		s.maxIter = p.maxIt
	}
	return s
}

// ensureScratch sizes the per-solve work vectors (clones drop them; recycled
// engines keep them).
func (s *simplex) ensureScratch() {
	if len(s.w) == s.m && s.p1cost != nil && len(s.p1cost) >= s.nreal+s.m {
		return
	}
	s.w = make([]float64, s.m)
	s.y = make([]float64, s.m)
	s.rho = make([]float64, s.m)
	s.zs = make([]float64, s.m)
	s.rhsW = make([]float64, s.m)
	s.permBasis = make([]int, s.m)
	s.permXB = make([]float64, s.m)
	s.p1cost = make([]float64, s.nreal+s.m)
}

// colDot returns y·a_j for an original-row-indexed vector y.
func (s *simplex) colDot(j int, y []float64) float64 {
	if j < s.nstruct {
		a := s.a
		sum := 0.0
		for t := a.colPtr[j]; t < a.colPtr[j+1]; t++ {
			sum += a.val[t] * y[a.rowIdx[t]]
		}
		return sum
	}
	if j < s.nreal {
		return y[s.slackRow[j-s.nstruct]]
	}
	k := j - s.nreal
	return s.artSign[k] * y[s.artRow[k]]
}

// colAddInto accumulates f·a_j into out (original-row indexed).
func (s *simplex) colAddInto(j int, f float64, out []float64) {
	if j < s.nstruct {
		a := s.a
		for t := a.colPtr[j]; t < a.colPtr[j+1]; t++ {
			out[a.rowIdx[t]] += a.val[t] * f
		}
		return
	}
	if j < s.nreal {
		out[s.slackRow[j-s.nstruct]] += f
		return
	}
	k := j - s.nreal
	out[s.artRow[k]] += s.artSign[k] * f
}

// colScatter emits column j's entries.
func (s *simplex) colScatter(j int, emit func(row int32, v float64)) {
	if j < s.nstruct {
		a := s.a
		for t := a.colPtr[j]; t < a.colPtr[j+1]; t++ {
			emit(a.rowIdx[t], a.val[t])
		}
		return
	}
	if j < s.nreal {
		emit(s.slackRow[j-s.nstruct], 1)
		return
	}
	k := j - s.nreal
	emit(s.artRow[k], s.artSign[k])
}

// colNNZ is the entry count of column j.
func (s *simplex) colNNZ(j int) int {
	if j < s.nstruct {
		return s.a.nnzCol(j)
	}
	return 1
}

// at reads the (summed) coefficient of structural column j in row i from the
// CSC index (binary search over the column's sorted rows).
func (s *simplex) at(i, j int) float64 {
	a := s.a
	lo, hi := int(a.colPtr[j]), int(a.colPtr[j+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.rowIdx[mid] < int32(i):
			lo = mid + 1
		case a.rowIdx[mid] > int32(i):
			hi = mid
		default:
			return a.val[mid]
		}
	}
	return 0
}

// crash assigns structural basic columns to pending rows (basis[i] == -1)
// when a column exists whose only other nonzeros sit in slack-basic rows with
// enough slack room — a triangular structure, so the start stays primal
// feasible and the initial basis factorizes with no fill. For the WaterWise
// scheduling MILP this covers every Eq. 9 assignment row, eliminating phase 1
// outright. Unlike the dense engine's crash, no elimination is performed —
// the LU factorization absorbs the structure — so installing a column only
// updates the affected slack rows' basic values.
func (s *simplex) crash(p *Problem, resid []float64) {
	for r := range p.rows {
		if s.basis[r] != -1 {
			continue
		}
		bestJ := -1
		var bestScore, bestDelta float64
		for _, term := range p.rows[r].Terms {
			j := term.Var
			if s.status[j] != statLower && s.status[j] != statUpper {
				continue
			}
			arj := s.at(r, j)
			if math.Abs(arj) < 0.125 { // pivot stability threshold
				continue
			}
			delta := resid[r] / arj
			v := s.lo[j] + delta
			if v < s.lo[j] || v > s.hi[j] {
				continue
			}
			ok := true
			a := s.a
			for t := a.colPtr[j]; t < a.colPtr[j+1]; t++ {
				i := int(a.rowIdx[t])
				if i == r {
					continue
				}
				if !s.crashRowOK(i, a.val[t], delta) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			score := s.cost[j] * delta
			if bestJ == -1 || score < bestScore-1e-12 {
				bestJ, bestScore, bestDelta = j, score, delta
			}
		}
		if bestJ == -1 {
			continue // pass 3 installs an artificial
		}
		// Install: column bestJ becomes basic in row r at lo+delta; every
		// slack-basic row it touches absorbs the move.
		a := s.a
		for t := a.colPtr[bestJ]; t < a.colPtr[bestJ+1]; t++ {
			i := int(a.rowIdx[t])
			if i != r {
				s.xB[i] -= a.val[t] * bestDelta
			}
		}
		s.basis[r] = bestJ
		s.status[bestJ] = statBasic
		s.xB[r] = s.lo[bestJ] + bestDelta
	}
}

// crashRowOK checks that making the candidate basic keeps row i's basic slack
// inside its bounds. Rows whose basic is pending (-1) or structural (an
// earlier crash) are ineligible.
func (s *simplex) crashRowOK(i int, aij, delta float64) bool {
	bi := s.basis[i]
	if bi < s.nstruct {
		return false
	}
	nv := s.xB[i] - aij*delta
	return nv >= s.lo[bi]-1e-9 && nv <= s.hi[bi]+1e-9
}

// nbVal returns the current value of nonbasic column j.
func (s *simplex) nbVal(j int) float64 {
	if s.status[j] == statUpper {
		return s.hi[j]
	}
	return s.lo[j]
}

// refactor rebuilds the LU factorization from the current basis headers and
// clears the eta file. Basis positions are re-permuted by ascending column
// nonzero count first (singleton slack/artificial columns pivot their rows
// immediately, shrinking the kernel the factorization has to order itself).
// Returns false when the basis is numerically singular.
func (s *simplex) refactor() bool {
	s.ensureScratch()
	m := s.m
	// Stable counting sort of basis positions by column nonzero count, into
	// pooled scratch (this runs every refactorEvery pivots — no allocations).
	maxNNZ := 1
	for k := 0; k < m; k++ {
		if n := s.colNNZ(s.basis[k]); n > maxNNZ {
			maxNNZ = n
		}
	}
	if cap(s.nnzCnt) < maxNNZ+2 {
		s.nnzCnt = make([]int32, maxNNZ+2)
	}
	cnt := s.nnzCnt[:maxNNZ+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for k := 0; k < m; k++ {
		cnt[s.colNNZ(s.basis[k])+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	nb, nx := s.permBasis[:m], s.permXB[:m]
	for k := 0; k < m; k++ {
		n := s.colNNZ(s.basis[k])
		nb[cnt[n]] = s.basis[k]
		nx[cnt[n]] = s.xB[k]
		cnt[n]++
	}
	copy(s.basis, nb)
	copy(s.xB, nx)
	s.clearEtas()
	return s.lu.factorize(m, func(pos int, emit func(row int32, v float64)) {
		s.colScatter(s.basis[pos], emit)
	})
}

func (s *simplex) clearEtas() {
	s.etaStart = append(s.etaStart[:0], 0)
	s.etaPos = s.etaPos[:0]
	s.etaVal = s.etaVal[:0]
	s.etaPivPos = s.etaPivPos[:0]
	s.etaPivVal = s.etaPivVal[:0]
}

func (s *simplex) etaCount() int { return len(s.etaPivPos) }

// appendEta records the product-form update for a pivot at basis position r;
// s.w must hold the FTRAN'd entering column.
func (s *simplex) appendEta(r int) {
	for k, v := range s.w {
		if k == r || (v < etaDropTol && v > -etaDropTol) {
			continue
		}
		s.etaPos = append(s.etaPos, int32(k))
		s.etaVal = append(s.etaVal, v)
	}
	s.etaPivPos = append(s.etaPivPos, int32(r))
	s.etaPivVal = append(s.etaPivVal, s.w[r])
	s.etaStart = append(s.etaStart, int32(len(s.etaPos)))
}

// applyEtasFTRAN finishes an FTRAN: x (basis-position indexed) already solved
// against the base factorization is pushed through the eta updates in order.
func (s *simplex) applyEtasFTRAN(x []float64) {
	for e := 0; e < len(s.etaPivPos); e++ {
		r := s.etaPivPos[e]
		p := x[r] / s.etaPivVal[e]
		x[r] = p
		if p == 0 {
			continue
		}
		for t := s.etaStart[e]; t < s.etaStart[e+1]; t++ {
			x[s.etaPos[t]] -= s.etaVal[t] * p
		}
	}
}

// applyEtasBTRAN starts a BTRAN: z (basis-position indexed) absorbs the eta
// updates in reverse before the base factorization's transpose solve.
func (s *simplex) applyEtasBTRAN(z []float64) {
	for e := len(s.etaPivPos) - 1; e >= 0; e-- {
		r := s.etaPivPos[e]
		acc := z[r]
		for t := s.etaStart[e]; t < s.etaStart[e+1]; t++ {
			acc -= s.etaVal[t] * z[s.etaPos[t]]
		}
		z[r] = acc / s.etaPivVal[e]
	}
}

// ftranColumn computes w = B⁻¹a_j into s.w. The column is scattered into
// pivot coordinates inline (no closure) — this runs once per pivot.
func (s *simplex) ftranColumn(j int) {
	x := s.w
	for i := range x {
		x[i] = 0
	}
	pinv := s.lu.pinv
	if j < s.nstruct {
		a := s.a
		for t := a.colPtr[j]; t < a.colPtr[j+1]; t++ {
			x[pinv[a.rowIdx[t]]] += a.val[t]
		}
	} else if j < s.nreal {
		x[pinv[s.slackRow[j-s.nstruct]]] += 1
	} else {
		k := j - s.nreal
		x[pinv[s.artRow[k]]] += s.artSign[k]
	}
	s.lu.solveLower(x)
	s.lu.solveUpper(x)
	s.applyEtasFTRAN(x)
}

// btranCost computes y = B⁻ᵀc_B into s.y (original-row indexed).
func (s *simplex) btranCost(c []float64) {
	for k := 0; k < s.m; k++ {
		s.zs[k] = c[s.basis[k]]
	}
	s.applyEtasBTRAN(s.zs)
	s.lu.btran(s.zs, s.y)
}

// btranUnit computes ρ = B⁻ᵀe_r into s.rho (original-row indexed).
func (s *simplex) btranUnit(r int) {
	for k := range s.zs {
		s.zs[k] = 0
	}
	s.zs[r] = 1
	s.applyEtasBTRAN(s.zs)
	s.lu.btran(s.zs, s.rho)
}

// computeXB rebuilds the basic values from the original RHS and the current
// nonbasic point: x_B = B⁻¹(b − Σ_nonbasic a_j·value_j) — one FTRAN.
func (s *simplex) computeXB() {
	copy(s.rhsW, s.rhs0)
	for j := 0; j < s.width; j++ {
		if s.status[j] == statBasic {
			continue
		}
		if v := s.nbVal(j); v != 0 {
			s.colAddInto(j, -v, s.rhsW)
		}
	}
	s.lu.ftran(s.rhsW, s.xB)
	s.applyEtasFTRAN(s.xB)
}

// pivotUpdate makes column enter basic at position r with value enterVal; the
// leaving column takes leaveStat. s.w must hold B⁻¹a_enter (the eta source).
func (s *simplex) pivotUpdate(r, enter int, enterVal float64, leaveStat int8) {
	s.appendEta(r)
	s.status[s.basis[r]] = leaveStat
	s.basis[r] = enter
	s.status[enter] = statBasic
	s.xB[r] = enterVal
}

// price selects the entering column under cost vector c among columns
// < priceLim: Dantzig scores over a rotating partial-pricing window (the
// cursor resumes where the last pick left off; a window that yields no
// candidate extends until one does or the scan wraps, so optimality claims
// are always backed by a full scan). Bland's rule takes over when the
// iteration budget suggests cycling. Returns (-1, 0) at optimality.
func (s *simplex) price(c []float64, priceLim int, bland bool) (int, float64) {
	if priceLim <= 0 {
		return -1, 0
	}
	eligible := func(j int) (float64, bool) {
		st := s.status[j]
		if st != statLower && st != statUpper {
			return 0, false
		}
		d := c[j] - s.colDot(j, s.y)
		if st == statLower && d < -s.eps {
			return 1, true
		}
		if st == statUpper && d > s.eps {
			return -1, true
		}
		return 0, false
	}
	if bland {
		for j := 0; j < priceLim; j++ {
			if dir, ok := eligible(j); ok {
				return j, dir
			}
		}
		return -1, 0
	}
	window := priceLim / 8
	if window < 256 {
		window = 256
	}
	a, y := s.a, s.y
	enter, dir := -1, 1.0
	best := s.eps
	j := s.priceCursor % priceLim
	scanned := 0
	for scanned < priceLim {
		windowEnd := scanned + window
		for ; scanned < windowEnd && scanned < priceLim; scanned++ {
			st := s.status[j]
			if st == statLower || st == statUpper {
				// d_j = c_j − y·a_j, with the column dot inlined — this is
				// the innermost loop of the whole engine.
				d := c[j]
				if j < s.nstruct {
					for t := a.colPtr[j]; t < a.colPtr[j+1]; t++ {
						d -= a.val[t] * y[a.rowIdx[t]]
					}
				} else if j < s.nreal {
					d -= y[s.slackRow[j-s.nstruct]]
				} else {
					k := j - s.nreal
					d -= s.artSign[k] * y[s.artRow[k]]
				}
				var score float64
				var dd float64
				if st == statLower && d < -s.eps {
					score, dd = -d, 1
				} else if st == statUpper && d > s.eps {
					score, dd = d, -1
				}
				if score > best {
					best, enter, dir = score, j, dd
				}
			}
			j++
			if j >= priceLim {
				j = 0
			}
		}
		if enter != -1 {
			break
		}
	}
	s.priceCursor = j
	return enter, dir
}

// primal runs the revised bounded-variable primal simplex to optimality of
// the engine's phase-2 costs; priceLim restricts entering candidates to
// columns < priceLim (phase 2 excludes artificials this way; their bounds are
// also fixed to [0,0]).
func (s *simplex) primal(priceLim int) Status {
	return s.primalCost(s.cost, priceLim)
}

func (s *simplex) primalCost(c []float64, priceLim int) Status {
	blandAfter := s.maxIter / 2
	for ; s.iters < s.maxIter; s.iters++ {
		if s.etaCount() >= refactorEvery {
			if !s.refactor() {
				return IterLimit // numerically singular basis: give up safely
			}
			s.computeXB()
		}
		s.btranCost(c)
		enter, dir := s.price(c, priceLim, s.iters >= blandAfter)
		if enter == -1 {
			return Optimal
		}
		s.ftranColumn(enter)

		// Ratio test: the entering variable moves by t >= 0 in direction dir,
		// limited by its own opposite bound and by basic variables hitting
		// theirs.
		tBound := s.hi[enter] - s.lo[enter] // +inf when unbounded above
		rowT := inf()
		leave, leaveAtUpper := -1, false
		for k := 0; k < s.m; k++ {
			alpha := dir * s.w[k]
			var r float64
			var atUpper bool
			if alpha > s.eps {
				l := s.lo[s.basis[k]]
				if math.IsInf(l, -1) {
					continue
				}
				r = (s.xB[k] - l) / alpha
			} else if alpha < -s.eps {
				u := s.hi[s.basis[k]]
				if math.IsInf(u, 1) {
					continue
				}
				r = (u - s.xB[k]) / -alpha
				atUpper = true
			} else {
				continue
			}
			if r < 0 {
				r = 0 // numerical: basic value marginally out of bounds
			}
			if r < rowT-s.eps || (r <= rowT+s.eps && (leave == -1 || s.basis[k] < s.basis[leave])) {
				if r < rowT {
					rowT = r
				}
				leave = k
				leaveAtUpper = atUpper
			}
		}
		if math.IsInf(tBound, 1) && leave == -1 {
			return Unbounded
		}
		if tBound < rowT {
			// Bound flip: the entering variable traverses to its other bound
			// without any basis change.
			for k := 0; k < s.m; k++ {
				s.xB[k] -= dir * tBound * s.w[k]
			}
			if s.status[enter] == statLower {
				s.status[enter] = statUpper
			} else {
				s.status[enter] = statLower
			}
			continue
		}
		t := rowT
		enterVal := s.nbVal(enter) + dir*t
		for k := 0; k < s.m; k++ {
			if k != leave {
				s.xB[k] -= dir * t * s.w[k]
			}
		}
		leaveStat := statLower
		if leaveAtUpper {
			leaveStat = statUpper
		}
		s.pivotUpdate(leave, enter, enterVal, leaveStat)
	}
	return IterLimit
}

// dual runs the revised dual simplex until primal feasibility is restored
// (returns Optimal), the problem is proven primal-infeasible, or the
// iteration budget runs out. It requires the current point to be dual
// feasible, which holds after any bound change to an optimal basis because
// bounds enter neither the reduced costs nor the factorization.
func (s *simplex) dual(priceLim int) Status {
	for ; s.iters < s.maxIter; s.iters++ {
		if s.etaCount() >= refactorEvery {
			if !s.refactor() {
				return IterLimit
			}
			s.computeXB()
		}
		// Leaving position: largest bound violation among basic variables.
		row := -1
		below := false
		worst := feasTol
		for k := 0; k < s.m; k++ {
			bk := s.basis[k]
			if v := s.lo[bk] - s.xB[k]; v > worst {
				worst = v
				row = k
				below = true
			}
			if v := s.xB[k] - s.hi[bk]; v > worst {
				worst = v
				row = k
				below = false
			}
		}
		if row == -1 {
			return Optimal // primal feasible (and still dual feasible)
		}
		s.btranUnit(row)    // ρ: the leaving row of B⁻¹A, one dot per column
		s.btranCost(s.cost) // y: reduced costs for the dual ratio test
		// Entering column: dual ratio test. Eligibility keeps the step
		// direction consistent with the leaving variable returning to its
		// violated bound; the min |d/alpha| choice keeps dual feasibility.
		enter := -1
		bestRatio := inf()
		for j := 0; j < priceLim; j++ {
			st := s.status[j]
			if st != statLower && st != statUpper {
				continue
			}
			alpha := s.colDot(j, s.rho)
			var ok bool
			if below {
				ok = (st == statLower && alpha < -s.eps) || (st == statUpper && alpha > s.eps)
			} else {
				ok = (st == statLower && alpha > s.eps) || (st == statUpper && alpha < -s.eps)
			}
			if !ok {
				continue
			}
			d := s.cost[j] - s.colDot(j, s.y)
			r := math.Abs(d / alpha)
			if r < bestRatio-s.eps || (r <= bestRatio+s.eps && (enter == -1 || j < enter)) {
				if r < bestRatio {
					bestRatio = r
				}
				enter = j
			}
		}
		if enter == -1 {
			return Infeasible
		}
		var target float64
		var leaveStat int8
		if below {
			target = s.lo[s.basis[row]]
			leaveStat = statLower
		} else {
			target = s.hi[s.basis[row]]
			leaveStat = statUpper
		}
		s.ftranColumn(enter)
		t := (s.xB[row] - target) / s.w[row]
		for k := 0; k < s.m; k++ {
			if k != row {
				s.xB[k] -= t * s.w[k]
			}
		}
		enterVal := s.nbVal(enter) + t
		s.pivotUpdate(row, enter, enterVal, leaveStat)
	}
	return IterLimit
}

// driveOutArtificials pivots zero-valued basic artificials out of the basis
// wherever a usable non-artificial column exists; rows with no such column
// are redundant and keep their artificial basic at zero (its bounds are then
// fixed so it can never move again).
func (s *simplex) driveOutArtificials() {
	for k := 0; k < s.m; k++ {
		if s.basis[k] < s.nreal {
			continue
		}
		s.btranUnit(k)
		for j := 0; j < s.nreal; j++ {
			if s.status[j] != statLower && s.status[j] != statUpper {
				continue
			}
			if math.Abs(s.colDot(j, s.rho)) <= s.eps {
				continue
			}
			// Degenerate pivot: the artificial leaves at 0, the entering
			// column stays at its current bound value.
			s.ftranColumn(j)
			if math.Abs(s.w[k]) <= s.eps {
				continue
			}
			s.pivotUpdate(k, j, s.nbVal(j), statLower)
			break
		}
	}
	// Freeze every artificial column at zero for phase 2 and beyond.
	for j := s.nreal; j < s.width; j++ {
		s.lo[j], s.hi[j] = 0, 0
		s.cost[j] = 0
		if s.status[j] != statBasic {
			s.status[j] = statFixed
		}
	}
}

// solveCold runs the two-phase revised simplex from the crash basis.
func (s *simplex) solveCold() Status {
	if !s.refactor() {
		// The construction basis is triangular by design; a singular factor
		// here means pathological numerics. Fail safely.
		return IterLimit
	}
	if s.width > s.nreal {
		infeasSum := 0.0
		for k := 0; k < s.m; k++ {
			if s.basis[k] >= s.nreal {
				infeasSum += s.xB[k]
			}
		}
		if infeasSum > 0 {
			p1 := s.p1cost[:s.width]
			for j := range p1 {
				p1[j] = 0
			}
			for j := s.nreal; j < s.width; j++ {
				p1[j] = 1
			}
			st := s.primalCost(p1, s.width)
			if st == IterLimit {
				return IterLimit
			}
			if st == Unbounded {
				// Phase-1 objective is bounded below by 0; this means
				// numerical trouble. Report infeasible to stay safe.
				return Infeasible
			}
			sum := 0.0
			for k := 0; k < s.m; k++ {
				if s.basis[k] >= s.nreal {
					sum += s.xB[k]
				}
			}
			if sum > 1e-7 {
				return Infeasible
			}
		}
		s.driveOutArtificials()
	}
	return s.primal(s.nreal)
}

// extract maps the current point back to the Problem's variable space.
func (s *simplex) extract(p *Problem) *Solution {
	x := make([]float64, s.nstruct)
	for j := 0; j < s.nstruct; j++ {
		if s.status[j] != statBasic {
			x[j] = s.nbVal(j)
		}
	}
	for k, bk := range s.basis {
		if bk < s.nstruct {
			x[bk] = s.xB[k]
		}
	}
	obj := 0.0
	for j := 0; j < s.nstruct; j++ {
		obj += s.cost[j] * x[j]
	}
	return &Solution{Objective: obj, X: x, Iters: s.iters}
}

// clone deep-copies the basis headers. The factorization, eta file, and
// scratch are deliberately dropped: every revival path refactorizes from the
// headers, so a clone is a cheap O(m + width) copy — where the dense engine
// had to duplicate its whole m x width tableau per branch-and-bound child.
func (s *simplex) clone() *simplex {
	c := &simplex{
		m: s.m, nstruct: s.nstruct, nreal: s.nreal, width: s.width,
		a: s.a,
		// slackRow must be owned: a recycled engine rebuilds it in place
		// (newSimplex), which would corrupt a sibling clone still holding
		// the shared array.
		slackRow: append([]int32(nil), s.slackRow...),
		artRow:   append([]int32(nil), s.artRow...),
		artSign:  append([]float64(nil), s.artSign...),
		lo:       append([]float64(nil), s.lo...),
		hi:       append([]float64(nil), s.hi...),
		cost:     append([]float64(nil), s.cost...),
		status:   append([]int8(nil), s.status...),
		basis:    append([]int(nil), s.basis...),
		xB:       append([]float64(nil), s.xB...),
		rhs0:     append([]float64(nil), s.rhs0...),
		eps:      s.eps,
		maxIter:  s.maxIter,
		iters:    s.iters,
	}
	return c
}

// warmApply revives a previously optimal engine after the problem's variable
// bounds changed (branch-and-bound's only mutation): verify the objective and
// RHS did not drift, reinstall bounds and normalize nonbasic statuses,
// refactorize from the basis headers, re-solve the basic values, and confirm
// the recomputed reduced costs are still dual feasible. Any doubt — drift, a
// nonbasic column at an infinite bound, a singular basis, lost dual
// feasibility — returns false and the caller solves cold.
func (s *simplex) warmApply(p *Problem) bool {
	objSign := 1.0
	if p.sense == Maximize {
		objSign = -1
	}
	for j := 0; j < s.nstruct; j++ {
		if s.cost[j] != objSign*p.obj[j] {
			return false
		}
	}
	for i := range p.rows {
		if s.rhs0[i] != p.rows[i].RHS {
			return false
		}
	}
	// Identity revival: bounds unchanged too, and the stored factorization is
	// still live (not a clone) — the stored optimal state answers verbatim.
	// The primal-feasibility gate matters: a warm solve that ended Infeasible
	// leaves its (primal-infeasible) end state in the Basis, and reviving
	// that verbatim would report it Optimal.
	if s.lu.ok && s.lu.m == s.m && s.primalFeasible() {
		unchanged := true
		for j := 0; j < s.nstruct; j++ {
			if s.lo[j] != p.lower[j] || s.hi[j] != p.upper[j] {
				unchanged = false
				break
			}
		}
		if unchanged {
			s.clean = true
			s.iters = 0
			return true
		}
	}
	s.clean = false
	if !s.installBounds(p, s.width) {
		return false
	}
	s.ensureScratch()
	// The factorization (plus eta file) is still consistent with the basis
	// headers unless this engine is a clone (clone drops it): revival then
	// needs no refactorization at all, just re-solving the basic values.
	if !s.lu.ok || s.lu.m != s.m {
		if !s.refactor() {
			return false
		}
	}
	s.computeXB()
	// Dual feasibility of the recomputed reduced costs under the (possibly
	// re-opened) statuses — the SolveWarm contract: only bound changes are
	// absorbed; anything that broke dual feasibility forces a cold solve.
	s.btranCost(s.cost)
	for j := 0; j < s.width; j++ {
		st := s.status[j]
		if st != statLower && st != statUpper {
			continue
		}
		d := s.cost[j] - s.colDot(j, s.y)
		if st == statLower && d < -dualTol {
			return false
		}
		if st == statUpper && d > dualTol {
			return false
		}
	}
	s.iters = 0
	return true
}

// installBounds installs p's variable bounds and makes every nonbasic
// column's status (up to limit) consistent with its box: columns whose box
// closed become fixed, previously fixed columns whose box re-opened (a
// sibling branch path, or a pair un-forbidden between rounds) restart at
// their lower bound. Returns false — cold solve — when a nonbasic column
// would sit at an infinite bound.
func (s *simplex) installBounds(p *Problem, limit int) bool {
	copy(s.lo[:s.nstruct], p.lower)
	copy(s.hi[:s.nstruct], p.upper)
	for j := 0; j < limit; j++ {
		st := s.status[j]
		if st == statBasic {
			continue
		}
		if s.lo[j] == s.hi[j] {
			s.status[j] = statFixed
			continue
		}
		if st == statFixed {
			st = statLower
			s.status[j] = st
		}
		if st == statLower && math.IsInf(s.lo[j], -1) {
			return false
		}
		if st == statUpper && math.IsInf(s.hi[j], 1) {
			return false
		}
	}
	return true
}

// solveWarm re-optimizes after warmApply: dual simplex back to primal
// feasibility, then a primal cleanup pass (a no-op when the dual run ends at
// an optimal point, which is the common case).
func (s *simplex) solveWarm() Status {
	if s.clean {
		s.clean = false
		return Optimal
	}
	st := s.dual(s.nreal)
	if st != Optimal {
		return st
	}
	return s.primal(s.nreal)
}

// repriceBase revives a previously optimal engine for a problem whose
// constraint RHS and variable bounds changed since the basis was stored — the
// first stage of the cross-round re-pricing warm start. The revised engine
// needs no transformed-RHS bookkeeping: the new RHS is installed directly and
// the basic values re-solved through the refactorized basis (x_B = B⁻¹(b −
// N·x_N)), which also makes EQ-row RHS changes revivable — the dense tableau
// had to fall back cold on those. It returns false — leaving the caller to
// solve cold — on a structural mismatch, a nonbasic column parked at an
// infinite bound, or a singular stored basis.
func (s *simplex) repriceBase(p *Problem) bool {
	nSlack := 0
	for _, r := range p.rows {
		if r.Op != EQ {
			nSlack++
		}
	}
	if s.nreal != s.nstruct+nSlack {
		return false
	}
	for i := range p.rows {
		s.rhs0[i] = p.rows[i].RHS
	}
	if !s.installBounds(p, s.nreal) {
		return false
	}
	s.ensureScratch()
	if !s.lu.ok || s.lu.m != s.m {
		if !s.refactor() {
			return false
		}
	}
	s.computeXB()
	s.clean = false
	s.iters = 0
	return true
}

// primalFeasible reports whether every basic value sits within its column's
// bounds (to feasTol).
func (s *simplex) primalFeasible() bool {
	for k := 0; k < s.m; k++ {
		bk := s.basis[k]
		if s.xB[k] < s.lo[bk]-feasTol || s.xB[k] > s.hi[bk]+feasTol {
			return false
		}
	}
	return true
}

// repriceCost installs p's (possibly changed) objective into the engine — the
// second stage of the re-pricing warm start, run once the revived point is
// primal feasible. Reduced costs need no eager recompute: the revised primal
// re-prices from the cost vector every iteration.
func (s *simplex) repriceCost(p *Problem) {
	objSign := 1.0
	if p.sense == Maximize {
		objSign = -1
	}
	for j := 0; j < s.nstruct; j++ {
		s.cost[j] = objSign * p.obj[j]
	}
}
