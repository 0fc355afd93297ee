package lp

// csc is the constraint matrix of a Problem in compressed sparse column
// form: column j's entries are rowIdx/val[colPtr[j]:colPtr[j+1]], sorted by
// row with duplicates summed and exact zeros dropped. The revised simplex
// engine prices, FTRANs, and factorizes straight off this structure, so
// every per-pivot cost tracks the matrix's nonzero count instead of m·n.
//
// A csc is immutable once built: Problem caches one per constraint shape
// (AddConstraint invalidates, SetRHS/SetBounds/SetObjective do not — they
// touch vectors, not the matrix), and clones, branch-and-bound nodes, and
// Basis snapshots all share the same instance.
type csc struct {
	m      int // rows
	n      int // columns (the Problem's structural variables)
	colPtr []int32
	rowIdx []int32
	val    []float64
}

// nnzCol returns the entry count of column j.
func (a *csc) nnzCol(j int) int { return int(a.colPtr[j+1] - a.colPtr[j]) }

// buildCSC compresses the row-wise constraint list into column form.
func buildCSC(nvars int, rows []Constraint) *csc {
	nnz := 0
	for _, r := range rows {
		nnz += len(r.Terms)
	}
	a := &csc{
		m:      len(rows),
		n:      nvars,
		colPtr: make([]int32, nvars+1),
		rowIdx: make([]int32, nnz),
		val:    make([]float64, nnz),
	}
	for _, r := range rows {
		for _, t := range r.Terms {
			a.colPtr[t.Var+1]++
		}
	}
	for j := 0; j < nvars; j++ {
		a.colPtr[j+1] += a.colPtr[j]
	}
	fill := make([]int32, nvars)
	copy(fill, a.colPtr[:nvars])
	for i, r := range rows {
		for _, t := range r.Terms {
			k := fill[t.Var]
			a.rowIdx[k] = int32(i)
			a.val[k] = t.Coef
			fill[t.Var]++
		}
	}
	// Per column: sort by row, merge duplicates, drop exact zeros.
	out := int32(0)
	start := int32(0)
	for j := 0; j < nvars; j++ {
		end := a.colPtr[j+1]
		if end-start > 1 {
			// Insertion sort by row: columns are short (a handful of rows
			// reference each variable), and this allocates nothing.
			idx := a.rowIdx[start:end]
			vals := a.val[start:end]
			for i := 1; i < len(idx); i++ {
				ri, vi := idx[i], vals[i]
				k := i - 1
				for k >= 0 && idx[k] > ri {
					idx[k+1], vals[k+1] = idx[k], vals[k]
					k--
				}
				idx[k+1], vals[k+1] = ri, vi
			}
		}
		colOut := out
		for k := start; k < end; k++ {
			if out > colOut && a.rowIdx[out-1] == a.rowIdx[k] {
				a.val[out-1] += a.val[k]
				continue
			}
			a.rowIdx[out] = a.rowIdx[k]
			a.val[out] = a.val[k]
			out++
		}
		// Drop entries that cancelled to exactly zero.
		w := colOut
		for k := colOut; k < out; k++ {
			if a.val[k] == 0 {
				continue
			}
			a.rowIdx[w] = a.rowIdx[k]
			a.val[w] = a.val[k]
			w++
		}
		out = w
		start = end
		a.colPtr[j+1] = out
	}
	a.rowIdx = a.rowIdx[:out]
	a.val = a.val[:out]
	return a
}
