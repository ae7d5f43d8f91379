package lp

import "math"

// Sparse LU basis engine (see DESIGN.md, "Sparse kernel"). The basis
// matrix B is factorized into P·B·Q = L·U by a left-looking
// Gilbert–Peierls elimination: columns are processed in ascending
// nonzero-count order (the static Markowitz proxy), each column is
// sparse-triangular-solved against the L built so far (symbolic reach by
// depth-first search, numeric update in topological order), and the
// pivot row is chosen among the eligible rows within luTau of the
// column's largest entry, breaking ties toward the sparsest original
// row. Factors live in flat grow-only arenas inside the Workspace; a
// from-scratch factorization allocates nothing once the arenas reached
// their high-water capacity.
//
// Between refactorizations, pivots append product-form eta columns to an
// eta file instead of touching the factors, so B⁻¹ is represented as
// E_k⁻¹…E_1⁻¹·(LU)⁻¹ and both FTRAN (w = B⁻¹a) and BTRAN (y = B⁻ᵀc)
// stay O(nnz). A refactorization flushes the eta file: the counted one
// (refactorEvery) on every path, and on the one-shot Solve path also
// the one triggered once the eta file holds more nonzeros than the
// factors (etaNonzeros vs factorNonzeros). The cross-solve
// factorization cache keeps the factors-plus-eta-file pair from one
// solve to the next.
//
// Fill-in is not capped: a basis that wants a near-dense factorization
// completes on the grow-only arenas, whose worst case, O(m²), is the
// memory an explicit inverse would need.

const (
	// luTau is the threshold-pivoting relaxation: any row whose column
	// entry is within luTau of the largest magnitude is pivot-eligible,
	// and the sparsest such row wins (stability vs fill-in trade).
	luTau = 0.1
	// luSingTol: a column whose largest eligible entry is below this is
	// declared numerically singular.
	luSingTol = 1e-9
)

// sparseLU holds the factors, the eta file and every scratch vector the
// sparse engine needs. All slices are grow-only workspace arenas.
type sparseLU struct {
	m int

	pivRow   []int32 // elimination step k → original row pivoted at k
	pivCol   []int32 // elimination step k → basis position eliminated at k
	posOfRow []int32 // original row → elimination step (−1 while unpivoted)

	// L: unit lower triangular, stored as per-step elimination columns
	// (off-diagonal entries only, row-indexed).
	lPtr []int32
	lIdx []int32
	lVal []float64
	// U: per-step columns; uIdx holds earlier elimination steps t < k,
	// the diagonal lives in uDiag.
	uPtr  []int32
	uIdx  []int32
	uVal  []float64
	uDiag []float64

	// Product-form eta file: eta e replaced basis position etaPos[e] with
	// the direction column w (diagonal w_r in etaDiag, off-pivot entries
	// position-indexed in etaIdx/etaVal).
	etaPtr  []int32
	etaPos  []int32
	etaDiag []float64
	etaIdx  []int32
	etaVal  []float64

	// Scratch.
	xw     []float64 // dense numeric accumulator, zero outside live patterns
	vw     []float64 // per-step solve values
	cw     []float64 // position-space BTRAN input
	pat    []int32   // symbolic reach, topological order
	stack  []int32   // DFS node stack
	iter   []int32   // DFS per-depth child cursor
	flag   []int32   // DFS visited marks, generation-counted
	gen    int32
	cnt    []int32 // per-column nonzero counts
	bkt    []int32 // counting-sort buckets
	ord    []int32 // column elimination order
	rowCnt []int32 // static row nonzero counts of B (Markowitz tie-break)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ensure sizes every fixed-width buffer for an m-row basis; append-grown
// arenas keep their capacity.
func (f *sparseLU) ensure(m int) {
	f.m = m
	f.pivRow = growI32(f.pivRow, m)
	f.pivCol = growI32(f.pivCol, m)
	f.posOfRow = growI32(f.posOfRow, m)
	f.lPtr = growI32(f.lPtr, m+1)
	f.uPtr = growI32(f.uPtr, m+1)
	f.uDiag = growF(f.uDiag, m)
	f.xw = growF(f.xw, m)
	f.vw = growF(f.vw, m)
	f.cw = growF(f.cw, m)
	f.pat = growI32(f.pat, m)
	f.stack = growI32(f.stack, m)
	f.iter = growI32(f.iter, m)
	if cap(f.flag) < m {
		f.flag = make([]int32, m)
		f.gen = 0
	} else {
		f.flag = f.flag[:m]
	}
	f.cnt = growI32(f.cnt, m)
	f.bkt = growI32(f.bkt, m+2)
	f.ord = growI32(f.ord, m)
	f.rowCnt = growI32(f.rowCnt, m)
	// xw needs no clearing: a fresh allocation is zeroed by make, and
	// every factorize pass restores zeros before returning (including the
	// singular abort path), so the zero-outside-live-pattern
	// invariant holds across ensure calls of any size.
}

// resetEtas empties the eta file (every refactorization starts clean).
func (f *sparseLU) resetEtas() {
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.etaPos = f.etaPos[:0]
	f.etaDiag = f.etaDiag[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
}

// setIdentity installs the trivial factorization of a diagonal basis
// (the cold start's slack crash basis): L empty, U diagonal 1 — the
// caller overwrites the uDiag entries of rows that start on a
// sign-flipped artificial with −1.
func (f *sparseLU) setIdentity(m int) {
	f.ensure(m)
	f.resetEtas()
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	f.uIdx = f.uIdx[:0]
	f.uVal = f.uVal[:0]
	for k := 0; k < m; k++ {
		f.pivRow[k] = int32(k)
		f.pivCol[k] = int32(k)
		f.posOfRow[k] = int32(k)
		f.uDiag[k] = 1
		f.lPtr[k+1] = 0
		f.uPtr[k+1] = 0
	}
	f.lPtr[0], f.uPtr[0] = 0, 0
}

// factorize computes the LU factors of the basis matrix whose column j
// is cols[basis[j]]. Returns whether B is nonsingular, plus nnz(B) and
// the fill-in (factor nonzeros beyond nnz(B)) for the observability
// counters. When ok is false the factors are unusable and must not be
// solved against.
func (f *sparseLU) factorize(basis []int, cols [][]Term, m int) (ok bool, bNnz, fill int) {
	f.ensure(m)
	f.resetEtas()
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	f.uIdx = f.uIdx[:0]
	f.uVal = f.uVal[:0]
	f.lPtr[0], f.uPtr[0] = 0, 0
	for i := 0; i < m; i++ {
		f.posOfRow[i] = -1
		f.rowCnt[i] = 0
	}
	for j := 0; j < m; j++ {
		c := cols[basis[j]]
		f.cnt[j] = int32(len(c))
		bNnz += len(c)
		for _, tm := range c {
			f.rowCnt[tm.Var]++
		}
	}
	// Column order: ascending nonzero count, stable (counting sort).
	bkt := f.bkt[:m+2]
	for i := range bkt {
		bkt[i] = 0
	}
	for j := 0; j < m; j++ {
		bkt[f.cnt[j]]++
	}
	start := int32(0)
	for b := 0; b <= m; b++ {
		c := bkt[b]
		bkt[b] = start
		start += c
	}
	for j := 0; j < m; j++ {
		f.ord[bkt[f.cnt[j]]] = int32(j)
		bkt[f.cnt[j]]++
	}

	for k := 0; k < m; k++ {
		j := int(f.ord[k])
		col := cols[basis[j]]
		// Symbolic: reach of the column's rows through the pivoted part of
		// L, collected in topological order into pat[top:m].
		f.gen++
		top := m
		for _, tm := range col {
			r0 := int32(tm.Var)
			if f.flag[r0] == f.gen {
				continue
			}
			depth := 0
			f.stack[0] = r0
			for depth >= 0 {
				node := f.stack[depth]
				if f.flag[node] != f.gen {
					f.flag[node] = f.gen
					if t := f.posOfRow[node]; t >= 0 {
						f.iter[depth] = f.lPtr[t]
					} else {
						f.iter[depth] = -1
					}
				}
				descended := false
				if it := f.iter[depth]; it >= 0 {
					end := f.lPtr[f.posOfRow[node]+1]
					for it < end {
						child := f.lIdx[it]
						it++
						if f.flag[child] != f.gen {
							f.iter[depth] = it
							depth++
							f.stack[depth] = child
							descended = true
							break
						}
					}
					if !descended {
						f.iter[depth] = it
					}
				}
				if descended {
					continue
				}
				top--
				f.pat[top] = node
				depth--
			}
		}
		// Numeric: scatter the column, then eliminate in topological order.
		for _, tm := range col {
			f.xw[tm.Var] = tm.Coef
		}
		for q := top; q < m; q++ {
			node := f.pat[q]
			t := f.posOfRow[node]
			if t < 0 {
				continue
			}
			xr := f.xw[node]
			if xr == 0 {
				continue
			}
			for e := f.lPtr[t]; e < f.lPtr[t+1]; e++ {
				f.xw[f.lIdx[e]] -= f.lVal[e] * xr
			}
		}
		// Threshold pivot choice among the unpivoted rows.
		amax := 0.0
		for q := top; q < m; q++ {
			node := f.pat[q]
			if f.posOfRow[node] >= 0 {
				continue
			}
			if a := math.Abs(f.xw[node]); a > amax {
				amax = a
			}
		}
		if amax <= luSingTol {
			for q := top; q < m; q++ {
				f.xw[f.pat[q]] = 0
			}
			return false, bNnz, 0
		}
		pr := int32(-1)
		prCnt := int32(math.MaxInt32)
		thresh := luTau * amax
		for q := top; q < m; q++ {
			node := f.pat[q]
			if f.posOfRow[node] >= 0 {
				continue
			}
			if math.Abs(f.xw[node]) < thresh {
				continue
			}
			if c := f.rowCnt[node]; pr < 0 || c < prCnt || (c == prCnt && node < pr) {
				pr, prCnt = node, c
			}
		}
		piv := f.xw[pr]
		// Emit the U column (pivoted rows) and L column (the rest).
		for q := top; q < m; q++ {
			node := f.pat[q]
			x := f.xw[node]
			f.xw[node] = 0
			if node == pr || x == 0 {
				continue
			}
			if t := f.posOfRow[node]; t >= 0 {
				f.uIdx = append(f.uIdx, t)
				f.uVal = append(f.uVal, x)
			} else {
				f.lIdx = append(f.lIdx, node)
				f.lVal = append(f.lVal, x/piv)
			}
		}
		f.uDiag[k] = piv
		f.pivRow[k] = pr
		f.pivCol[k] = int32(j)
		f.posOfRow[pr] = int32(k)
		f.lPtr[k+1] = int32(len(f.lIdx))
		f.uPtr[k+1] = int32(len(f.uIdx))
	}
	fill = len(f.lIdx) + len(f.uIdx) + m - bNnz
	if fill < 0 {
		fill = 0
	}
	return true, bNnz, fill
}

// ftran solves B·w = z in place: z enters row-indexed and leaves as the
// basis-position-indexed solution w = B⁻¹·z.
func (f *sparseLU) ftran(z []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		zk := z[f.pivRow[k]]
		if zk == 0 {
			continue
		}
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			z[f.lIdx[e]] -= f.lVal[e] * zk
		}
	}
	v := f.vw
	for k := m - 1; k >= 0; k-- {
		xk := z[f.pivRow[k]] / f.uDiag[k]
		v[k] = xk
		if xk == 0 {
			continue
		}
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			z[f.pivRow[f.uIdx[e]]] -= f.uVal[e] * xk
		}
	}
	for k := 0; k < m; k++ {
		z[f.pivCol[k]] = v[k]
	}
	// Eta file, chronological: B = B₀·E₁…E_k ⇒ B⁻¹ = E_k⁻¹…E₁⁻¹·B₀⁻¹.
	for e := 0; e < len(f.etaPos); e++ {
		r := f.etaPos[e]
		zr := z[r]
		if zr == 0 {
			continue
		}
		pr := zr / f.etaDiag[e]
		z[r] = pr
		for q := f.etaPtr[e]; q < f.etaPtr[e+1]; q++ {
			z[f.etaIdx[q]] -= f.etaVal[q] * pr
		}
	}
}

// btran solves Bᵀ·y = c: c is basis-position-indexed and consumed as
// scratch; y receives the row-indexed result y = c·B⁻¹. c and y must be
// distinct slices.
func (f *sparseLU) btran(c, y []float64) {
	m := f.m
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		r := f.etaPos[e]
		s := c[r]
		for q := f.etaPtr[e]; q < f.etaPtr[e+1]; q++ {
			s -= f.etaVal[q] * c[f.etaIdx[q]]
		}
		c[r] = s / f.etaDiag[e]
	}
	v := f.vw
	for k := 0; k < m; k++ {
		s := c[f.pivCol[k]]
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			s -= f.uVal[e] * v[f.uIdx[e]]
		}
		v[k] = s / f.uDiag[k]
	}
	for k := 0; k < m; k++ {
		y[f.pivRow[k]] = v[k]
	}
	for k := m - 1; k >= 0; k-- {
		lo, hi := f.lPtr[k], f.lPtr[k+1]
		if lo == hi {
			continue
		}
		s := y[f.pivRow[k]]
		for e := lo; e < hi; e++ {
			s -= f.lVal[e] * y[f.lIdx[e]]
		}
		y[f.pivRow[k]] = s
	}
}

// appendEta records the pivot that replaced basis position r with the
// direction column w (w = B⁻¹·A_enter, position-indexed): the
// product-form update of the basis representation.
func (f *sparseLU) appendEta(r int, w []float64) {
	f.etaPos = append(f.etaPos, int32(r))
	f.etaDiag = append(f.etaDiag, w[r])
	for i, wi := range w[:f.m] {
		if wi != 0 && i != r {
			f.etaIdx = append(f.etaIdx, int32(i))
			f.etaVal = append(f.etaVal, wi)
		}
	}
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
}

// factorNonzeros returns nnz(L)+nnz(U) including the unit/diagonal
// entries — the resident size of the current factors.
func (f *sparseLU) factorNonzeros() int {
	return len(f.lIdx) + len(f.uIdx) + 2*f.m
}

// etaNonzeros returns the nonzeros of the eta file, pivot entries
// included — what every FTRAN and BTRAN sweeps on top of the factors.
func (f *sparseLU) etaNonzeros() int {
	return len(f.etaIdx) + len(f.etaPos)
}
