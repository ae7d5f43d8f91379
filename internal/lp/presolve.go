package lp

import "math"

// Presolve: affine-substitution reduction. The physical-synthesis models
// are dominated by two-term equality rows — x_r = x_l + w (constraint 1),
// attachment glue (x_f = x_block), control-rect bindings — so eliminating
// one variable per such row roughly halves the working problem the
// simplex pivots over.
//
// The reduction maintains a union-find over variables where every member
// is an affine function of its root: x_v = K·x_root + C. Two-term
// equality rows merge classes, one-term equality rows fix roots; bounds
// and costs map onto the roots, and the reduced solution maps back.

type psClass struct {
	parent int
	k, c   float64 // x_this = k · x_parent + c
}

type presolved struct {
	classes []psClass
	fixed   []bool    // indexed by root
	value   []float64 // value of fixed roots
	prob    *Problem  // reduced problem
	rootOf  []int     // original root var -> reduced var (-1 otherwise)
	infeas  bool
}

const psTol = 1e-9

// find resolves v to (root, K, C) with x_v = K·x_root + C, compressing
// paths.
func (ps *presolved) find(v int) (int, float64, float64) {
	cl := ps.classes[v]
	if cl.parent == v {
		return v, 1, 0
	}
	r, k, c := ps.find(cl.parent)
	nk, nc := cl.k*k, cl.k*c+cl.c
	ps.classes[v] = psClass{parent: r, k: nk, c: nc}
	return r, nk, nc
}

// presolve builds the reduced problem, or returns nil when no reduction
// applies.
func (p *Problem) presolve() *presolved {
	n := len(p.cost)
	ps := &presolved{
		classes: make([]psClass, n),
		fixed:   make([]bool, n),
		value:   make([]float64, n),
	}
	for i := range ps.classes {
		ps.classes[i] = psClass{parent: i, k: 1}
	}
	for v := 0; v < n; v++ {
		if p.lo[v] == p.hi[v] {
			ps.fixed[v] = true
			ps.value[v] = p.lo[v]
		}
	}

	// resolveRow folds a row through the current classes: surviving
	// root terms plus an adjusted rhs.
	type rt struct {
		root int
		coef float64
	}
	resolveRow := func(r rowDef) ([]rt, float64) {
		var terms []rt
		rhs := r.rhs
		for _, t := range r.terms {
			root, k, c := ps.find(t.Var)
			if ps.fixed[root] {
				rhs -= t.Coef * (k*ps.value[root] + c)
				continue
			}
			rhs -= t.Coef * c
			coef := t.Coef * k
			merged := false
			for i := range terms {
				if terms[i].root == root {
					terms[i].coef += coef
					merged = true
					break
				}
			}
			if !merged {
				terms = append(terms, rt{root, coef})
			}
		}
		out := terms[:0]
		for _, t := range terms {
			if math.Abs(t.coef) > psTol {
				out = append(out, t)
			}
		}
		return out, rhs
	}

	subsumed := make([]bool, len(p.rows))
	reductions := 0
	for ri, r := range p.rows {
		if r.sense != EQ {
			continue
		}
		terms, rhs := resolveRow(r)
		switch len(terms) {
		case 0:
			if math.Abs(rhs) > 1e-6 {
				ps.infeas = true
				return ps
			}
			subsumed[ri] = true
			reductions++
		case 1:
			root := terms[0].root
			ps.fixed[root] = true
			ps.value[root] = rhs / terms[0].coef
			subsumed[ri] = true
			reductions++
		case 2:
			// a·x + b·y = rhs  ->  x = (-b/a)·y + rhs/a.
			a, b := terms[0], terms[1]
			ps.classes[a.root] = psClass{parent: b.root, k: -b.coef / a.coef, c: rhs / a.coef}
			subsumed[ri] = true
			reductions++
		}
	}
	if reductions == 0 {
		return nil
	}

	// Verify fixed classes against every member's bounds, and intersect
	// member bounds / accumulate costs onto live roots.
	lo := make([]float64, n)
	hi := make([]float64, n)
	cost := make([]float64, n)
	for i := range lo {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	for v := 0; v < n; v++ {
		root, k, c := ps.find(v)
		if ps.fixed[root] {
			val := k*ps.value[root] + c
			if val < p.lo[v]-1e-6 || val > p.hi[v]+1e-6 {
				ps.infeas = true
				return ps
			}
			continue
		}
		lv, hv := p.lo[v], p.hi[v]
		var rl, rh float64
		if k > 0 {
			rl, rh = (lv-c)/k, (hv-c)/k
		} else {
			rl, rh = (hv-c)/k, (lv-c)/k
		}
		lo[root] = math.Max(lo[root], rl)
		hi[root] = math.Min(hi[root], rh)
		cost[root] += p.cost[v] * k
	}

	ps.prob = NewProblem()
	ps.prob.deadline = p.deadline
	ps.prob.interrupt = p.interrupt
	ps.rootOf = make([]int, n)
	for i := range ps.rootOf {
		ps.rootOf[i] = -1
	}
	for v := 0; v < n; v++ {
		root, _, _ := ps.find(v)
		if root != v || ps.fixed[root] {
			continue
		}
		if lo[root] > hi[root]+1e-6 {
			ps.infeas = true
			return ps
		}
		// Guard against inverted-by-noise bounds.
		l, h := lo[root], hi[root]
		if l > h {
			l = (l + h) / 2
			h = l
		}
		ps.rootOf[root] = ps.prob.AddVar(l, h, cost[root])
	}

	// Rewrite surviving rows over the reduced variables.
	for ri, r := range p.rows {
		if subsumed[ri] {
			continue
		}
		terms, rhs := resolveRow(r)
		if len(terms) == 0 {
			sat := true
			switch r.sense {
			case LE:
				sat = rhs >= -1e-6
			case GE:
				sat = rhs <= 1e-6
			case EQ:
				sat = math.Abs(rhs) <= 1e-6
			}
			if !sat {
				ps.infeas = true
				return ps
			}
			continue
		}
		out := make([]Term, 0, len(terms))
		for _, t := range terms {
			out = append(out, Term{Var: ps.rootOf[t.root], Coef: t.coef})
		}
		ps.prob.AddConstraint(out, r.sense, rhs)
	}
	return ps
}

// expand maps a reduced solution back to the original variable space.
func (ps *presolved) expand(x []float64, n int) []float64 {
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		root, k, c := ps.find(v)
		var rv float64
		if ps.fixed[root] {
			rv = ps.value[root]
		} else if ps.rootOf[root] >= 0 {
			rv = x[ps.rootOf[root]]
		}
		out[v] = k*rv + c
	}
	return out
}
