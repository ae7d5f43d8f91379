// Package lp implements a linear-programming solver: a revised,
// bounded-variable, two-phase primal simplex method on a sparse LU
// basis factorization.
//
// Columba S solves its physical-synthesis models with a commercial MILP
// solver (Gurobi). This reproduction has no solver dependency, so lp —
// together with the branch-and-bound driver in internal/milp — stands in
// for it. The solver handles the model class the paper needs: minimisation
// of a linear objective over continuous variables with individual bounds
// (possibly infinite) and ≤ / ≥ / = row constraints, including the big-M
// disjunctions of constraints (3)–(11).
//
// The implementation is a textbook revised simplex with bound-flip ratio
// tests, Dantzig pricing with a Bland's-rule fallback for anti-cycling,
// and a slack crash start: a cold solve puts each row whose own slack
// absorbs the start residual on that slack, and gives only the violated
// rows a phase-1 artificial. The basis is held as sparse LU
// factors with product-form (eta) updates, refactorized every 512
// updates — and, on the one-shot Solve path, as soon as the eta file
// holds more nonzeros than the factors — and cached across warm-started
// solves. It is intended for the model sizes
// Columba S produces
// (tens of rectangles, hundreds to a few thousand rows), not for
// general-purpose large-scale LP.
//
// Key types: Problem accumulates variables and rows and Solve returns a
// Solution with Status; Clone supports the concurrent branch-and-bound
// workers, and SolveCount/PivotCount expose the effort counters behind
// the milp.SearchStats LP totals.
package lp
