// Package lp implements a linear-programming solver: a revised,
// bounded-variable simplex method — dual, then primal — on a sparse LU
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
// and a dual start: a cold solve puts every row on its own slack and
// every costed column on the bound its cost sign asks for, a basis that
// is dual feasible, so the dual simplex repairs the violated rows and
// the primal then confirms or improves the optimum — there is no phase 1
// and no artificial column. The dual keeps its reduced costs across
// pivots instead of re-pricing. The basis is held as sparse LU factors
// with product-form (eta) updates, refactorized as soon as the eta file
// holds more nonzeros than the factors and at the latest every 512
// updates, and cached across warm-started solves. The solves of each
// pivot are hypersparse: the entering column's FTRAN, the leaving row's
// BTRAN and the pivot row, gathered row-wise, visit only what their
// right-hand side reaches, and compute bit for bit what the dense loops
// would. It is intended for
// the model sizes Columba S produces (tens of rectangles, hundreds to a
// few thousand rows), not for general-purpose large-scale LP.
//
// Key types: Problem accumulates variables and rows and Solve returns a
// Solution with Status; Clone supports the concurrent branch-and-bound
// workers, and SolveCount/PivotCount expose the effort counters behind
// the milp.SearchStats LP totals.
package lp
