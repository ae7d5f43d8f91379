package lp

import "fmt"

// Kernel selects the basis-factorization engine behind a Problem's
// solves. The sparse kernel factorizes the basis into sparse LU factors
// (Markowitz-style pivoting, product-form updates) and answers
// FTRAN/BTRAN solves against the factors, so the per-iteration cost is
// O(nnz) rather than O(m²); it is the production engine. The dense
// kernel keeps an explicit row-major B⁻¹ and updates it in place per
// pivot; it remains only as the reference engine of the drift and
// agreement tests. See DESIGN.md, "Sparse kernel".
type Kernel int

// Kernel modes.
const (
	// KernelAuto is the zero value and means the sparse LU engine.
	KernelAuto Kernel = iota
	// KernelDense forces the explicit-inverse reference engine.
	KernelDense
	// KernelSparse forces the sparse LU engine.
	KernelSparse
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelDense:
		return "dense"
	case KernelSparse:
		return "sparse"
	}
	return "unknown"
}

// ParseKernel parses a -kernel flag value. The empty string means auto;
// anything else must be one of auto, dense, sparse.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "dense":
		return KernelDense, nil
	case "sparse":
		return KernelSparse, nil
	}
	return KernelAuto, fmt.Errorf("unknown kernel %q (want auto, dense or sparse)", s)
}

// SetKernel selects the factorization engine for this problem's solves.
// Clones inherit the setting. The zero value KernelAuto runs the sparse
// LU engine.
func (p *Problem) SetKernel(k Kernel) { p.kernel = k }

// KernelMode returns the problem's configured kernel selection mode.
func (p *Problem) KernelMode() Kernel { return p.kernel }
