// Fuzz harness for the parallel MILP solver: derive a small random model
// from the fuzz input, solve it with the exact sequential algorithm
// (Workers=1) and with a worker pool (Workers=4), and require both to
// agree on status and — when an optimum is proven — on the objective.
// This is the randomized counterpart of internal/milp's equivalence
// suite, meant to run continuously:
//
//	go test -run '^$' -fuzz FuzzMILPParallel -fuzztime 30s .
//
// (make fuzz-smoke wires the same smoke run into the verify loop.)
package columbas

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"columbas/internal/milp"
)

// fuzzModel deterministically derives a small MILP from the seed: up to
// 5 binaries, up to 2 bounded continuous variables, up to 4 rows, and an
// optional marked disjunction — the constraint shapes of the paper's
// physical-synthesis models.
func fuzzModel(seed int64) func() *milp.Model {
	return func() *milp.Model {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(5)
		nc := rng.Intn(3)
		nr := 1 + rng.Intn(4)
		m := milp.NewModel()
		var bs, cs []milp.VarID
		for i := 0; i < nb; i++ {
			bs = append(bs, m.Binary("b"))
		}
		for i := 0; i < nc; i++ {
			cs = append(cs, m.Var("x", 0, float64(1+rng.Intn(5))))
		}
		for r := 0; r < nr; r++ {
			e := milp.NewExpr()
			for _, b := range bs {
				e.Add(b, float64(rng.Intn(7)-3))
			}
			for _, c := range cs {
				e.Add(c, float64(rng.Intn(5)-2))
			}
			rhs := float64(rng.Intn(9) - 3)
			switch rng.Intn(3) {
			case 0:
				m.AddGE(e, rhs)
			case 1:
				m.AddLE(e, rhs)
			default:
				// Loose two-sided band keeps EQ rows satisfiable often
				// enough to exercise the feasible paths too.
				m.AddLE(e, rhs+4)
				m.AddGE(e, rhs-4)
			}
		}
		if nb >= 2 && rng.Intn(3) == 0 {
			m.MarkDisjunction([]milp.VarID{bs[0], bs[1]})
		}
		obj := milp.NewExpr()
		for _, b := range bs {
			obj.Add(b, float64(rng.Intn(11)-5))
		}
		for _, c := range cs {
			obj.Add(c, float64(rng.Intn(7)-3)/2)
		}
		m.Minimize(obj)
		return m
	}
}

func FuzzMILPParallel(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, -99, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		build := fuzzModel(seed)
		// A safety-net time limit only: these models solve in well under a
		// millisecond, and a limit that actually fired would surface as a
		// status mismatch below.
		const budget = 30 * time.Second
		seq, err := build().Solve(milp.Options{Workers: 1, TimeLimit: budget})
		if err != nil {
			t.Fatalf("seed %d sequential: %v", seed, err)
		}
		par, err := build().Solve(milp.Options{Workers: 4, TimeLimit: budget})
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if seq.Status != par.Status {
			t.Fatalf("seed %d: sequential %v vs parallel %v", seed, seq.Status, par.Status)
		}
		// Warm-start conservation: every LP solve is either a basis
		// re-entry or a cold solve, whatever the scheduling.
		for _, r := range []*milp.Result{seq, par} {
			st := r.Stats
			if st.LPSolves != st.WarmStarts+st.ColdSolves {
				t.Fatalf("seed %d workers=%d: LPSolves %d != WarmStarts %d + ColdSolves %d",
					seed, st.Workers, st.LPSolves, st.WarmStarts, st.ColdSolves)
			}
			if st.SimplexPivots != st.WarmPivots+st.ColdPivots {
				t.Fatalf("seed %d workers=%d: SimplexPivots %d != WarmPivots %d + ColdPivots %d",
					seed, st.Workers, st.SimplexPivots, st.WarmPivots, st.ColdPivots)
			}
		}
		// The warm kernel must also agree with the cold-only ablation.
		cold, err := build().Solve(milp.Options{Workers: 1, TimeLimit: budget, NoWarmStart: true})
		if err != nil {
			t.Fatalf("seed %d cold: %v", seed, err)
		}
		if seq.Status != cold.Status {
			t.Fatalf("seed %d: warm %v vs cold %v", seed, seq.Status, cold.Status)
		}
		if seq.Status == milp.Optimal && math.Abs(seq.Obj-cold.Obj) > 1e-6 {
			t.Fatalf("seed %d: warm obj %v vs cold obj %v", seed, seq.Obj, cold.Obj)
		}
		if seq.Status == milp.Optimal {
			if math.Abs(seq.Obj-par.Obj) > 1e-6 {
				t.Fatalf("seed %d: sequential obj %v vs parallel obj %v", seed, seq.Obj, par.Obj)
			}
			// Whatever assignment the pool returned must be feasible on a
			// fresh model at the reported objective.
			if r, err := build().Solve(milp.Options{Start: par.X, NodeLimit: 1}); err != nil {
				t.Fatalf("seed %d revalidate: %v", seed, err)
			} else if r.Obj > par.Obj+1e-6 {
				t.Fatalf("seed %d: parallel assignment rejected as incumbent (%v vs %v)", seed, r.Obj, par.Obj)
			}
		}
	})
}
