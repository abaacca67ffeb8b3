package maxsat

import (
	"context"
	"testing"
	"time"

	"repro/internal/smt/sat"
)

// TestSolveCtxCancelled cancels a MaxSAT solve over a hard hard-clause
// set and checks the driver unwinds with Unknown instead of finishing.
func TestSolveCtxCancelled(t *testing.T) {
	s := sat.New()
	// PHP(9, 8) as hard clauses: unsatisfiable and slow, so the driver's
	// first SAT call is where cancellation lands.
	const holes = 8
	vars := make([][]sat.Var, holes+1)
	for p := range vars {
		vars[p] = make([]sat.Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= holes; p++ {
		lits := make([]sat.Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = sat.MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 <= holes; p1++ {
			for p2 := p1 + 1; p2 <= holes; p2++ {
				s.AddClause(sat.MkLit(vars[p1][h], true), sat.MkLit(vars[p2][h], true))
			}
		}
	}
	softs := []sat.Lit{sat.MkLit(vars[0][0], false)}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	res := SolveCtx(ctx, s, softs, LinearDescent)
	if res.Status != sat.Unknown {
		t.Fatalf("status = %v, want unknown", res.Status)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("cancelled solve took %v", d)
	}
	if !s.Interrupted() {
		t.Error("solver not marked interrupted")
	}
}

// TestSolveCtxBackground checks the context path leaves normal solves
// untouched.
func TestSolveCtxBackground(t *testing.T) {
	s := sat.New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(sat.MkLit(a, false), sat.MkLit(b, false))
	softs := []sat.Lit{sat.MkLit(a, true), sat.MkLit(b, true)}
	res := SolveCtx(context.Background(), s, softs, LinearDescent)
	if res.Status != sat.Sat || res.Cost != 1 {
		t.Fatalf("res = %+v, want sat cost 1", res)
	}
}
