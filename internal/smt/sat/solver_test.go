package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lits(xs ...int) []Lit {
	out := make([]Lit, len(xs))
	for i, x := range xs {
		if x > 0 {
			out[i] = MkLit(Var(x-1), false)
		} else {
			out[i] = MkLit(Var(-x-1), true)
		}
	}
	return out
}

// newSolverWithVars allocates n variables.
func newSolverWithVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func TestLitEncoding(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.Neg() {
		t.Error("positive literal wrong")
	}
	nl := l.Not()
	if nl.Var() != 3 || !nl.Neg() {
		t.Error("negation wrong")
	}
	if nl.Not() != l {
		t.Error("double negation wrong")
	}
	if l.String() != "4" || nl.String() != "-4" {
		t.Errorf("String: %s %s", l, nl)
	}
}

func TestTrivialSat(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(lits(1, 2)...)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if !s.ValueLit(lits(1)[0]) && !s.ValueLit(lits(2)[0]) {
		t.Error("model does not satisfy clause")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(lits(1)...)
	if ok := s.AddClause(lits(-1)...); ok {
		t.Fatal("contradictory unit should report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	s := newSolverWithVars(5)
	s.AddClause(lits(1)...)
	s.AddClause(lits(-1, 2)...)
	s.AddClause(lits(-2, 3)...)
	s.AddClause(lits(-3, 4)...)
	s.AddClause(lits(-4, 5)...)
	if s.Solve() != Sat {
		t.Fatal("chain should be sat")
	}
	for v := Var(0); v < 5; v++ {
		if !s.Value(v) {
			t.Errorf("var %d should be true", v+1)
		}
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := newSolverWithVars(1)
	if s.AddClause() {
		t.Fatal("empty clause should fail")
	}
	if s.Solve() != Unsat {
		t.Fatal("want unsat")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := newSolverWithVars(2)
	if !s.AddClause(lits(1, -1)...) {
		t.Fatal("tautology should succeed")
	}
	s.AddClause(lits(-2)...)
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
}

// pigeonhole encodes n+1 pigeons into n holes (classically unsat and
// requires real conflict analysis to finish quickly).
func pigeonhole(n int) *Solver {
	s := New()
	// vars[p][h]: pigeon p in hole h.
	vars := make([][]Var, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]Var, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		clause := make([]Lit, n)
		for h := 0; h < n; h++ {
			clause[h] = MkLit(vars[p][h], false)
		}
		s.AddClause(clause...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := pigeonhole(n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d) = %v, want unsat", n, got)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (possible).
	s := New()
	const n, k = 5, 3
	vars := make([][]Var, n)
	for i := range vars {
		vars[i] = make([]Var, k)
		for j := range vars[i] {
			vars[i][j] = s.NewVar()
		}
	}
	for i := 0; i < n; i++ {
		cl := make([]Lit, k)
		for j := 0; j < k; j++ {
			cl[j] = MkLit(vars[i][j], false)
		}
		s.AddClause(cl...)
		for j := 0; j < k; j++ {
			next := (i + 1) % n
			s.AddClause(MkLit(vars[i][j], true), MkLit(vars[next][j], true))
		}
	}
	if s.Solve() != Sat {
		t.Fatal("5-cycle should be 3-colorable")
	}
	// Model check: adjacent vertices differ.
	color := make([]int, n)
	for i := 0; i < n; i++ {
		color[i] = -1
		for j := 0; j < k; j++ {
			if s.Value(vars[i][j]) {
				color[i] = j
				break
			}
		}
		if color[i] == -1 {
			t.Fatalf("vertex %d uncolored", i)
		}
	}
	for i := 0; i < n; i++ {
		if color[i] == color[(i+1)%n] {
			t.Fatalf("adjacent vertices share color %d", color[i])
		}
	}
}

func TestAssumptionsSatAndUnsat(t *testing.T) {
	s := newSolverWithVars(3)
	s.AddClause(lits(-1, 2)...)
	s.AddClause(lits(-2, 3)...)
	if s.Solve(lits(1)...) != Sat {
		t.Fatal("assuming x1 should be sat")
	}
	if !s.Value(2) {
		t.Error("x3 should be true under x1")
	}
	if s.Solve(lits(1, -3)...) != Unsat {
		t.Fatal("assuming x1 and !x3 should be unsat")
	}
	// Solver remains usable.
	if s.Solve(lits(-1)...) != Sat {
		t.Fatal("assuming !x1 should be sat")
	}
	if s.Solve() != Sat {
		t.Fatal("no assumptions should be sat")
	}
}

func TestUnsatCoreSubset(t *testing.T) {
	s := newSolverWithVars(4)
	s.AddClause(lits(-1, -2)...) // a1 ∧ a2 conflict
	// a3, a4 unrelated.
	asm := lits(1, 2, 3, 4)
	if s.Solve(asm...) != Unsat {
		t.Fatal("want unsat")
	}
	core := s.UnsatCore()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("core size %d, want 1-2: %v", len(core), core)
	}
	inCore := map[Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	if inCore[lits(3)[0]] || inCore[lits(4)[0]] {
		t.Errorf("irrelevant assumptions in core: %v", core)
	}
	// The core must itself be unsat.
	if s.Solve(core...) != Unsat {
		t.Error("core is not unsat")
	}
}

func TestUnsatCoreFromPropagatedConflict(t *testing.T) {
	s := newSolverWithVars(5)
	s.AddClause(lits(-1, 2)...)
	s.AddClause(lits(-2, 3)...)
	s.AddClause(lits(-4, -3)...) // x4 → !x3
	if s.Solve(lits(1, 4, 5)...) != Unsat {
		t.Fatal("want unsat")
	}
	core := s.UnsatCore()
	inCore := map[Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	if inCore[lits(5)[0]] {
		t.Errorf("x5 should not be in core: %v", core)
	}
	if s.Solve(core...) != Unsat {
		t.Error("core is not unsat")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(lits(1, 2)...)
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	s.AddClause(lits(-1)...)
	s.AddClause(lits(-2)...)
	if s.Solve() != Unsat {
		t.Fatal("want unsat after added clauses")
	}
}

// dpll is a tiny reference solver for differential testing.
func dpll(clauses [][]Lit, nvars int) bool {
	assign := make([]lbool, nvars)
	var rec func() bool
	rec = func() bool {
		// Find unit or unassigned.
		for {
			unitFound := false
			for _, c := range clauses {
				sat := false
				unassigned := -1
				count := 0
				for _, l := range c {
					switch assign[l.Var()] {
					case lUndef:
						count++
						unassigned = int(l.Var())
					case lTrue:
						if !l.Neg() {
							sat = true
						}
					case lFalse:
						if l.Neg() {
							sat = true
						}
					}
					if sat {
						break
					}
				}
				if sat {
					continue
				}
				if count == 0 {
					return false
				}
				if count == 1 {
					// Set the unit literal.
					for _, l := range c {
						if int(l.Var()) == unassigned {
							if l.Neg() {
								assign[l.Var()] = lFalse
							} else {
								assign[l.Var()] = lTrue
							}
						}
					}
					unitFound = true
				}
			}
			if !unitFound {
				break
			}
		}
		// Pick a variable.
		pick := -1
		for v := 0; v < nvars; v++ {
			if assign[v] == lUndef {
				pick = v
				break
			}
		}
		if pick == -1 {
			// Verify all clauses.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if (assign[l.Var()] == lTrue) != l.Neg() {
						sat = true
						break
					}
				}
				if !sat {
					return false
				}
			}
			return true
		}
		saved := append([]lbool(nil), assign...)
		assign[pick] = lTrue
		if rec() {
			return true
		}
		copy(assign, saved)
		assign[pick] = lFalse
		if rec() {
			return true
		}
		copy(assign, saved)
		return false
	}
	return rec()
}

// Property: CDCL agrees with reference DPLL on random 3-SAT instances.
func TestDifferentialRandom3SAT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nvars := 5 + r.Intn(8)
		nclauses := 10 + r.Intn(40)
		var clauses [][]Lit
		s := newSolverWithVars(nvars)
		ok := true
		for i := 0; i < nclauses; i++ {
			var c []Lit
			for j := 0; j < 3; j++ {
				v := Var(r.Intn(nvars))
				c = append(c, MkLit(v, r.Intn(2) == 0))
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
			}
		}
		want := dpll(clauses, nvars)
		var got bool
		if !ok {
			got = false
		} else {
			got = s.Solve() == Sat
		}
		if got != want {
			t.Logf("seed %d: cdcl=%v dpll=%v", seed, got, want)
			return false
		}
		if got {
			// Model must satisfy all clauses.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.ValueLit(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Logf("seed %d: model violates clause", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: solving under assumptions equals solving with the assumptions
// added as unit clauses.
func TestDifferentialAssumptions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nvars := 4 + r.Intn(6)
		nclauses := 8 + r.Intn(25)
		var clauses [][]Lit
		for i := 0; i < nclauses; i++ {
			var c []Lit
			for j := 0; j < 3; j++ {
				c = append(c, MkLit(Var(r.Intn(nvars)), r.Intn(2) == 0))
			}
			clauses = append(clauses, c)
		}
		nasm := 1 + r.Intn(3)
		var asm []Lit
		for i := 0; i < nasm; i++ {
			asm = append(asm, MkLit(Var(r.Intn(nvars)), r.Intn(2) == 0))
		}

		s1 := newSolverWithVars(nvars)
		ok1 := true
		for _, c := range clauses {
			if !s1.AddClause(c...) {
				ok1 = false
			}
		}
		var got1 Status
		if !ok1 {
			got1 = Unsat
		} else {
			got1 = s1.Solve(asm...)
		}

		s2 := newSolverWithVars(nvars)
		ok2 := true
		for _, c := range clauses {
			if !s2.AddClause(c...) {
				ok2 = false
			}
		}
		for _, a := range asm {
			if !s2.AddClause(a) {
				ok2 = false
			}
		}
		var got2 Status
		if !ok2 {
			got2 = Unsat
		} else {
			got2 = s2.Solve()
		}
		return got1 == got2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolverReusableAfterManySolves(t *testing.T) {
	s := newSolverWithVars(10)
	for i := 0; i < 9; i++ {
		s.AddClause(MkLit(Var(i), true), MkLit(Var(i+1), false))
	}
	for iter := 0; iter < 50; iter++ {
		asm := MkLit(Var(iter%10), iter%2 == 0)
		if s.Solve(asm) != Sat {
			t.Fatalf("iter %d: want sat", iter)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestBinaryClausesBypassArena(t *testing.T) {
	s := newSolverWithVars(4)
	s.AddClause(lits(1, 2)...)
	s.AddClause(lits(-2, 3)...)
	s.AddClause(lits(-3, 4)...)
	if len(s.arena) != 0 || len(s.clauses) != 0 {
		t.Fatalf("binary clauses must not enter the arena (arena=%d words, %d clauses)",
			len(s.arena), len(s.clauses))
	}
	if s.Solve(lits(-1)...) != Sat {
		t.Fatal("want sat")
	}
	if s.BinaryProps == 0 {
		t.Error("binary propagation counter should advance")
	}
	for _, l := range lits(2, 3, 4) {
		if !s.ValueLit(l) {
			t.Errorf("%v should be forced by the binary chain", l)
		}
	}
}

func TestClauseHeaderRoundTrip(t *testing.T) {
	s := newSolverWithVars(6)
	ref := s.newClause(lits(1, 2, 3, 4), true, 7)
	if got := len(s.lits(ref)); got != 4 {
		t.Errorf("size = %d, want 4", got)
	}
	if got := s.clauseLBD(ref); got != 7 {
		t.Errorf("lbd = %d, want 7", got)
	}
	s.setClauseLBD(ref, hdrLBDMax+100)
	if got := s.clauseLBD(ref); got != hdrLBDMax {
		t.Errorf("lbd should saturate at %d, got %d", hdrLBDMax, got)
	}
	if got := len(s.lits(ref)); got != 4 {
		t.Errorf("size clobbered by setClauseLBD: %d", got)
	}
	s.setClauseAct(ref, 3.5)
	if got := s.clauseAct(ref); got != 3.5 {
		t.Errorf("activity = %v, want 3.5", got)
	}
	s.markDeleted(ref)
	if !s.deleted(ref) {
		t.Error("clause should be flagged deleted")
	}
	if s.wasted != 6 { // header + activity + 4 literals
		t.Errorf("wasted = %d words, want 6", s.wasted)
	}
}

func TestArenaGCCompactsAndPreservesAnswers(t *testing.T) {
	s := pigeonhole(6)
	s.SetMaxLearned(10)
	s.SetGCWasteFraction(0.05)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(6) = %v, want unsat", got)
	}
	if s.DBReductions == 0 {
		t.Error("tiny maxLearned should force reductions")
	}
	if s.ArenaGCs == 0 {
		t.Error("aggressive waste fraction should force arena GCs")
	}
	if s.wasted != 0 {
		// GC may legitimately leave waste below threshold, but the final
		// reduceDB triggers maybeGC at 5%; anything left must be small.
		if float64(s.wasted) >= 0.05*float64(len(s.arena)) {
			t.Errorf("wasted %d of %d words after GC", s.wasted, len(s.arena))
		}
	}
}

func TestRephaseFromModel(t *testing.T) {
	s := newSolverWithVars(6)
	s.AddClause(lits(1, 2, 3)...)
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	want := make([]bool, 6)
	for v := Var(0); v < 6; v++ {
		want[v] = s.Value(v)
	}
	s.RephaseFromModel()
	for v := Var(0); v < 6; v++ {
		if s.phase[v] != want[v] {
			t.Errorf("phase[%d] = %v, want model value %v", v, s.phase[v], want[v])
		}
	}
}

func TestSetPhaseSteersFirstModel(t *testing.T) {
	s := newSolverWithVars(6)
	// Unconstrained variables default to false; seed them true.
	for v := Var(0); v < 6; v++ {
		s.SetPhase(v, true)
	}
	if s.Solve() != Sat {
		t.Fatal("want sat")
	}
	for v := Var(0); v < 6; v++ {
		if !s.Value(v) {
			t.Errorf("var %d should follow the seeded phase", v+1)
		}
	}
}

func TestOkayFlag(t *testing.T) {
	s := newSolverWithVars(1)
	if !s.Okay() {
		t.Error("fresh solver should be okay")
	}
	s.AddClause(lits(1)...)
	s.AddClause(lits(-1)...)
	if s.Okay() {
		t.Error("contradiction should clear okay")
	}
	if s.Solve() != Unsat {
		t.Error("not-okay solver must report unsat")
	}
}

func TestLevelZeroConflictPoisonsPermanently(t *testing.T) {
	// Regression for the incremental-reuse bug: a conflict at decision
	// level 0 must make every subsequent Solve return Unsat.
	s := newSolverWithVars(3)
	s.AddClause(lits(1, 2)...)
	s.AddClause(lits(1, -2)...)
	s.AddClause(lits(-1, 2)...)
	s.AddClause(lits(-1, -2)...)
	if s.Solve() != Unsat {
		t.Fatal("formula is unsat")
	}
	for i := 0; i < 3; i++ {
		if s.Solve(lits(3)...) != Unsat {
			t.Fatal("unsat formula must stay unsat under assumptions")
		}
		if s.Solve() != Unsat {
			t.Fatal("unsat formula must stay unsat")
		}
	}
}

func TestDuplicateAssumptionsExceedVarCount(t *testing.T) {
	// Regression: every assumption opens a decision level — even a
	// duplicate of one already on the trail (an empty level, kept for the
	// level↔assumption correspondence) — so the level count can exceed
	// the variable count. The per-level LBD stamp array is sized per
	// variable and used to index by level directly, which panicked here.
	// Weighted MaxSAT hits this for real: SolveWeighted expands weights
	// by duplicating soft literals, and warmStart assumes them all.
	s := pigeonhole(3)
	free := s.NewVar()
	asm := make([]Lit, 0, 40)
	for i := 0; i < 40; i++ {
		asm = append(asm, MkLit(free, false))
	}
	if got := s.Solve(asm...); got != Unsat {
		t.Fatalf("PHP(3) under duplicated free assumptions = %v, want unsat", got)
	}
}

func TestStatsAdvance(t *testing.T) {
	s := pigeonhole(4)
	s.Solve()
	if s.Conflicts == 0 || s.Decisions == 0 || s.Propagations == 0 {
		t.Errorf("stats should advance: conflicts=%d decisions=%d props=%d",
			s.Conflicts, s.Decisions, s.Propagations)
	}
}

func TestBudgetReturnsUnknown(t *testing.T) {
	s := pigeonhole(9)
	s.Budget = 5
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted solve = %v, want unknown", got)
	}
}
