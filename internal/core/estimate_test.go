package core

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
)

func TestEstimateIterations(t *testing.T) {
	cases := []struct {
		term    ast.Termination
		n       int64
		exact   bool
		bounded bool
	}{
		{ast.Termination{Type: ast.TermMetadata, N: 25}, 25, true, false},
		{ast.Termination{Type: ast.TermMetadata, N: 100, CountUpdates: true}, 100, false, true},
		{ast.Termination{Type: ast.TermData, Any: true}, DefaultDataIterations, false, false},
		{ast.Termination{Type: ast.TermDelta, N: 1}, DefaultDataIterations, false, false},
	}
	for _, c := range cases {
		got := EstimateIterations(c.term)
		if got.N != c.n || got.Exact != c.exact || got.Bounded != c.bounded {
			t.Errorf("EstimateIterations(%v) = %+v", c.term, got)
		}
	}
}

func TestEstimateString(t *testing.T) {
	if s := (IterationEstimate{N: 5, Exact: true}).String(); s != "5 (exact)" {
		t.Errorf("exact = %q", s)
	}
	if s := (IterationEstimate{N: 9, Bounded: true}).String(); s != "<= 9 (update bound)" {
		t.Errorf("bounded = %q", s)
	}
	if s := (IterationEstimate{N: 10}).String(); s != "~10 (data-dependent default)" {
		t.Errorf("default = %q", s)
	}
}

func TestCostEstimate(t *testing.T) {
	rt := newRT(t)
	// Plain PR without maintenance: 1 init materialize + 10 iterations
	// x 1 body materialize = 11.
	stmt, _ := parser.Parse(strings.Replace(prQuery, "UNTIL 2 ITERATIONS", "UNTIL 10 ITERATIONS", 1))
	opts := DefaultOptions()
	opts.Baseline = OptCommonResults | OptIncremental
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.CostEstimate(); got != 11 {
		t.Errorf("PR cost = %v, want 11", got)
	}
	// With incremental evaluation (the default), the body
	// materialization is charged 1 + 9*0.5 = 5.5 instead of 10:
	// init + 5.5 = 6.5.
	iopts := opts
	iopts.Baseline = OptCommonResults
	prog, err = Rewrite(stmt.(*ast.SelectStmt), rt, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.hasRestrictedStep() {
		t.Fatal("expected a restricted step in the default PR program")
	}
	if got := prog.CostEstimate(); got != 6.5 {
		t.Errorf("PR maintained cost = %v, want 6.5", got)
	}
	// SSSP (merge path) without maintenance: init + 10 x (materialize +
	// merge) = 21.
	stmt, _ = parser.Parse(strings.Replace(ssspQuery, "UNTIL 5 ITERATIONS", "UNTIL 10 ITERATIONS", 1))
	prog, err = Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.CostEstimate(); got != 21 {
		t.Errorf("SSSP cost = %v, want 21", got)
	}
	// PR-VS with common block and the delta step: init + common = 2 paid
	// once, then 3 iterations of restricted body (1 + 2*0.5 = 2) plus
	// merges (3) = 7; the common block is paid once, which is the point
	// of the Figure 9 optimization.
	stmt, _ = parser.Parse(prVSQuery)
	prog, err = Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.CostEstimate(); got != 7 {
		t.Errorf("PR-VS cost = %v, want 7", got)
	}
	// SSSP with the delta step: the body materialize becomes a
	// DeltaMaterializeStep charged 1 + 9*0.5 = 5.5 instead of 10, so
	// 1 + 5.5 + 10 = 16.5 — the estimate reflects the frontier
	// restriction instead of charging a full Ri scan every iteration.
	stmt, _ = parser.Parse(strings.Replace(ssspQuery, "UNTIL 5 ITERATIONS", "UNTIL 10 ITERATIONS", 1))
	prog, err = Rewrite(stmt.(*ast.SelectStmt), rt, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if !hasDeltaStep(prog) {
		t.Fatal("expected a DeltaMaterializeStep in the default SSSP program")
	}
	if got := prog.CostEstimate(); got != 16.5 {
		t.Errorf("SSSP delta cost = %v, want 16.5", got)
	}
}

func TestExplainIncludesEstimate(t *testing.T) {
	rt := newRT(t)
	stmt, _ := parser.Parse(prQuery)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	if !strings.Contains(out, "Estimated iterations: 2 (exact)") {
		t.Errorf("explain missing estimate:\n%s", out)
	}
	if !strings.Contains(out, "estimated cost:") {
		t.Errorf("explain missing cost:\n%s", out)
	}
}
