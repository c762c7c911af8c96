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
	// PR: 1 init materialize + 10 iterations x 1 body materialize = 11.
	stmt, _ := parser.Parse(strings.Replace(prQuery, "UNTIL 2 ITERATIONS", "UNTIL 10 ITERATIONS", 1))
	opts := DefaultOptions()
	opts.Baseline = OptCommonResults
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.CostEstimate(); got != 11 {
		t.Errorf("PR cost = %v, want 11", got)
	}
	// SSSP (merge path): init + 10 x (materialize + merge) = 21.
	stmt, _ = parser.Parse(strings.Replace(ssspQuery, "UNTIL 5 ITERATIONS", "UNTIL 10 ITERATIONS", 1))
	prog, err = Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.CostEstimate(); got != 21 {
		t.Errorf("SSSP cost = %v, want 21", got)
	}
	// PR-VS with its common block: init + common = 2 paid once, then 3
	// iterations of materialize + merge = 6, so 8; the common block is
	// paid once, which is the point of the Figure 9 optimization.
	stmt, _ = parser.Parse(prVSQuery)
	prog, err = Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.CostEstimate(); got != 8 {
		t.Errorf("PR-VS cost = %v, want 8", got)
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
