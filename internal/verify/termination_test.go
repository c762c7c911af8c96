package verify

import (
	"strings"
	"testing"

	"dbspinner/internal/converge"
	"dbspinner/internal/core"
)

// unknownQuery rewrites to an Unknown termination verdict: a Data
// condition nothing forces the CTE to satisfy.
const unknownQuery = `WITH ITERATIVE c (i) AS (
	SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL ANY (i >= 4)
) SELECT i FROM c`

func rewriteQuery(t *testing.T, sql string) (*core.Program, *core.LoopState) {
	t.Helper()
	stmt := parseStmt(t, sql)
	prog, err := core.Rewrite(stmt, newRT(t), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prog.Steps {
		if l, ok := s.(*core.LoopStep); ok {
			return prog, l.Loop
		}
	}
	t.Fatal("rewritten program has no loop step")
	return nil, nil
}

func classDiags(diags []Diagnostic, class string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Class == class {
			out = append(out, d)
		}
	}
	return out
}

func TestHonestUnknownVerdictWithGuardVerifiesClean(t *testing.T) {
	prog, loop := rewriteQuery(t, unknownQuery)
	if loop.Cap <= 0 {
		t.Fatal("rewrite did not install a cap on the Unknown loop")
	}
	stmt := parseStmt(t, unknownQuery)
	if diags := Check(prog, stmt); len(diags) != 0 {
		t.Fatalf("honest Unknown program rejected: %v", diags)
	}
}

func TestFabricatedVerdictFailsClosed(t *testing.T) {
	prog, _ := rewriteQuery(t, unknownQuery)
	if len(prog.Verdicts) != 1 || prog.Verdicts[0].Kind != converge.Unknown {
		t.Fatalf("expected one Unknown verdict, got %+v", prog.Verdicts)
	}
	// A planner bug (or a tampered plan cache) claims the loop provably
	// terminates. The re-derivation must not believe it.
	prog.Verdicts[0].Kind = converge.Terminates
	prog.Verdicts[0].Diags = nil

	diags := classDiags(Check(prog, parseStmt(t, unknownQuery)), ClassUnsoundTermination)
	if len(diags) != 1 {
		t.Fatalf("fabricated Terminates verdict not rejected: %v", diags)
	}
	if !strings.Contains(diags[0].Message, "Terminates") || !strings.Contains(diags[0].Message, "Unknown") {
		t.Errorf("diagnostic should name both the claim and the re-derived verdict: %s", diags[0].Message)
	}
}

func TestFabricatedConvergesClaimFailsClosed(t *testing.T) {
	prog, _ := rewriteQuery(t, unknownQuery)
	prog.Verdicts[0].Kind = converge.Converges
	diags := classDiags(Check(prog, parseStmt(t, unknownQuery)), ClassUnsoundTermination)
	if len(diags) != 1 {
		t.Fatalf("fabricated Converges verdict not rejected: %v", diags)
	}
}

func TestTighterThanProvableBoundFailsClosed(t *testing.T) {
	const sql = `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 5 ITERATIONS) SELECT i FROM c`
	prog, _ := rewriteQuery(t, sql)
	if prog.Verdicts[0].Kind != converge.Terminates || prog.Verdicts[0].Bound != 5 {
		t.Fatalf("expected Terminates(5), got %+v", prog.Verdicts[0])
	}
	prog.Verdicts[0].Bound = 3 // tighter than the provable 5
	diags := classDiags(Check(prog, parseStmt(t, sql)), ClassUnsoundTermination)
	if len(diags) != 1 {
		t.Fatalf("fabricated tighter bound not rejected: %v", diags)
	}
	if !strings.Contains(diags[0].Message, "bound 3") {
		t.Errorf("diagnostic should cite the claimed bound: %s", diags[0].Message)
	}
}

func TestStrippedGuardFailsClosed(t *testing.T) {
	prog, loop := rewriteQuery(t, unknownQuery)
	loop.Cap = 0 // an optimizer pass "lost" the guard
	diags := classDiags(Check(prog, parseStmt(t, unknownQuery)), ClassMissingGuard)
	if len(diags) != 1 {
		t.Fatalf("guardless Unknown loop not rejected: %v", diags)
	}
	if !strings.Contains(diags[0].Message, "no iteration-cap guard") {
		t.Errorf("unexpected diagnostic wording: %s", diags[0].Message)
	}
}

func TestProvedLoopNeedsNoGuard(t *testing.T) {
	const sql = `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 5 ITERATIONS) SELECT i FROM c`
	prog, loop := rewriteQuery(t, sql)
	if loop.Cap != 0 {
		t.Fatalf("provably terminating loop should carry no cap, has %d", loop.Cap)
	}
	if diags := Check(prog, parseStmt(t, sql)); len(diags) != 0 {
		t.Fatalf("proved loop without guard rejected: %v", diags)
	}
}

func TestNilStatementSkipsTerminationCheck(t *testing.T) {
	prog, _ := rewriteQuery(t, unknownQuery)
	prog.Verdicts[0].Kind = converge.Terminates // would fail with the stmt
	if diags := Check(prog, nil); len(diags) != 0 {
		t.Fatalf("nil-stmt check should skip termination re-derivation: %v", diags)
	}
}

// TestRecursiveLoopNeedsItsGuard: a recursive CTE's step program verifies
// clean with the cap the rewrite installs — its merge publishes Delta#r
// to a plain materialization, which is a consumer — and fails closed
// without the cap, since recursion has no termination proof.
func TestRecursiveLoopNeedsItsGuard(t *testing.T) {
	const sql = `WITH RECURSIVE r (n) AS (
		SELECT 1 UNION SELECT n + 1 FROM r WHERE n < 4
	) SELECT n FROM r`
	prog, loop := rewriteQuery(t, sql)
	stmt := parseStmt(t, sql)
	if diags := Check(prog, stmt); len(diags) != 0 {
		t.Fatalf("recursive program rejected: %v", diags)
	}
	loop.Cap = 0
	if got := classDiags(Check(prog, stmt), ClassMissingGuard); len(got) != 1 || !strings.Contains(got[0].Message, "recursive CTE r") {
		t.Errorf("a recursive loop without its cap must be diagnosed, got %v", got)
	}
}
