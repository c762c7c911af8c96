package verify

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
	"dbspinner/internal/plan"
)

// ---------------------------------------------------------------------
// Incremental evaluation: licensed programs pass, seeded mutants trip
// unsound-agg-claim and stale-accumulator.
// ---------------------------------------------------------------------

// prAggSQL is a PageRank-shaped query on the rename path: licensed, so
// the rewrite installs the maintenance step.
const prAggSQL = `WITH ITERATIVE pr (node, rank, delta) AS (
  SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE SELECT pr.node, pr.rank + pr.delta, 0.85 * SUM(n.delta * e.weight)
  FROM pr LEFT JOIN edges AS e ON pr.node = e.dst
    LEFT JOIN pr AS n ON n.node = e.src
  GROUP BY pr.node, pr.rank + pr.delta
 UNTIL 3 ITERATIONS) SELECT node, rank FROM pr`

// ssspAggSQL is an SSSP-shaped query whose WHERE clause sends it down
// the merge path: licensed, so the rewrite installs the delta step.
const ssspAggSQL = `WITH ITERATIVE s (node, dist, delta) AS (
  SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END
   FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE SELECT s.node, LEAST(s.dist, s.delta), COALESCE(MIN(n.delta + e.weight), 9999999)
  FROM s LEFT JOIN edges AS e ON s.node = e.dst
    LEFT JOIN s AS n ON n.node = e.src
  WHERE n.delta != 9999999
  GROUP BY s.node, LEAST(s.dist, s.delta)
 UNTIL 3 ITERATIONS) SELECT node, dist FROM s`

// rewriteAgg rewrites sql under the default options and returns the
// program, the statement, and the index of the restricted step the
// rewrite installed (maintenance for prAggSQL, delta for ssspAggSQL).
func rewriteAgg(t *testing.T, sql string) (*core.Program, *ast.SelectStmt, int) {
	t.Helper()
	rt := newRT(t)
	stmt := parseStmt(t, sql)
	prog, err := core.Rewrite(stmt, rt, core.DefaultOptions())
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	for i, s := range prog.Steps {
		switch s.(type) {
		case *core.MaintainAggStep, *core.DeltaMaterializeStep:
			return prog, stmt, i
		}
	}
	t.Fatalf("no restricted step in the rewritten program:\n%s", prog.Explain())
	return nil, nil, 0
}

func TestLicensedMaintainProgramsVerifyClean(t *testing.T) {
	for name, sql := range map[string]string{"PR": prAggSQL, "SSSP": ssspAggSQL} {
		t.Run(name, func(t *testing.T) {
			prog, stmt, _ := rewriteAgg(t, sql)
			if diags := Check(prog, stmt); len(diags) != 0 {
				t.Errorf("licensed program rejected: %v", diags)
			}
		})
	}
}

// TestRejectsUnsoundAggClaims seeds mutants of the licensing record:
// each must trip unsound-agg-claim, because the verifier re-derives
// the license itself instead of trusting the claim.
func TestRejectsUnsoundAggClaims(t *testing.T) {
	t.Run("installed step without a licensed claim", func(t *testing.T) {
		prog, stmt, _ := rewriteAgg(t, prAggSQL)
		for i := range prog.AggClaims {
			prog.AggClaims[i].Verdict.Licensed = false
		}
		assertDiag(t, Check(prog, stmt), ClassUnsoundAggClaim, "without a licensed incremental claim")
	})
	t.Run("licensed claim with no statement to re-prove against", func(t *testing.T) {
		prog, _, _ := rewriteAgg(t, prAggSQL)
		assertDiag(t, Check(prog, nil), ClassUnsoundAggClaim, "no original statement")
	})
	t.Run("statement with unstable group keys", func(t *testing.T) {
		// The program claims a licensed PR, but the statement under
		// verification groups without the outer key: the independent
		// re-derivation must refuse the claim.
		prog, _, _ := rewriteAgg(t, prAggSQL)
		bad := parseStmt(t, strings.Replace(prAggSQL,
			"GROUP BY pr.node, pr.rank + pr.delta",
			"GROUP BY pr.rank + pr.delta", 1))
		assertDiag(t, Check(prog, bad), ClassUnsoundAggClaim, "fails the independent re-derivation")
	})
	t.Run("statement with an unrouted inner reference", func(t *testing.T) {
		prog, _, _ := rewriteAgg(t, prAggSQL)
		bad := parseStmt(t, strings.Replace(prAggSQL,
			"ON n.node = e.src",
			"ON n.delta = e.weight", 1))
		assertDiag(t, Check(prog, bad), ClassUnsoundAggClaim, "fails the independent re-derivation")
	})
	t.Run("statement whose aggregate the claim does not cover", func(t *testing.T) {
		prog, _, _ := rewriteAgg(t, ssspAggSQL)
		// Claim says MIN; statement computes MAX (the re-derivation
		// itself succeeds: the license does not depend on the function).
		bad := parseStmt(t, strings.ReplaceAll(ssspAggSQL, "MIN(", "MAX("))
		assertDiag(t, Check(prog, bad), ClassUnsoundAggClaim, "which the re-derivation does not find")
	})
}

// TestRejectsStaleAccumulatorWiring seeds structural mutants of the
// rewritten program: each must trip stale-accumulator.
func TestRejectsStaleAccumulatorWiring(t *testing.T) {
	t.Run("CTE published before the maintenance diffs it", func(t *testing.T) {
		prog, stmt, i := rewriteAgg(t, prAggSQL)
		// Swap the maintain step with the rename that follows it: the
		// body then re-points the CTE name before the diff runs, so the
		// frontier is always empty.
		prog.Steps[i], prog.Steps[i+1] = prog.Steps[i+1], prog.Steps[i]
		assertDiag(t, Check(prog, stmt), ClassStaleAccumulator, "before the aggregate maintenance diffs it")
	})
	t.Run("maintenance outside every loop body", func(t *testing.T) {
		prog, stmt, i := rewriteAgg(t, prAggSQL)
		for _, s := range prog.Steps {
			if l, ok := s.(*core.LoopStep); ok && l.BodyStart == i {
				l.BodyStart = i + 1
			}
		}
		assertDiag(t, Check(prog, stmt), ClassStaleAccumulator, "outside every loop body")
	})
	// insertAfterRename puts st into the body right after the rename that
	// publishes the maintenance step's output.
	insertAfterRename := func(prog *core.Program, i int, st core.Step) {
		rest := append([]core.Step{st}, prog.Steps[i+2:]...)
		prog.Steps = append(prog.Steps[:i+2:i+2], rest...)
	}
	t.Run("CTE freed inside the loop body", func(t *testing.T) {
		prog, stmt, i := rewriteAgg(t, prAggSQL)
		ma := prog.Steps[i].(*core.MaintainAggStep)
		// Drop the CTE right after the rename, still inside the body:
		// the next iteration would have nothing to serve cached groups
		// from.
		insertAfterRename(prog, i, &core.TruncateStep{Name: ma.CTE})
		assertDiag(t, Check(prog, stmt), ClassStaleAccumulator, "frees "+ma.CTE)
	})
	t.Run("CTE written again after the rename", func(t *testing.T) {
		prog, stmt, i := rewriteAgg(t, prAggSQL)
		ma := prog.Steps[i].(*core.MaintainAggStep)
		// A second writer of the CTE inside the body: the next iteration
		// would serve its rows as groups the maintenance computed.
		insertAfterRename(prog, i, &core.MaterializeStep{Into: ma.CTE, Plan: ma.Plan})
		assertDiag(t, Check(prog, stmt), ClassStaleAccumulator, "also writes "+ma.CTE)
	})
	t.Run("output not renamed into the CTE", func(t *testing.T) {
		prog, stmt, i := rewriteAgg(t, prAggSQL)
		ma := prog.Steps[i].(*core.MaintainAggStep)
		prog.Steps[i+1] = &core.TruncateStep{Name: ma.Into}
		assertDiag(t, Check(prog, stmt), ClassStaleAccumulator, "no rename or copy-back")
	})
}

// TestRejectsMisreadFrontier seeds the two ways Ri can misread the
// frontier into each incremental step's rewritten program. Never read:
// the outer reference reads the CTE again, so the step re-derives every
// key while the splice or the merge keeps rows nothing re-validated.
// Read twice: the inner reference reads it too, so an aggregate over
// neighbours sees only the affected ones.
func TestRejectsMisreadFrontier(t *testing.T) {
	for _, c := range []struct{ name, sql, class string }{
		{"maintenance", prAggSQL, ClassStaleAccumulator},
		{"delta", ssspAggSQL, ClassUnsafeDelta},
	} {
		restriction := func(t *testing.T) (*core.Program, *ast.SelectStmt, *core.Restriction) {
			prog, stmt, i := rewriteAgg(t, c.sql)
			switch s := prog.Steps[i].(type) {
			case *core.MaintainAggStep:
				return prog, stmt, &s.Restriction
			case *core.DeltaMaterializeStep:
				return prog, stmt, &s.Restriction
			}
			panic("rewriteAgg returned no restricted step")
		}
		t.Run(c.name+"/frontier never read", func(t *testing.T) {
			prog, stmt, r := restriction(t)
			if n := repoint(r.Plan, r.In, "", r.CTE); n != 1 {
				t.Fatalf("%d reads of %s repointed, want 1", n, r.In)
			}
			assertDiag(t, Check(prog, stmt), c.class, "never reads")
		})
		t.Run(c.name+"/frontier read twice", func(t *testing.T) {
			prog, stmt, r := restriction(t)
			// Both statements alias their inner reference n.
			if n := repoint(r.Plan, r.CTE, "n", r.In); n != 1 {
				t.Fatalf("%d inner reads of %s repointed, want 1", n, r.CTE)
			}
			assertDiag(t, Check(prog, stmt), c.class, "reads "+r.In+" 2 times")
		})
	}
}

// repoint points every read of result from in n under alias (""
// matches any) at result to, and returns how many it repointed.
func repoint(n plan.Node, from, alias, to string) int {
	count := 0
	if r, ok := n.(*plan.NamedResult); ok && norm(r.Name) == norm(from) && (alias == "" || r.Alias == alias) {
		r.Name = to
		count++
	}
	for _, ch := range n.Children() {
		count += repoint(ch, from, alias, to)
	}
	return count
}

func assertDiag(t *testing.T, diags []Diagnostic, class, frag string) {
	t.Helper()
	for _, d := range diags {
		if d.Class == class && strings.Contains(d.Message, frag) {
			return
		}
	}
	t.Errorf("no %s diagnostic containing %q; got %v", class, frag, diags)
}
