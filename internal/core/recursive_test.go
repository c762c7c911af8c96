package core

import (
	"context"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

func runRecursive(t *testing.T, rt *exec.StoreRuntime, sql string) ([]sqltypes.Row, error) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rows, _, err := ExecuteRecursiveContext(context.Background(), stmt.(*ast.SelectStmt), rt, 1, 0)
	return rows, err
}

func TestRecursiveSeries(t *testing.T) {
	rt := newRT(t)
	rows, err := runRecursive(t, rt,
		`WITH RECURSIVE nums (n) AS (
			SELECT 1 UNION ALL SELECT n + 1 FROM nums WHERE n < 5
		) SELECT n FROM nums ORDER BY n`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowStrs(rows)
	want := []string{"1", "2", "3", "4", "5"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("nums = %v", got)
	}
}

func TestRecursiveTransitiveClosure(t *testing.T) {
	rt := newRT(t) // graph 1->2, 1->3, 2->3, 3->1
	rows, err := runRecursive(t, rt,
		`WITH RECURSIVE reach (node) AS (
			SELECT 2
			UNION
			SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node
		) SELECT node FROM reach ORDER BY node`)
	if err != nil {
		t.Fatal(err)
	}
	// From node 2 every node is reachable (2->3->1->2...). The UNION
	// dedup is what lets the cycle terminate.
	got := rowStrs(rows)
	want := []string{"1", "2", "3"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("reach = %v", got)
	}
}

func TestRecursiveAggregateRejected(t *testing.T) {
	rt := newRT(t)
	_, err := runRecursive(t, rt,
		`WITH RECURSIVE r (n) AS (
			SELECT 1 UNION ALL SELECT SUM(n) FROM r
		) SELECT n FROM r`)
	if err == nil || !strings.Contains(err.Error(), "WITH ITERATIVE") {
		t.Errorf("aggregates in the recursive part must be rejected pointing at iterative CTEs, got %v", err)
	}
}

func TestRecursiveCycleWithoutDedupFails(t *testing.T) {
	rt := newRT(t)
	oldRows := MaxRecursionRows
	MaxRecursionRows = 5000
	defer func() { MaxRecursionRows = oldRows }()
	_, err := runRecursive(t, rt,
		`WITH RECURSIVE r (node) AS (
			SELECT 2
			UNION ALL
			SELECT edges.dst FROM r JOIN edges ON edges.src = r.node
		) SELECT node FROM r`)
	if err == nil || !strings.Contains(err.Error(), "exceeded 5000 rows") {
		t.Errorf("cyclic UNION ALL should be stopped by the row cap, got %v", err)
	}
}

// TestRecursiveRepeatedWorkingSetFails: a UNION ALL whose round adds the
// rows an earlier round added cycles forever, and the merge says so at
// the first repeat instead of running to the row cap.
func TestRecursiveRepeatedWorkingSetFails(t *testing.T) {
	rt := newRT(t)
	_, err := runRecursive(t, rt, `WITH RECURSIVE r (n) AS (
			SELECT 1 UNION ALL SELECT n FROM r
		) SELECT n FROM r`)
	if err == nil || !strings.Contains(err.Error(), "iteration 1 revisits an earlier state") {
		t.Errorf("a repeated working set should fail the query, got %v", err)
	}
	if rt.Results.Len() != 0 {
		t.Errorf("%d results leaked", rt.Results.Len())
	}
}

func TestRecursiveErrors(t *testing.T) {
	rt := newRT(t)
	cases := []string{
		// Not a union.
		`WITH RECURSIVE r (n) AS (SELECT n + 1 FROM r) SELECT * FROM r`,
		// Self-reference in the base arm.
		`WITH RECURSIVE r (n) AS (SELECT n FROM r UNION ALL SELECT 1) SELECT * FROM r`,
		// Two references in the recursive arm.
		`WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT a.n FROM r a JOIN r b ON a.n = b.n WHERE a.n < 2) SELECT * FROM r`,
		// Column count mismatch.
		`WITH RECURSIVE r (n, m) AS (SELECT 1 UNION ALL SELECT n FROM r WHERE n < 2) SELECT * FROM r`,
	}
	for _, q := range cases {
		if _, err := runRecursive(t, rt, q); err == nil {
			t.Errorf("should fail: %s", q)
		}
	}
	// Non-recursive statement.
	stmt, _ := parser.Parse("SELECT 1")
	if _, _, err := ExecuteRecursiveContext(context.Background(), stmt.(*ast.SelectStmt), rt, 1, 0); err == nil {
		t.Error("ExecuteRecursiveContext without RECURSIVE should fail")
	}
}

func TestRecursiveWithPlainCTE(t *testing.T) {
	rt := newRT(t)
	rows, err := runRecursive(t, rt,
		`WITH RECURSIVE seed (s) AS (SELECT 2),
		 r (n) AS (
			SELECT s FROM seed UNION ALL SELECT n * 2 FROM r WHERE n < 10
		 ) SELECT n FROM r ORDER BY n`)
	if err != nil {
		t.Fatal(err)
	}
	got := rowStrs(rows)
	want := []string{"2", "4", "8", "16"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("r = %v", got)
	}
}

func TestRecursiveResultsDropped(t *testing.T) {
	rt := newRT(t)
	if _, err := runRecursive(t, rt,
		`WITH RECURSIVE nums (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM nums WHERE n < 3)
		 SELECT COUNT(*) FROM nums`); err != nil {
		t.Fatal(err)
	}
	if rt.Results.Len() != 0 {
		t.Errorf("%d results leaked", rt.Results.Len())
	}
}

func TestHasIterative(t *testing.T) {
	stmt, _ := parser.Parse(prQuery)
	if !HasIterative(stmt.(*ast.SelectStmt)) {
		t.Error("PR query should report iterative")
	}
	stmt, _ = parser.Parse("WITH x AS (SELECT 1) SELECT * FROM x")
	if HasIterative(stmt.(*ast.SelectStmt)) {
		t.Error("plain CTE is not iterative")
	}
	stmt, _ = parser.Parse("SELECT 1")
	if HasIterative(stmt.(*ast.SelectStmt)) {
		t.Error("no WITH clause")
	}
}
