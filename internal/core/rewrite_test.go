package core

import (
	"math"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// newRT builds a runtime with a weighted graph:
//
//	1 -> 2 (0.5), 1 -> 3 (0.5), 2 -> 3 (1.0), 3 -> 1 (1.0)
//
// and a vertexStatus table where every node is available.
func newRT(t *testing.T) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(2)
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int},
		{Name: "dst", Type: sqltypes.Int},
		{Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		s, d int64
		w    float64
	}{{1, 2, 0.5}, {1, 3, 0.5}, {2, 3, 1.0}, {3, 1, 1.0}} {
		edges.Insert(sqltypes.Row{sqltypes.NewInt(e.s), sqltypes.NewInt(e.d), sqltypes.NewFloat(e.w)})
	}
	vs, err := cat.Create("vertexStatus", sqltypes.Schema{
		{Name: "node", Type: sqltypes.Int},
		{Name: "status", Type: sqltypes.Int},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n <= 3; n++ {
		vs.Insert(sqltypes.Row{sqltypes.NewInt(n), sqltypes.NewInt(1)})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// runIterative rewrites and executes an iterative query.
func runIterative(t *testing.T, rt *exec.StoreRuntime, sql string, opts Options) ([]sqltypes.Row, *Stats) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	stats := &Stats{}
	rows, err := prog.Run(rt, stats)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rows, stats
}

func rowStrs(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func TestSimpleCounterLoop(t *testing.T) {
	rt := newRT(t)
	rows, stats := runIterative(t, rt,
		`WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 5 ITERATIONS)
		 SELECT i FROM c`, DefaultOptions())
	if len(rows) != 1 || rows[0].String() != "5" {
		t.Fatalf("rows = %v", rowStrs(rows))
	}
	if stats.Iterations != 5 {
		t.Errorf("iterations = %d", stats.Iterations)
	}
	if stats.Renames != 5 {
		t.Errorf("renames = %d (full-update query should rename every iteration)", stats.Renames)
	}
}

func TestIntermediateResultsAreDropped(t *testing.T) {
	rt := newRT(t)
	runIterative(t, rt,
		`WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 2 ITERATIONS)
		 SELECT i FROM c`, DefaultOptions())
	if n := rt.Results.Len(); n != 0 {
		t.Errorf("%d intermediate results leaked", n)
	}
}

func TestUpdatesTermination(t *testing.T) {
	rt := newRT(t)
	// One row updated per iteration; stop once cumulative updates reach 3.
	rows, stats := runIterative(t, rt,
		`WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 3 UPDATES)
		 SELECT i FROM c`, DefaultOptions())
	if rows[0].String() != "3" {
		t.Errorf("i = %v", rowStrs(rows))
	}
	if stats.Iterations != 3 || stats.UpdatedRows != 3 {
		t.Errorf("iterations=%d updates=%d", stats.Iterations, stats.UpdatedRows)
	}
}

func TestAnyTermination(t *testing.T) {
	rt := newRT(t)
	rows, stats := runIterative(t, rt,
		`WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL ANY (i >= 4))
		 SELECT i FROM c`, DefaultOptions())
	if rows[0].String() != "4" {
		t.Errorf("i = %v", rowStrs(rows))
	}
	if stats.Iterations != 4 {
		t.Errorf("iterations = %d", stats.Iterations)
	}
}

func TestAllTermination(t *testing.T) {
	rt := newRT(t)
	// Row k=1 grows by 1, row k=2 grows by 2; ALL(v >= 4) stops when
	// the slower row reaches 4.
	rows, _ := runIterative(t, rt,
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0 UNION ALL SELECT 2, 0
		 ITERATE SELECT k, v + k FROM c
		 UNTIL ALL (v >= 4))
		 SELECT k, v FROM c ORDER BY k`, DefaultOptions())
	got := rowStrs(rows)
	if len(got) != 2 || got[0] != "1, 4" || got[1] != "2, 8" {
		t.Errorf("rows = %v", got)
	}
}

func TestDeltaTermination(t *testing.T) {
	rt := newRT(t)
	rows, stats := runIterative(t, rt,
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0 UNION ALL SELECT 2, 0
		 ITERATE SELECT k, LEAST(v + 1, 3) FROM c
		 UNTIL DELTA < 1)
		 SELECT k, v FROM c ORDER BY k`, DefaultOptions())
	got := rowStrs(rows)
	if len(got) != 2 || got[0] != "1, 3" || got[1] != "2, 3" {
		t.Errorf("rows = %v", got)
	}
	// Values change on iterations 1-3 and are stable on 4.
	if stats.Iterations != 4 {
		t.Errorf("iterations = %d, want 4", stats.Iterations)
	}
}

const prQuery = `WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node,
    PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL 2 ITERATIONS )
SELECT Node, Rank FROM PageRank ORDER BY Node`

func TestPageRankHandTraced(t *testing.T) {
	rt := newRT(t)
	rows, stats := runIterative(t, rt, prQuery, DefaultOptions())
	// Hand trace (see comments in newRT for the graph):
	// iter1 deltas: n1 .1275, n2 .06375, n3 .19125
	// iter2 ranks:  n1 .2775, n2 .21375, n3 .34125
	want := map[int64]float64{1: 0.2775, 2: 0.21375, 3: 0.34125}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rowStrs(rows))
	}
	for _, r := range rows {
		node := r[0].Int()
		rank := r[1].Float()
		if math.Abs(rank-want[node]) > 1e-12 {
			t.Errorf("node %d rank = %v, want %v", node, rank, want[node])
		}
	}
	if stats.Iterations != 2 {
		t.Errorf("iterations = %d", stats.Iterations)
	}
}

func TestPageRankRenameVsCopyBackEquivalence(t *testing.T) {
	opt := DefaultOptions()
	noRename := DefaultOptions()
	noRename.Baseline = OptRename

	r1, s1 := runIterative(t, newRT(t), prQuery, opt)
	r2, s2 := runIterative(t, newRT(t), prQuery, noRename)
	g1, g2 := rowStrs(r1), rowStrs(r2)
	if strings.Join(g1, "|") != strings.Join(g2, "|") {
		t.Errorf("rename and copy-back disagree:\n%v\n%v", g1, g2)
	}
	if s1.Renames == 0 || s1.MovedRows != 0 {
		t.Errorf("optimized: renames=%d moved=%d", s1.Renames, s1.MovedRows)
	}
	if s2.Renames != 0 || s2.MovedRows == 0 {
		t.Errorf("baseline: renames=%d moved=%d", s2.Renames, s2.MovedRows)
	}
}

const ssspQuery = `WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = 1 THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
  WHERE IncomingDistance.Delta != 9999999
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL 5 ITERATIONS)
SELECT Node, Distance FROM sssp ORDER BY Node`

func TestSSSPMergePath(t *testing.T) {
	// Chain graph: 1 -> 2 (w 1), 2 -> 3 (w 2), 1 -> 3 (w 5).
	cat := catalog.New(1)
	edges, _ := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int},
		{Name: "dst", Type: sqltypes.Int},
		{Name: "weight", Type: sqltypes.Float},
	}, -1)
	for _, e := range []struct {
		s, d int64
		w    float64
	}{{1, 2, 1}, {2, 3, 2}, {1, 3, 5}} {
		edges.Insert(sqltypes.Row{sqltypes.NewInt(e.s), sqltypes.NewInt(e.d), sqltypes.NewFloat(e.w)})
	}
	rt := exec.NewStoreRuntime(cat, storage.NewResultStore())
	rows, _ := runIterative(t, rt, ssspQuery, DefaultOptions())
	got := rowStrs(rows)
	// Node 1 is never updated (no incoming reachable edges), so its
	// distance stays at the sentinel; nodes 2 and 3 converge to 1 and 3.
	want := []string{"1, 9999999", "2, 1", "3, 3"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("sssp = %v, want %v", got, want)
	}
}

func TestMergePathPreservesUnmatchedRows(t *testing.T) {
	rt := newRT(t)
	// Rows not selected by the WHERE clause keep their previous values.
	rows, _ := runIterative(t, rt,
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 10 UNION ALL SELECT 2, 20
		 ITERATE SELECT k, v + 1 FROM c WHERE k = 1
		 UNTIL 3 ITERATIONS)
		 SELECT k, v FROM c ORDER BY k`, DefaultOptions())
	got := rowStrs(rows)
	if len(got) != 2 || got[0] != "1, 13" || got[1] != "2, 20" {
		t.Errorf("rows = %v", got)
	}
}

func TestDuplicateKeyInWorkingTable(t *testing.T) {
	rt := newRT(t)
	stmt, err := parser.Parse(
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0
		 ITERATE SELECT c.k, edges.weight FROM c JOIN edges ON edges.src = c.k WHERE c.k = 1
		 UNTIL 2 ITERATIONS)
		 SELECT k FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 has two outgoing edges, so the working table gets two rows
	// for key 1 — a run-time error per §II.
	if _, err := prog.Run(rt, nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("expected duplicate-key error, got %v", err)
	}
}

func TestTableIExplain(t *testing.T) {
	rt := newRT(t)
	stmt, _ := parser.Parse(prQuery)
	opts := DefaultOptions()
	// Plain PR has no common block, and Table I shows the full
	// re-aggregation body.
	opts.Baseline = OptCommonResults | OptIncremental
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	// The six steps of Table I, in order.
	wantInOrder := []string{
		"Step 1: Materialize PageRank",
		"Step 2: Initialize loop operator <<Type:Metadata, N:2 iterations, Expr:NONE>>",
		"Step 3: Materialize Intermediate#PageRank",
		"Step 4: Rename Intermediate#PageRank to PageRank.",
		"Step 5: Increment loop counter by 1.",
		"Step 6: Go to step 3 if continue",
		"Final:",
	}
	pos := -1
	for _, frag := range wantInOrder {
		p := strings.Index(out, frag)
		if p < 0 {
			t.Errorf("explain missing %q:\n%s", frag, out)
			continue
		}
		if p < pos {
			t.Errorf("explain fragment %q out of order", frag)
		}
		pos = p
	}
}

const prVSQuery = `WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node,
    PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
    JOIN vertexStatus AS avail_pr ON avail_pr.node = IncomingEdges.dst
  WHERE avail_pr.status != 0
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL 3 ITERATIONS )
SELECT Node, Rank FROM PageRank ORDER BY Node`

func TestCommonResultExtraction(t *testing.T) {
	withOpt := DefaultOptions()
	withoutOpt := DefaultOptions()
	withoutOpt.Baseline = OptCommonResults

	r1, s1 := runIterative(t, newRT(t), prVSQuery, withOpt)
	r2, s2 := runIterative(t, newRT(t), prVSQuery, withoutOpt)
	g1, g2 := rowStrs(r1), rowStrs(r2)
	if strings.Join(g1, "|") != strings.Join(g2, "|") {
		t.Errorf("common-result rewrite changes results:\nopt:  %v\nbase: %v", g1, g2)
	}
	if s1.CommonBlocks != 1 {
		t.Errorf("optimized CommonBlocks = %d, want 1", s1.CommonBlocks)
	}
	if s2.CommonBlocks != 0 {
		t.Errorf("baseline CommonBlocks = %d, want 0", s2.CommonBlocks)
	}
}

func TestCommonResultExplainShowsBlock(t *testing.T) {
	rt := newRT(t)
	stmt, _ := parser.Parse(prVSQuery)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	if !strings.Contains(out, "Materialize Common#1") {
		t.Errorf("explain should contain the common block:\n%s", out)
	}
	// The common block is materialized before the loop (Figure 5).
	if strings.Index(out, "Materialize Common#1") > strings.Index(out, "Initialize loop") {
		t.Errorf("common block should precede the loop:\n%s", out)
	}
}

func TestCommonResultSkippedWhenUnavailable(t *testing.T) {
	rt := newRT(t)
	// Plain PR has no invariant join block (the self-join references
	// the CTE), so nothing is extracted even with the option on.
	_, stats := runIterative(t, rt, prQuery, DefaultOptions())
	if stats.CommonBlocks != 0 {
		t.Errorf("plain PR extracted %d common blocks", stats.CommonBlocks)
	}
}

const ffQuery = `WITH ITERATIVE forecast (node, friends, friendsPrev)
AS( SELECT src AS node, count(dst) AS friends,
      ceiling(count(dst) * (1.0-(src%10)/100.0)) AS friendsPrev
    FROM edges GROUP BY src
 ITERATE
   SELECT node AS node,
      round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends,
      friends AS friendsPrev
   FROM forecast
 UNTIL 5 ITERATIONS )
SELECT node, friends
FROM forecast WHERE MOD(node, 2) = 0
ORDER BY friends DESC LIMIT 10`

func TestFFPushdownEquivalence(t *testing.T) {
	withOpt := DefaultOptions()
	withoutOpt := DefaultOptions()
	withoutOpt.Baseline = OptPushdown

	r1, _ := runIterative(t, newRT(t), ffQuery, withOpt)
	r2, _ := runIterative(t, newRT(t), ffQuery, withoutOpt)
	g1, g2 := rowStrs(r1), rowStrs(r2)
	if strings.Join(g1, "|") != strings.Join(g2, "|") {
		t.Errorf("pushdown changes results:\nopt:  %v\nbase: %v", g1, g2)
	}
	if len(g1) == 0 {
		t.Fatal("FF query returned nothing")
	}
}

func TestFFPushdownAppearsInPlan(t *testing.T) {
	rt := newRT(t)
	stmt, _ := parser.Parse(ffQuery)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	// Step 1 (materialize R0) must contain the pushed filter.
	step2 := strings.Index(out, "Step 2")
	if step2 < 0 {
		t.Fatal("no step 2")
	}
	head := out[:step2]
	if !strings.Contains(head, "Filter") || !strings.Contains(head, "MOD") {
		t.Errorf("pushed predicate missing from R0:\n%s", head)
	}
	// And the final plan must no longer filter.
	tail := out[strings.Index(out, "Final:"):]
	if strings.Contains(tail, "MOD") {
		t.Errorf("predicate should have been removed from Qf:\n%s", tail)
	}
}

func TestPushdownRefusedForPR(t *testing.T) {
	rt := newRT(t)
	// PR's iterative part has joins and aggregates: pushing the final
	// WHERE Node = 1 predicate would be wrong, so the rewrite must not
	// do it even with the option enabled.
	q := strings.Replace(prQuery, "SELECT Node, Rank FROM PageRank ORDER BY Node",
		"SELECT Node, Rank FROM PageRank WHERE Node = 1", 1)
	stmt, _ := parser.Parse(q)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	step2 := strings.Index(out, "Step 2")
	if strings.Contains(out[:step2], "Filter") {
		t.Errorf("PR predicate must not be pushed:\n%s", out[:step2])
	}
	// The filtered result must match running without the filter and
	// filtering by hand.
	rows, _ := runIterative(t, newRT(t), q, DefaultOptions())
	all, _ := runIterative(t, newRT(t), prQuery, DefaultOptions())
	if len(rows) != 1 || rows[0].String() != all[0].String() {
		t.Errorf("filtered PR = %v, full = %v", rowStrs(rows), rowStrs(all))
	}
}

func TestPushdownRefusedForVaryingColumn(t *testing.T) {
	rt := newRT(t)
	// friends changes every iteration; a predicate on it must stay in Qf.
	q := strings.Replace(ffQuery, "WHERE MOD(node, 2) = 0", "WHERE friends > 0", 1)
	stmt, _ := parser.Parse(q)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	step2 := strings.Index(out, "Step 2")
	if strings.Contains(out[:step2], "friends >") {
		t.Errorf("varying-column predicate must not be pushed:\n%s", out[:step2])
	}
}

func TestPushdownRefusedForDataTermination(t *testing.T) {
	rt := newRT(t)
	q := `WITH ITERATIVE c (k, v) AS (
		SELECT src, 0 FROM edges GROUP BY src
	 ITERATE SELECT k, v + 1 FROM c
	 UNTIL ANY (v >= 2))
	 SELECT k FROM c WHERE MOD(k, 2) = 0`
	stmt, _ := parser.Parse(q)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	step2 := strings.Index(out, "Step 2")
	if strings.Contains(out[:step2], "MOD") {
		t.Errorf("push with data termination must be refused:\n%s", out[:step2])
	}
}

// TestPushdownRefusedForUpdatesTermination: an UPDATES counter observes
// the per-iteration row counts, so filtering R0 early shrinks every
// count and delays termination (regression: the push used to be applied
// whenever the termination was Metadata, and this query ran one extra
// iteration with the filter pushed).
func TestPushdownRefusedForUpdatesTermination(t *testing.T) {
	q := `WITH ITERATIVE c (k, flag, x) AS (
		SELECT src, MOD(src, 2), 1 FROM (SELECT src FROM edges GROUP BY src)
	 ITERATE SELECT k, flag, x + 1 FROM c
	 UNTIL 5 UPDATES)
	 SELECT k, x FROM c WHERE flag = 1 ORDER BY k`
	withOpt := DefaultOptions()
	withoutOpt := DefaultOptions()
	withoutOpt.Baseline = OptPushdown

	r1, s1 := runIterative(t, newRT(t), q, withOpt)
	r2, s2 := runIterative(t, newRT(t), q, withoutOpt)
	if strings.Join(rowStrs(r1), "|") != strings.Join(rowStrs(r2), "|") {
		t.Errorf("pushdown changes results under UPDATES termination:\nopt:  %v\nbase: %v", rowStrs(r1), rowStrs(r2))
	}
	if s1.Iterations != s2.Iterations {
		t.Errorf("pushdown changes the iteration count: %d vs %d", s1.Iterations, s2.Iterations)
	}

	// The predicate must stay in Qf (nothing recorded as pushed).
	stmt, _ := parser.Parse(q)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), newRT(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pushed) != 0 {
		t.Errorf("predicate pushed under UPDATES termination: %v", prog.Pushed)
	}
}

func TestMultipleIterativeCTEs(t *testing.T) {
	rt := newRT(t)
	rows, _ := runIterative(t, rt,
		`WITH ITERATIVE a (x) AS (SELECT 1 ITERATE SELECT x * 2 FROM a UNTIL 3 ITERATIONS),
		       b (y) AS (SELECT 10 ITERATE SELECT y + 1 FROM b UNTIL 2 ITERATIONS)
		 SELECT a.x, b.y FROM a, b`, DefaultOptions())
	if len(rows) != 1 || rows[0].String() != "8, 12" {
		t.Fatalf("rows = %v", rowStrs(rows))
	}
}

func TestSecondCTESeesFirst(t *testing.T) {
	rt := newRT(t)
	rows, _ := runIterative(t, rt,
		`WITH ITERATIVE a (x) AS (SELECT 1 ITERATE SELECT x * 2 FROM a UNTIL 3 ITERATIONS),
		       b (y) AS (SELECT x FROM a ITERATE SELECT y + 1 FROM b UNTIL 2 ITERATIONS)
		 SELECT y FROM b`, DefaultOptions())
	// a converges to 8; b starts there and adds 2.
	if len(rows) != 1 || rows[0].String() != "10" {
		t.Errorf("rows = %v", rowStrs(rows))
	}
}

func TestRegularAndIterativeCTEsMix(t *testing.T) {
	rt := newRT(t)
	rows, _ := runIterative(t, rt,
		`WITH ITERATIVE nodes (id) AS (SELECT src FROM edges UNION SELECT dst FROM edges),
		       c (n) AS (SELECT COUNT(*) FROM nodes ITERATE SELECT n + 1 FROM c UNTIL 2 ITERATIONS)
		 SELECT n FROM c`, DefaultOptions())
	if len(rows) != 1 || rows[0].String() != "5" {
		t.Errorf("rows = %v (3 nodes + 2 iterations)", rowStrs(rows))
	}
}

func TestRewriteErrors(t *testing.T) {
	rt := newRT(t)
	bad := []string{
		// Arity mismatch between Ri and the CTE.
		`WITH ITERATIVE c (a, b) AS (SELECT 1, 2 ITERATE SELECT a FROM c UNTIL 2 ITERATIONS) SELECT * FROM c`,
		// Column list mismatch with R0.
		`WITH ITERATIVE c (a, b, x) AS (SELECT 1, 2 ITERATE SELECT a, b FROM c UNTIL 2 ITERATIONS) SELECT * FROM c`,
		// Unknown table in R0.
		`WITH ITERATIVE c (a) AS (SELECT z FROM missing ITERATE SELECT a FROM c UNTIL 2 ITERATIONS) SELECT * FROM c`,
	}
	for _, q := range bad {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions()); err == nil {
			t.Errorf("Rewrite(%q) should fail", q)
		}
	}
}

// TestRewritePlainHasNoSteps: a statement with no iterative or recursive
// CTE — with regular CTEs or no WITH at all — is its own final query, a
// program with no steps that answers it.
func TestRewritePlainHasNoSteps(t *testing.T) {
	rt := newRT(t)
	for q, want := range map[string]string{
		"WITH x AS (SELECT 1) SELECT * FROM x": "1",
		"SELECT 1":                             "1",
		"SELECT dst FROM edges WHERE src = 1 ORDER BY dst": "2|3",
	} {
		stmt, _ := parser.Parse(q)
		prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(prog.Steps) != 0 {
			t.Errorf("%s: %d steps, want none", q, len(prog.Steps))
		}
		rows, err := prog.Run(rt, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := strings.Join(rowStrs(rows), "|"); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

func TestProgramReRun(t *testing.T) {
	// Programs are re-runnable (benchmarks execute them repeatedly).
	rt := newRT(t)
	stmt, _ := parser.Parse(prQuery)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 3; i++ {
		rows, err := prog.Run(rt, nil)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		s := strings.Join(rowStrs(rows), "|")
		if first == "" {
			first = s
		} else if s != first {
			t.Fatalf("run %d differs: %s vs %s", i, s, first)
		}
	}
}
