package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// testRuntime builds a StoreRuntime with an edges table holding the
// tiny graph 1->2, 1->3, 2->3, 3->4 (weight 1.0 each) and a
// vertexStatus table where node 4 is unavailable.
func testRuntime(t *testing.T) *StoreRuntime {
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
	for _, e := range [][2]int64{{1, 2}, {1, 3}, {2, 3}, {3, 4}} {
		edges.Insert(sqltypes.Row{sqltypes.NewInt(e[0]), sqltypes.NewInt(e[1]), sqltypes.NewFloat(1)})
	}
	vs, err := cat.Create("vertexStatus", sqltypes.Schema{
		{Name: "node", Type: sqltypes.Int},
		{Name: "status", Type: sqltypes.Int},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n <= 4; n++ {
		st := int64(1)
		if n == 4 {
			st = 0
		}
		vs.Insert(sqltypes.Row{sqltypes.NewInt(n), sqltypes.NewInt(st)})
	}
	return NewStoreRuntime(cat, storage.NewResultStore())
}

// runSQL parses, plans and executes a SELECT.
func runSQL(t *testing.T, rt *StoreRuntime, sql string) []sqltypes.Row {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	rows, err := Run(node, rt, nil)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

// rowStrings renders rows for easy comparison.
func rowStrings(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func expectRows(t *testing.T, got []sqltypes.Row, want ...string) {
	t.Helper()
	gs := rowStrings(got)
	if len(gs) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(gs), gs, len(want), want)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, gs[i], want[i])
		}
	}
}

// expectSet compares ignoring order.
func expectSet(t *testing.T, got []sqltypes.Row, want ...string) {
	t.Helper()
	gs := rowStrings(got)
	if len(gs) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(gs), gs, len(want), want)
	}
	seen := map[string]int{}
	for _, g := range gs {
		seen[g]++
	}
	for _, w := range want {
		if seen[w] == 0 {
			t.Errorf("missing row %q in %v", w, gs)
			continue
		}
		seen[w]--
	}
}

func TestScanProjectFilter(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src, dst FROM edges WHERE src = 1 ORDER BY dst")
	expectRows(t, rows, "1, 2", "1, 3")
}

func TestExpressionsInProjection(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src * 10 + dst FROM edges WHERE src = 1 ORDER BY 1")
	expectRows(t, rows, "12", "13")
}

func TestFromlessSelect(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT 1 + 1, 'x'")
	expectRows(t, rows, "2, x")
}

func TestInnerJoin(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, `SELECT e.src, e.dst, v.status FROM edges e
		JOIN vertexStatus v ON e.dst = v.node ORDER BY e.src, e.dst`)
	expectRows(t, rows, "1, 2, 1", "1, 3, 1", "2, 3, 1", "3, 4, 0")
}

func TestLeftJoin(t *testing.T) {
	rt := testRuntime(t)
	// Nodes with no incoming edges get NULLs from the right side.
	rows := runSQL(t, rt, `SELECT v.node, e.src FROM vertexStatus v
		LEFT JOIN edges e ON v.node = e.dst ORDER BY v.node, e.src`)
	expectRows(t, rows, "1, NULL", "2, 1", "3, 1", "3, 2", "4, 3")
}

func TestRightJoin(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, `SELECT e.src, v.node FROM edges e
		RIGHT JOIN vertexStatus v ON e.dst = v.node ORDER BY v.node, e.src`)
	expectRows(t, rows, "NULL, 1", "1, 2", "1, 3", "2, 3", "3, 4")
}

func TestFullJoin(t *testing.T) {
	cat := catalog.New(1)
	a, _ := cat.Create("a", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}}, -1)
	b, _ := cat.Create("b", sqltypes.Schema{{Name: "y", Type: sqltypes.Int}}, -1)
	for _, v := range []int64{1, 2} {
		a.Insert(sqltypes.Row{sqltypes.NewInt(v)})
	}
	for _, v := range []int64{2, 3} {
		b.Insert(sqltypes.Row{sqltypes.NewInt(v)})
	}
	rt := NewStoreRuntime(cat, storage.NewResultStore())
	rows := runSQL(t, rt, "SELECT x, y FROM a FULL JOIN b ON a.x = b.y")
	expectSet(t, rows, "1, NULL", "2, 2", "NULL, 3")
}

func TestCrossJoin(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT COUNT(*) FROM edges, vertexStatus")
	expectRows(t, rows, "16")
}

func TestJoinResidualPredicate(t *testing.T) {
	rt := testRuntime(t)
	// ON clause with an extra non-equi conjunct: LEFT JOIN keeps
	// unmatched rows.
	rows := runSQL(t, rt, `SELECT v.node, e.src FROM vertexStatus v
		LEFT JOIN edges e ON v.node = e.dst AND e.src > 1 ORDER BY v.node, e.src`)
	expectRows(t, rows, "1, NULL", "2, NULL", "3, 2", "4, 3")
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	cat := catalog.New(1)
	a, _ := cat.Create("a", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}}, -1)
	b, _ := cat.Create("b", sqltypes.Schema{{Name: "y", Type: sqltypes.Int}}, -1)
	a.Insert(sqltypes.Row{sqltypes.NullValue})
	a.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	b.Insert(sqltypes.Row{sqltypes.NullValue})
	b.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	rt := NewStoreRuntime(cat, storage.NewResultStore())
	rows := runSQL(t, rt, "SELECT x, y FROM a JOIN b ON a.x = b.y")
	expectRows(t, rows, "1, 1")
	rows = runSQL(t, rt, "SELECT x, y FROM a LEFT JOIN b ON a.x = b.y ORDER BY x")
	expectRows(t, rows, "NULL, NULL", "1, 1")
}

func TestSelfJoinWithAliases(t *testing.T) {
	rt := testRuntime(t)
	// Two-hop paths.
	rows := runSQL(t, rt, `SELECT a.src, b.dst FROM edges a
		JOIN edges b ON a.dst = b.src ORDER BY a.src, b.dst`)
	expectRows(t, rows, "1, 3", "1, 4", "2, 4")
}

func TestAggregation(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src, COUNT(*) FROM edges GROUP BY src ORDER BY src")
	expectRows(t, rows, "1, 2", "2, 1", "3, 1")
	rows = runSQL(t, rt, "SELECT SUM(weight), MIN(src), MAX(dst), AVG(src) FROM edges")
	expectRows(t, rows, "4, 1, 4, 1.75")
	// Scalar aggregate over empty input yields one row.
	rows = runSQL(t, rt, "SELECT COUNT(*), SUM(weight) FROM edges WHERE src = 99")
	expectRows(t, rows, "0, NULL")
	// Grouped aggregate over empty input yields nothing.
	rows = runSQL(t, rt, "SELECT src, COUNT(*) FROM edges WHERE src = 99 GROUP BY src")
	if len(rows) != 0 {
		t.Errorf("grouped empty input: %v", rowStrings(rows))
	}
}

func TestGroupByExpression(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src % 2, COUNT(*) FROM edges GROUP BY src % 2 ORDER BY 1")
	expectRows(t, rows, "0, 1", "1, 3")
}

func TestHaving(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src FROM edges GROUP BY src HAVING COUNT(*) > 1")
	expectRows(t, rows, "1")
}

func TestAggregateOverJoin(t *testing.T) {
	rt := testRuntime(t)
	// The PR iterative shape: aggregate over a left join.
	rows := runSQL(t, rt, `SELECT v.node, COUNT(e.src) FROM vertexStatus v
		LEFT JOIN edges e ON v.node = e.dst GROUP BY v.node ORDER BY v.node`)
	expectRows(t, rows, "1, 0", "2, 1", "3, 2", "4, 1")
}

func TestUnionDedup(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src FROM edges UNION SELECT dst FROM edges ORDER BY 1")
	expectRows(t, rows, "1", "2", "3", "4")
	rows = runSQL(t, rt, "SELECT src FROM edges UNION ALL SELECT dst FROM edges")
	if len(rows) != 8 {
		t.Errorf("UNION ALL rows = %d", len(rows))
	}
}

func TestDistinct(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT DISTINCT src FROM edges ORDER BY src")
	expectRows(t, rows, "1", "2", "3")
	rows = runSQL(t, rt, "SELECT COUNT(DISTINCT src) FROM edges")
	expectRows(t, rows, "3")
}

func TestOrderLimitOffset(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src, dst FROM edges ORDER BY src DESC, dst DESC LIMIT 2")
	expectRows(t, rows, "3, 4", "2, 3")
	rows = runSQL(t, rt, "SELECT dst FROM edges ORDER BY dst LIMIT 2 OFFSET 1")
	expectRows(t, rows, "3", "3")
}

func TestSubqueryExecution(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, `SELECT n, COUNT(*) FROM
		(SELECT src AS n FROM edges UNION ALL SELECT dst FROM edges) AS t
		GROUP BY n ORDER BY n`)
	expectRows(t, rows, "1, 2", "2, 2", "3, 3", "4, 1")
}

func TestRegularCTEExecution(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, `WITH nodes (id) AS (SELECT src FROM edges UNION SELECT dst FROM edges)
		SELECT COUNT(*) FROM nodes`)
	expectRows(t, rows, "4")
}

func TestNamedResultExecution(t *testing.T) {
	rt := testRuntime(t)
	res := storage.NewTable("pr", sqltypes.Schema{
		{Name: "node", Type: sqltypes.Int},
		{Name: "rank", Type: sqltypes.Float},
	}, 1)
	res.Insert(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewFloat(0.15)})
	res.Insert(sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewFloat(0.3)})
	rt.Results.Put("pr", res)
	rows := runSQL(t, rt, "SELECT node FROM pr WHERE rank > 0.2")
	expectRows(t, rows, "2")
}

func TestCaseInProjection(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, `SELECT src, CASE WHEN src = 1 THEN 0 ELSE 9999999 END
		FROM edges WHERE dst = 3 ORDER BY src`)
	expectRows(t, rows, "1, 0", "2, 9999999")
}

func TestCoalesceLeastOverJoin(t *testing.T) {
	rt := testRuntime(t)
	// The SSSP shape: COALESCE(MIN(...), big) over a LEFT JOIN.
	rows := runSQL(t, rt, `SELECT v.node, COALESCE(MIN(e.src + 10), 9999999)
		FROM vertexStatus v LEFT JOIN edges e ON v.node = e.dst
		GROUP BY v.node ORDER BY v.node`)
	expectRows(t, rows, "1, 9999999", "2, 11", "3, 11", "4, 13")
}

func TestStats(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT src, COUNT(*) FROM edges JOIN vertexStatus v ON edges.dst = v.node GROUP BY src")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if _, err := Run(node, rt, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.RowsScanned != 8 {
		t.Errorf("RowsScanned = %d, want 8", stats.RowsScanned)
	}
	if stats.RowsJoined != 4 {
		t.Errorf("RowsJoined = %d, want 4", stats.RowsJoined)
	}
	if stats.RowsGrouped != 3 {
		t.Errorf("RowsGrouped = %d, want 3", stats.RowsGrouped)
	}
}

func TestMaterialize(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT src, COUNT(*) AS c FROM edges GROUP BY src")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := MaterializeContext(nil, node, rt, nil, "counts", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 || tbl.Name != "counts" {
		t.Errorf("materialized: %d rows, name %q", tbl.Len(), tbl.Name)
	}
	if tbl.Schema[1].Name != "c" {
		t.Errorf("schema = %v", tbl.Schema)
	}
}

func TestRuntimeErrors(t *testing.T) {
	rt := testRuntime(t)
	if _, err := rt.BaseTable("missing"); err == nil {
		t.Error("missing base table")
	}
	if _, err := rt.Result("missing"); err == nil {
		t.Error("missing result")
	}
	if _, ok := rt.TableSchema("edges"); !ok {
		t.Error("TableSchema")
	}
	if _, ok := rt.TableSchema("missing"); ok {
		t.Error("missing TableSchema")
	}
	if _, ok := rt.ResultSchema("missing"); ok {
		t.Error("missing ResultSchema")
	}
}

func TestRuntimeErrorPropagation(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT 1 / (src - src) FROM edges")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(node, rt, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected division by zero, got %v", err)
	}
}

func TestLargeJoinConsistency(t *testing.T) {
	// Build a larger random-ish graph and check the hash join against a
	// brute-force nested loop on the same predicate.
	cat := catalog.New(4)
	a, _ := cat.Create("a", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}, -1)
	b, _ := cat.Create("b", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "w", Type: sqltypes.Int}}, -1)
	for i := 0; i < 200; i++ {
		a.Insert(sqltypes.Row{sqltypes.NewInt(int64(i % 37)), sqltypes.NewInt(int64(i))})
		b.Insert(sqltypes.Row{sqltypes.NewInt(int64(i % 23)), sqltypes.NewInt(int64(i))})
	}
	rt := NewStoreRuntime(cat, storage.NewResultStore())
	hashRows := runSQL(t, rt, "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k")
	// Cross join + WHERE forces the nested-loop path.
	loopRows := runSQL(t, rt, "SELECT a.v, b.w FROM a, b WHERE a.k = b.k")
	if len(hashRows) == 0 || len(hashRows) != len(loopRows) {
		t.Fatalf("hash=%d loop=%d", len(hashRows), len(loopRows))
	}
	count := map[string]int{}
	for _, r := range hashRows {
		count[r.String()]++
	}
	for _, r := range loopRows {
		count[r.String()]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("row multiset mismatch at %q (%+d)", k, v)
		}
	}
}

func TestOperatorReopen(t *testing.T) {
	// Operators are re-openable: the loop operator re-executes the
	// iterative step plan every iteration.
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT src FROM edges WHERE src = 1")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(node, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rows := drainAll(t, op)
		if len(rows) != 2 {
			t.Fatalf("iteration %d: %d rows", i, len(rows))
		}
	}
}

func drainAll(t *testing.T, op Operator) []sqltypes.Row {
	t.Helper()
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestManyGroups(t *testing.T) {
	cat := catalog.New(2)
	tb, _ := cat.Create("t", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Float}}, -1)
	const n = 5000
	for i := 0; i < n; i++ {
		tb.Insert(sqltypes.Row{sqltypes.NewInt(int64(i % 100)), sqltypes.NewFloat(float64(i))})
	}
	rt := NewStoreRuntime(cat, storage.NewResultStore())
	rows := runSQL(t, rt, "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k")
	if len(rows) != 100 {
		t.Fatalf("groups = %d", len(rows))
	}
	var total int64
	for _, r := range rows {
		total += r[1].Int()
	}
	if total != n {
		t.Errorf("total count = %d", total)
	}
}

func TestValuesNode(t *testing.T) {
	rows := [][]ast.Expr{
		{ast.NewLiteral(sqltypes.NewInt(1)), ast.NewLiteral(sqltypes.NewString("a"))},
		{ast.NewLiteral(sqltypes.NewInt(2)), ast.NewLiteral(sqltypes.NewString("b"))},
	}
	n := &plan.ValuesNode{Rows: rows, Cols: []plan.ColInfo{
		{Name: "x", Type: sqltypes.Int}, {Name: "s", Type: sqltypes.String},
	}}
	got, err := Run(n, NewStoreRuntime(catalog.New(1), storage.NewResultStore()), nil)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, got, "1, a", "2, b")
}

func ExampleDrain() {
	cat := catalog.New(1)
	tb, _ := cat.Create("t", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}}, -1)
	tb.Insert(sqltypes.Row{sqltypes.NewInt(42)})
	rt := NewStoreRuntime(cat, storage.NewResultStore())
	stmt, _ := parser.Parse("SELECT x FROM t")
	node, _ := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	rows, _ := Run(node, rt, nil)
	fmt.Println(rows[0].String())
	// Output: 42
}

// TestStatsAddCarriesEveryCounter: Add is what sums the MPP fragments'
// private counters into the query's, so a counter it forgets reads zero
// there. Every field must be a counter it carries.
func TestStatsAddCarriesEveryCounter(t *testing.T) {
	var one, sum Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).CanInt() {
			t.Fatalf("Stats.%s is not an integer counter; say here how Add carries it", v.Type().Field(i).Name)
		}
		v.Field(i).SetInt(1)
	}
	sum.Add(&one)
	sum.Add(&one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got := s.Field(i).Int(); got != 2 {
			t.Errorf("after adding 1 twice, Stats.%s = %d: Add does not carry it", s.Type().Field(i).Name, got)
		}
	}
}
