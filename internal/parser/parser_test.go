package parser

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// The paper's three evaluation queries, used across parser, rewrite and
// engine tests.
const (
	PRQuery = `WITH ITERATIVE PageRank (Node, Rank, Delta)
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
 UNTIL 10 ITERATIONS )
SELECT Node, Rank FROM PageRank;`

	SSSPQuery = `WITH ITERATIVE sssp (Node, Distance, Delta)
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
 UNTIL 10 ITERATIONS)
SELECT Distance FROM sssp WHERE Node = 10;`

	FFQuery = `WITH ITERATIVE forecast (node, friends, friendsPrev)
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
FROM forecast WHERE MOD(node, 100) = 0
ORDER BY friends DESC LIMIT 10;`
)

func mustParse(t *testing.T, src string) ast.Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func mustSelect(t *testing.T, src string) *ast.SelectStmt {
	t.Helper()
	s := mustParse(t, src)
	sel, ok := s.(*ast.SelectStmt)
	if !ok {
		t.Fatalf("expected SelectStmt, got %T", s)
	}
	return sel
}

func TestSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT src, dst FROM edges WHERE weight > 0.5")
	core := sel.Body.(*ast.SelectCore)
	if len(core.Items) != 2 {
		t.Errorf("items = %d", len(core.Items))
	}
	if core.From.(*ast.BaseTable).Name != "edges" {
		t.Error("from table")
	}
	if core.Where == nil {
		t.Error("where missing")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 + 2 AS three")
	core := sel.Body.(*ast.SelectCore)
	if core.From != nil {
		t.Error("FROM should be nil")
	}
	if core.Items[0].Alias != "three" {
		t.Error("alias lost")
	}
}

func TestImplicitAlias(t *testing.T) {
	sel := mustSelect(t, "SELECT src s FROM edges e")
	core := sel.Body.(*ast.SelectCore)
	if core.Items[0].Alias != "s" {
		t.Errorf("implicit column alias = %q", core.Items[0].Alias)
	}
	if core.From.(*ast.BaseTable).Alias != "e" {
		t.Errorf("implicit table alias = %q", core.From.(*ast.BaseTable).Alias)
	}
}

func TestJoins(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM a LEFT JOIN b ON a.x = b.x JOIN c ON b.y = c.y`)
	core := sel.Body.(*ast.SelectCore)
	outer := core.From.(*ast.JoinRef)
	if outer.Type != ast.InnerJoin {
		t.Error("outer join type should be inner (left-assoc)")
	}
	inner := outer.Left.(*ast.JoinRef)
	if inner.Type != ast.LeftJoin {
		t.Error("inner join type should be left")
	}
	// LEFT OUTER JOIN also accepted.
	mustSelect(t, "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x")
	// Comma = cross join.
	sel = mustSelect(t, "SELECT * FROM a, b WHERE a.x = b.x")
	if sel.Body.(*ast.SelectCore).From.(*ast.JoinRef).Type != ast.CrossJoin {
		t.Error("comma should be cross join")
	}
	// CROSS JOIN keyword.
	sel = mustSelect(t, "SELECT * FROM a CROSS JOIN b")
	if sel.Body.(*ast.SelectCore).From.(*ast.JoinRef).Type != ast.CrossJoin {
		t.Error("CROSS JOIN")
	}
}

func TestSubqueryInFrom(t *testing.T) {
	sel := mustSelect(t, "SELECT s FROM (SELECT src AS s FROM edges) AS t WHERE s > 1")
	sub := sel.Body.(*ast.SelectCore).From.(*ast.SubqueryRef)
	if sub.Alias != "t" {
		t.Errorf("alias = %q", sub.Alias)
	}
}

func TestUnion(t *testing.T) {
	sel := mustSelect(t, "SELECT src FROM edges UNION SELECT dst FROM edges UNION ALL SELECT 1")
	u := sel.Body.(*ast.UnionExpr)
	if !u.All {
		t.Error("outermost should be UNION ALL (left assoc)")
	}
	if _, ok := u.Left.(*ast.UnionExpr); !ok {
		t.Error("left should be a union")
	}
}

func TestGroupByHavingOrderLimit(t *testing.T) {
	sel := mustSelect(t, `SELECT src, COUNT(*) c FROM edges GROUP BY src
		HAVING COUNT(*) > 2 ORDER BY c DESC, src ASC LIMIT 5 OFFSET 2`)
	core := sel.Body.(*ast.SelectCore)
	if len(core.GroupBy) != 1 || core.Having == nil {
		t.Error("group by / having")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Error("order by")
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset")
	}
}

func TestExpressionPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 + 2 * 3")
	e := sel.Body.(*ast.SelectCore).Items[0].Expr
	if e.String() != "(1 + (2 * 3))" {
		t.Errorf("precedence: %s", e)
	}
	sel = mustSelect(t, "SELECT a OR b AND NOT c = 1")
	e = sel.Body.(*ast.SelectCore).Items[0].Expr
	if e.String() != "(a OR (b AND (NOT (c = 1))))" {
		t.Errorf("bool precedence: %s", e)
	}
	sel = mustSelect(t, "SELECT (1 + 2) * 3")
	e = sel.Body.(*ast.SelectCore).Items[0].Expr
	if e.String() != "((1 + 2) * 3)" {
		t.Errorf("parens: %s", e)
	}
}

func TestNegativeLiteralFolding(t *testing.T) {
	sel := mustSelect(t, "SELECT -5, -2.5, +3")
	items := sel.Body.(*ast.SelectCore).Items
	if l, ok := items[0].Expr.(*ast.Literal); !ok || l.Value() != sqltypes.NewInt(-5) {
		t.Errorf("-5 not folded: %s", items[0].Expr)
	}
	if l, ok := items[1].Expr.(*ast.Literal); !ok || l.Value() != sqltypes.NewFloat(-2.5) {
		t.Errorf("-2.5 not folded: %s", items[1].Expr)
	}
	if l, ok := items[2].Expr.(*ast.Literal); !ok || l.Value() != sqltypes.NewInt(3) {
		t.Errorf("+3: %s", items[2].Expr)
	}
}

func TestCaseExpr(t *testing.T) {
	sel := mustSelect(t, "SELECT CASE WHEN src = 1 THEN 0 ELSE 9999999 END FROM edges")
	c := sel.Body.(*ast.SelectCore).Items[0].Expr.(*ast.CaseExpr)
	if len(c.Whens) != 1 || c.Else == nil {
		t.Error("case structure")
	}
	// Simple CASE desugars to searched.
	sel = mustSelect(t, "SELECT CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END")
	c = sel.Body.(*ast.SelectCore).Items[0].Expr.(*ast.CaseExpr)
	if len(c.Whens) != 2 {
		t.Fatal("simple case whens")
	}
	if c.Whens[0].Cond.String() != "(x = 1)" {
		t.Errorf("simple case desugar: %s", c.Whens[0].Cond)
	}
}

func TestCastAndFuncs(t *testing.T) {
	sel := mustSelect(t, "SELECT CAST(friends AS numeric), round(x, 5), COALESCE(a, 0), LEAST(d1, d2)")
	items := sel.Body.(*ast.SelectCore).Items
	if c, ok := items[0].Expr.(*ast.CastExpr); !ok || c.To != sqltypes.Float {
		t.Errorf("cast: %s", items[0].Expr)
	}
	if f, ok := items[1].Expr.(*ast.FuncCall); !ok || f.Name != "ROUND" || len(f.Args) != 2 {
		t.Errorf("round: %s", items[1].Expr)
	}
}

func TestCountStarAndDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT COUNT(*), COUNT(DISTINCT src) FROM edges")
	items := sel.Body.(*ast.SelectCore).Items
	if f := items[0].Expr.(*ast.FuncCall); !f.Star {
		t.Error("count(*)")
	}
	if f := items[1].Expr.(*ast.FuncCall); !f.Distinct {
		t.Error("count distinct")
	}
	sel = mustSelect(t, "SELECT DISTINCT src FROM edges")
	if !sel.Body.(*ast.SelectCore).Distinct {
		t.Error("select distinct")
	}
}

func TestPredicates(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL AND c IN (1,2) AND d NOT IN (3) AND e BETWEEN 1 AND 9 AND f NOT BETWEEN 2 AND 3")
	where := sel.Body.(*ast.SelectCore).Where
	conjs := ast.SplitConjuncts(where)
	if len(conjs) != 6 {
		t.Fatalf("conjuncts = %d", len(conjs))
	}
	if _, ok := conjs[0].(*ast.IsNullExpr); !ok {
		t.Error("IS NULL")
	}
	if n := conjs[1].(*ast.IsNullExpr); !n.Negate {
		t.Error("IS NOT NULL")
	}
	if in := conjs[3].(*ast.InExpr); !in.Negate {
		t.Error("NOT IN")
	}
	if bt := conjs[5].(*ast.BetweenExpr); !bt.Negate {
		t.Error("NOT BETWEEN")
	}
}

func TestRegularCTE(t *testing.T) {
	sel := mustSelect(t, "WITH x AS (SELECT 1 AS a), y AS (SELECT a FROM x) SELECT * FROM y")
	if sel.With == nil || len(sel.With.CTEs) != 2 {
		t.Fatal("with clause")
	}
	if sel.With.CTEs[0].Iterative {
		t.Error("regular CTE marked iterative")
	}
}

func TestIterativeCTEParsing(t *testing.T) {
	sel := mustSelect(t, PRQuery)
	if sel.With == nil || len(sel.With.CTEs) != 1 {
		t.Fatal("with clause")
	}
	cte := sel.With.CTEs[0]
	if !cte.Iterative {
		t.Fatal("not iterative")
	}
	if cte.Name != "PageRank" {
		t.Errorf("name = %q", cte.Name)
	}
	if len(cte.Cols) != 3 {
		t.Errorf("cols = %v", cte.Cols)
	}
	if cte.Until.Type != ast.TermMetadata || cte.Until.N != 10 || cte.Until.CountUpdates {
		t.Errorf("until = %+v", cte.Until)
	}
	// R0 is a select over a union subquery.
	initCore := cte.Init.Body.(*ast.SelectCore)
	if _, ok := initCore.From.(*ast.SubqueryRef); !ok {
		t.Error("R0 from should be a subquery")
	}
	// Ri has two left joins and a group by.
	iterCore := cte.Iter.Body.(*ast.SelectCore)
	if len(iterCore.GroupBy) != 2 {
		t.Errorf("Ri group by = %d", len(iterCore.GroupBy))
	}
	j := iterCore.From.(*ast.JoinRef)
	if j.Type != ast.LeftJoin {
		t.Error("Ri outer join should be left")
	}
}

func TestSSSPParsing(t *testing.T) {
	sel := mustSelect(t, SSSPQuery)
	cte := sel.With.CTEs[0]
	iterCore := cte.Iter.Body.(*ast.SelectCore)
	if iterCore.Where == nil {
		t.Error("SSSP Ri must have a WHERE clause (drives the merge path)")
	}
	// Final query has its own WHERE.
	finalCore := sel.Body.(*ast.SelectCore)
	if finalCore.Where == nil {
		t.Error("Qf WHERE missing")
	}
}

func TestFFParsing(t *testing.T) {
	sel := mustSelect(t, FFQuery)
	cte := sel.With.CTEs[0]
	if cte.Until.N != 5 {
		t.Errorf("FF iterations = %d", cte.Until.N)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Error("FF order by")
	}
	if sel.Limit == nil {
		t.Error("FF limit")
	}
}

func TestTerminationVariants(t *testing.T) {
	base := "WITH ITERATIVE r (a) AS (SELECT 1 ITERATE SELECT a + 1 FROM r UNTIL %s) SELECT * FROM r"
	cases := []struct {
		until string
		check func(ast.Termination) bool
	}{
		{"3 ITERATIONS", func(tc ast.Termination) bool { return tc.Type == ast.TermMetadata && tc.N == 3 && !tc.CountUpdates }},
		{"100 UPDATES", func(tc ast.Termination) bool { return tc.Type == ast.TermMetadata && tc.N == 100 && tc.CountUpdates }},
		{"ANY (a > 5)", func(tc ast.Termination) bool { return tc.Type == ast.TermData && tc.Any && tc.Expr != nil }},
		{"ALL (a > 5)", func(tc ast.Termination) bool { return tc.Type == ast.TermData && !tc.Any }},
		{"DELTA < 1", func(tc ast.Termination) bool { return tc.Type == ast.TermDelta && tc.N == 1 }},
	}
	for _, c := range cases {
		sel := mustSelect(t, strings.Replace(base, "%s", c.until, 1))
		tc := sel.With.CTEs[0].Until
		if !c.check(tc) {
			t.Errorf("UNTIL %s parsed as %+v", c.until, tc)
		}
	}
}

func TestTerminationErrors(t *testing.T) {
	bad := []string{
		"WITH ITERATIVE r (a) AS (SELECT 1 ITERATE SELECT a FROM r UNTIL 0 ITERATIONS) SELECT * FROM r",
		"WITH ITERATIVE r (a) AS (SELECT 1 ITERATE SELECT a FROM r UNTIL -3 ITERATIONS) SELECT * FROM r",
		"WITH ITERATIVE r (a) AS (SELECT 1 ITERATE SELECT a FROM r UNTIL FOO) SELECT * FROM r",
		"WITH ITERATIVE r (a) AS (SELECT 1 ITERATE SELECT a FROM r UNTIL 5) SELECT * FROM r",
		"WITH r (a) AS (SELECT 1 ITERATE SELECT a FROM r UNTIL 5 ITERATIONS) SELECT * FROM r", // ITERATE without ITERATIVE
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDDLDMLParsing(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE pr (node int PRIMARY KEY, rank float, delta float)").(*ast.CreateTable)
	if ct.Name != "pr" || len(ct.Cols) != 3 || !ct.Cols[0].PrimaryKey {
		t.Errorf("create: %+v", ct)
	}
	ct = mustParse(t, "CREATE TEMP TABLE IF NOT EXISTS t (x int)").(*ast.CreateTable)
	if !ct.Temp || !ct.IfNotExists {
		t.Error("temp/if-not-exists flags")
	}
	dt := mustParse(t, "DROP TABLE IF EXISTS t").(*ast.DropTable)
	if !dt.IfExists {
		t.Error("drop if exists")
	}
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*ast.Insert)
	if len(ins.Rows) != 2 || len(ins.Cols) != 2 {
		t.Errorf("insert: %+v", ins)
	}
	ins = mustParse(t, "INSERT INTO t SELECT src, dst FROM edges").(*ast.Insert)
	if ins.Select == nil {
		t.Error("insert-select")
	}
	upd := mustParse(t, "UPDATE pr SET rank = i.rank, delta = i.delta FROM intermediate AS i WHERE pr.node = i.node").(*ast.Update)
	if len(upd.Sets) != 2 || upd.From == nil || upd.Where == nil {
		t.Errorf("update: %+v", upd)
	}
	del := mustParse(t, "DELETE FROM t WHERE x = 1").(*ast.Delete)
	if del.Where == nil {
		t.Error("delete where")
	}
	tr := mustParse(t, "TRUNCATE TABLE t").(*ast.Delete)
	if tr.Where != nil || tr.Table != "t" {
		t.Error("truncate")
	}
	ex := mustParse(t, "EXPLAIN SELECT 1").(*ast.Explain)
	if _, ok := ex.Stmt.(*ast.SelectStmt); !ok {
		t.Error("explain")
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE t (x int);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("stmts = %d", len(stmts))
	}
	if _, err := ParseAll(";;;"); err == nil {
		t.Error("empty script should fail")
	}
	if _, err := ParseAll("SELECT 1 SELECT 2"); err == nil {
		t.Error("missing semicolon should fail")
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("delta < 0.001 AND node != 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(ast.SplitConjuncts(e)) != 2 {
		t.Error("conjuncts")
	}
	if _, err := ParseExpr("a +"); err == nil {
		t.Error("truncated expr should fail")
	}
	if _, err := ParseExpr("a b c"); err == nil {
		t.Error("trailing garbage should fail")
	}
}

func TestRoundTrip(t *testing.T) {
	// String() output of a parsed statement must re-parse to the same
	// string (idempotent printing).
	queries := []string{
		PRQuery, SSSPQuery, FFQuery,
		"SELECT DISTINCT a, b AS x FROM t LEFT JOIN s ON t.id = s.id WHERE a > 1 GROUP BY a, b HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 3",
		"SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t",
		"INSERT INTO t (a) SELECT x FROM s",
		"UPDATE t SET a = 1 FROM s WHERE t.id = s.id",
	}
	for _, q := range queries {
		s1 := mustParse(t, q)
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", printed, err)
			continue
		}
		if s2.String() != printed {
			t.Errorf("round trip not idempotent:\n first: %s\nsecond: %s", printed, s2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC 1",
		"SELECT",
		"SELECT 1 FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t JOIN s",      // missing ON
		"SELECT * FROM (SELECT 1",     // unclosed subquery
		"CREATE TABLE t (x blob)",     // unknown type
		"INSERT INTO t VALUES (1",     // unclosed values
		"SELECT CAST(x AS blob)",      // unknown cast type
		"SELECT CASE END",             // empty case
		"WITH x AS SELECT 1 SELECT 2", // missing parens
		"UPDATE t",                    // missing SET
		"SELECT a NOT 5",              // dangling NOT
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestKeywordsAsColumnNames(t *testing.T) {
	// DELTA and KEY appear as column names in the paper's schemas.
	sel := mustSelect(t, "SELECT delta, key FROM t WHERE delta != 9999999")
	items := sel.Body.(*ast.SelectCore).Items
	if items[0].Expr.(*ast.ColumnRef).Name != "delta" {
		t.Error("delta as column")
	}
	if items[1].Expr.(*ast.ColumnRef).Name != "key" {
		t.Error("key as column")
	}
}

func TestQualifiedStar(t *testing.T) {
	sel := mustSelect(t, "SELECT t.* FROM t")
	if s, ok := sel.Body.(*ast.SelectCore).Items[0].Expr.(*ast.Star); !ok || s.Table != "t" {
		t.Error("qualified star")
	}
}

func TestParenthesizedUnionBody(t *testing.T) {
	sel := mustSelect(t, "(SELECT 1) UNION (SELECT 2)")
	if _, ok := sel.Body.(*ast.UnionExpr); !ok {
		t.Error("parenthesized union arms")
	}
}
