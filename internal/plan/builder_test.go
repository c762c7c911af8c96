package plan

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

// fakeLookup is a TableLookup with fixed schemas.
type fakeLookup struct {
	tables  map[string]sqltypes.Schema
	results map[string]sqltypes.Schema
}

func (f *fakeLookup) TableSchema(name string) (sqltypes.Schema, bool) {
	s, ok := f.tables[strings.ToLower(name)]
	return s, ok
}

func (f *fakeLookup) ResultSchema(name string) (sqltypes.Schema, bool) {
	s, ok := f.results[strings.ToLower(name)]
	return s, ok
}

func testLookup() *fakeLookup {
	return &fakeLookup{
		tables: map[string]sqltypes.Schema{
			"edges": {
				{Name: "src", Type: sqltypes.Int},
				{Name: "dst", Type: sqltypes.Int},
				{Name: "weight", Type: sqltypes.Float},
			},
			"vertexstatus": {
				{Name: "node", Type: sqltypes.Int},
				{Name: "status", Type: sqltypes.Int},
			},
		},
		results: map[string]sqltypes.Schema{
			"pagerank": {
				{Name: "node", Type: sqltypes.Int},
				{Name: "rank", Type: sqltypes.Float},
				{Name: "delta", Type: sqltypes.Float},
			},
		},
	}
}

func buildSQL(t *testing.T, sql string) Node {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, err := NewBuilder(testLookup()).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return n
}

func buildErr(t *testing.T, sql string) error {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = NewBuilder(testLookup()).Build(stmt.(*ast.SelectStmt))
	if err == nil {
		t.Fatalf("build %q should fail", sql)
	}
	return err
}

func TestBuildScanProject(t *testing.T) {
	n := buildSQL(t, "SELECT src, weight * 2 AS w2 FROM edges")
	p, ok := n.(*Project)
	if !ok {
		t.Fatalf("top node %T", n)
	}
	cols := p.Columns()
	if cols[0].Name != "src" || cols[0].Type != sqltypes.Int {
		t.Errorf("col0 = %+v", cols[0])
	}
	if cols[1].Name != "w2" || cols[1].Type != sqltypes.Float {
		t.Errorf("col1 = %+v", cols[1])
	}
	if _, ok := p.Input.(*Scan); !ok {
		t.Errorf("input %T", p.Input)
	}
}

func TestBuildFilter(t *testing.T) {
	n := buildSQL(t, "SELECT src FROM edges WHERE weight > 0.5")
	f, ok := n.(*Project).Input.(*Filter)
	if !ok {
		t.Fatalf("expected filter below project, got %T", n.(*Project).Input)
	}
	if !strings.Contains(f.Explain(), "weight") {
		t.Error("filter explain")
	}
}

// TestPlaceWhere pins the placement rules on SSSP's join chain and its
// variants: what each WHERE makes of the plan below the projection.
func TestPlaceWhere(t *testing.T) {
	const chain = "SELECT pagerank.node FROM pagerank LEFT JOIN edges AS e ON pagerank.node = e.dst LEFT JOIN pagerank AS d ON d.node = e.src "
	for _, c := range []struct{ where, want string }{
		// A strict conjunct over the nullable input goes down and makes
		// the join inner; the enclosing inner join's key reads edges, the
		// nullable input of the first join, which becomes inner too.
		{"WHERE d.delta != 1", `HashJoin Inner on (d.node = e.src)
  HashJoin Inner on (pagerank.node = e.dst)
    Result pagerank
    Scan edges AS e
  Filter (d.delta != 1)
    Result pagerank AS d
`},
		// A non-strict one stays above the join that NULL-extends it.
		{"WHERE COALESCE(d.delta, 0) != 1 AND e.weight > 0", `Filter (COALESCE(d.delta, 0) != 1)
  HashJoin LeftOuter on (d.node = e.src)
    HashJoin Inner on (pagerank.node = e.dst)
      Result pagerank
      Filter (e.weight > 0)
        Scan edges AS e
    Result pagerank AS d
`},
		// The preserved input takes any conjunct; one over both inputs
		// stays above the join it needs.
		{"WHERE pagerank.rank IS NULL AND pagerank.rank < d.rank", `Filter (pagerank.rank < d.rank)
  HashJoin Inner on (d.node = e.src)
    HashJoin Inner on (pagerank.node = e.dst)
      Filter (pagerank.rank IS NULL)
        Result pagerank
      Scan edges AS e
    Result pagerank AS d
`},
	} {
		got := ExplainTree(buildSQL(t, chain+c.where).(*Project).Input)
		if got != c.want {
			t.Errorf("%s:\n got:\n%s\nwant:\n%s", c.where, got, c.want)
		}
	}
	// A full join passes nothing down.
	n := buildSQL(t, "SELECT e.src FROM edges AS e FULL JOIN vertexStatus AS v ON v.node = e.dst WHERE v.status != 0 AND e.weight > 0")
	if got, want := ExplainTree(n.(*Project).Input), `Filter ((v.status != 0) AND (e.weight > 0))
  HashJoin FullOuter on (v.node = e.dst)
    Scan edges AS e
    Scan vertexStatus AS v
`; got != want {
		t.Errorf("full join:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestBuildStar(t *testing.T) {
	n := buildSQL(t, "SELECT * FROM edges")
	cols := n.Columns()
	if len(cols) != 3 || cols[0].Name != "src" || cols[2].Name != "weight" {
		t.Errorf("star cols = %+v", cols)
	}
	n = buildSQL(t, "SELECT e.* FROM edges AS e JOIN vertexStatus v ON e.src = v.node")
	cols = n.Columns()
	if len(cols) != 3 {
		t.Errorf("qualified star cols = %+v", cols)
	}
}

func TestBuildJoin(t *testing.T) {
	n := buildSQL(t, `SELECT e.src, v.status FROM edges e LEFT JOIN vertexStatus v ON e.src = v.node`)
	j, ok := n.(*Project).Input.(*Join)
	if !ok {
		t.Fatalf("expected join, got %T", n.(*Project).Input)
	}
	if j.Type != ast.LeftJoin {
		t.Error("join type")
	}
	if len(j.Columns()) != 5 {
		t.Errorf("join columns = %d", len(j.Columns()))
	}
}

func TestBuildAggregate(t *testing.T) {
	n := buildSQL(t, "SELECT src, COUNT(dst) AS c, SUM(weight) FROM edges GROUP BY src")
	p := n.(*Project)
	agg, ok := p.Input.(*Aggregate)
	if !ok {
		t.Fatalf("expected aggregate, got %T", p.Input)
	}
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Errorf("agg shape: %d group, %d aggs", len(agg.GroupBy), len(agg.Aggs))
	}
	if agg.Aggs[0].Name != "COUNT" || agg.Aggs[1].Name != "SUM" {
		t.Errorf("agg names: %+v", agg.Aggs)
	}
	cols := p.Columns()
	if cols[1].Name != "c" || cols[1].Type != sqltypes.Int {
		t.Errorf("count col: %+v", cols[1])
	}
	if cols[2].Name != "sum" || cols[2].Type != sqltypes.Float {
		t.Errorf("sum col: %+v", cols[2])
	}
}

func TestAggregateGroupExprMatch(t *testing.T) {
	// The PR pattern: a computed group expression reused in the select
	// list, case-insensitively.
	n := buildSQL(t, `SELECT PageRank.node, PageRank.rank + PageRank.delta,
		0.85 * SUM(pagerank.delta)
		FROM pagerank GROUP BY pagerank.NODE, pagerank.rank + PAGERANK.delta`)
	p := n.(*Project)
	agg := p.Input.(*Aggregate)
	if len(agg.GroupBy) != 2 || len(agg.Aggs) != 1 {
		t.Fatalf("agg shape: %d group, %d aggs", len(agg.GroupBy), len(agg.Aggs))
	}
	// Items must reference #agg columns only.
	for _, it := range p.Items {
		for _, ref := range ast.ColumnRefs(it.Expr) {
			if ref.Table != AggTable {
				t.Errorf("unrewritten column ref %s in %s", ref, it.Expr)
			}
		}
	}
}

func TestAggregateDedup(t *testing.T) {
	n := buildSQL(t, "SELECT SUM(weight), SUM(weight) + 1 FROM edges")
	agg := n.(*Project).Input.(*Aggregate)
	if len(agg.Aggs) != 1 {
		t.Errorf("identical aggregates should be computed once, got %d", len(agg.Aggs))
	}
	if len(agg.GroupBy) != 0 {
		t.Error("scalar aggregate should have no group keys")
	}
}

func TestHavingRewrite(t *testing.T) {
	n := buildSQL(t, "SELECT src FROM edges GROUP BY src HAVING COUNT(*) > 2")
	p := n.(*Project)
	f, ok := p.Input.(*Filter)
	if !ok {
		t.Fatalf("expected having filter, got %T", p.Input)
	}
	if _, ok := f.Input.(*Aggregate); !ok {
		t.Fatalf("expected aggregate below having, got %T", f.Input)
	}
	refs := ast.ColumnRefs(f.Cond)
	if len(refs) != 1 || refs[0].Table != AggTable {
		t.Errorf("having cond not rewritten: %s", f.Cond)
	}
}

func TestAggregateErrors(t *testing.T) {
	if err := buildErr(t, "SELECT dst FROM edges GROUP BY src"); !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("naked column error: %v", err)
	}
	buildErr(t, "SELECT SUM(COUNT(src)) FROM edges")           // nested aggs
	buildErr(t, "SELECT src FROM edges WHERE SUM(weight) > 1") // agg in where
	buildErr(t, "SELECT src FROM edges GROUP BY SUM(src)")     // agg in group by
	buildErr(t, "SELECT src FROM edges HAVING src > 1 AND COUNT(*) > 0 AND dst > 1")
	buildErr(t, "SELECT SUM(src, dst) FROM edges") // arity
}

func TestBuildUnion(t *testing.T) {
	n := buildSQL(t, "SELECT src FROM edges UNION SELECT dst FROM edges")
	d, ok := n.(*Distinct)
	if !ok {
		t.Fatalf("UNION should dedup, got %T", n)
	}
	if _, ok := d.Input.(*Union); !ok {
		t.Fatalf("expected union, got %T", d.Input)
	}
	n = buildSQL(t, "SELECT src FROM edges UNION ALL SELECT dst FROM edges")
	if _, ok := n.(*Union); !ok {
		t.Fatalf("UNION ALL should not dedup, got %T", n)
	}
	buildErr(t, "SELECT src, dst FROM edges UNION SELECT src FROM edges")
}

func TestBuildSortLimit(t *testing.T) {
	// ORDER BY + LIMIT fuses into TopN.
	n := buildSQL(t, "SELECT src, dst FROM edges ORDER BY dst DESC, 1 LIMIT 5 OFFSET 2")
	top := n.(*TopN)
	if top.N != 5 || top.Offset != 2 {
		t.Errorf("topn = %+v", top)
	}
	if len(top.Keys) != 2 || top.Keys[0].Col != 1 || !top.Keys[0].Desc || top.Keys[1].Col != 0 {
		t.Errorf("sort keys = %+v", top.Keys)
	}
	// LIMIT without ORDER BY stays a plain Limit.
	n = buildSQL(t, "SELECT src FROM edges LIMIT 3")
	if l := n.(*Limit); l.N != 3 {
		t.Errorf("limit = %+v", l)
	}
	// ORDER BY without LIMIT stays a Sort.
	n = buildSQL(t, "SELECT src FROM edges ORDER BY src")
	if _, ok := n.(*Sort); !ok {
		t.Errorf("expected sort, got %T", n)
	}
	buildErr(t, "SELECT src FROM edges ORDER BY 5")
	buildErr(t, "SELECT src FROM edges ORDER BY nonexistent")
	buildErr(t, "SELECT src FROM edges LIMIT src")
}

func TestOrderByAlias(t *testing.T) {
	n := buildSQL(t, "SELECT src AS s, COUNT(*) AS c FROM edges GROUP BY src ORDER BY c DESC")
	s := n.(*Sort)
	if s.Keys[0].Col != 1 || !s.Keys[0].Desc {
		t.Errorf("order by alias: %+v", s.Keys)
	}
}

func TestBuildSubquery(t *testing.T) {
	n := buildSQL(t, "SELECT t.s FROM (SELECT src AS s FROM edges) AS t WHERE t.s > 1")
	if _, ok := n.(*Project); !ok {
		t.Fatalf("top %T", n)
	}
	// The PR R0 shape: union inside a derived table.
	n = buildSQL(t, "SELECT src, 0, 0.15 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)")
	cols := n.Columns()
	if len(cols) != 3 {
		t.Errorf("R0 columns = %+v", cols)
	}
}

func TestBuildNamedResult(t *testing.T) {
	n := buildSQL(t, "SELECT Node, Rank FROM PageRank")
	p := n.(*Project)
	nr, ok := p.Input.(*NamedResult)
	if !ok {
		t.Fatalf("expected NamedResult, got %T", p.Input)
	}
	if nr.Name != "PageRank" {
		t.Errorf("name = %q", nr.Name)
	}
	// Self-join of a result with aliases, as in the PR iterative part.
	n = buildSQL(t, `SELECT a.node FROM pagerank a LEFT JOIN pagerank b ON a.node = b.node`)
	if len(n.Columns()) != 1 {
		t.Error("self-join project")
	}
}

func TestBuildRegularCTE(t *testing.T) {
	n := buildSQL(t, "WITH nodes (id) AS (SELECT src FROM edges UNION SELECT dst FROM edges) SELECT id FROM nodes WHERE id > 1")
	if _, ok := n.(*Project); !ok {
		t.Fatalf("top %T", n)
	}
	// CTE visible to a later CTE.
	buildSQL(t, "WITH a AS (SELECT src FROM edges), b AS (SELECT * FROM a) SELECT * FROM b")
	// Column-count mismatch in the CTE column list.
	buildErr(t, "WITH x (a, b) AS (SELECT src FROM edges) SELECT * FROM x")
}

func TestBuildErrors(t *testing.T) {
	buildErr(t, "SELECT * FROM nonexistent")
	buildErr(t, "SELECT zzz FROM edges")
	buildErr(t, "SELECT e.src FROM edges a JOIN edges b ON a.src = b.zzz")
	buildErr(t, "SELECT src FROM edges WHERE zzz > 1")
	buildErr(t, "SELECT *") // star without FROM
	buildErr(t, "SELECT z.* FROM edges")
}

func TestIterativeCTEReachesBuilderError(t *testing.T) {
	err := buildErr(t, "WITH ITERATIVE r (a) AS (SELECT 1 ITERATE SELECT a FROM r UNTIL 2 ITERATIONS) SELECT * FROM r")
	if !strings.Contains(err.Error(), "functional rewrite") {
		t.Errorf("error should mention the rewrite: %v", err)
	}
}

func TestExprKeyNormalization(t *testing.T) {
	a, _ := parser.ParseExpr("PageRank.Node + 1")
	b, _ := parser.ParseExpr("pagerank.node + 1")
	if ExprKey(a) != ExprKey(b) {
		t.Error("ExprKey should be case-insensitive on column refs")
	}
	c, _ := parser.ParseExpr("pagerank.node + 2")
	if ExprKey(a) == ExprKey(c) {
		t.Error("different expressions should differ")
	}
}

func TestExplainTree(t *testing.T) {
	n := buildSQL(t, "SELECT src, COUNT(*) FROM edges WHERE weight > 0 GROUP BY src ORDER BY src LIMIT 3")
	out := ExplainTree(n)
	for _, frag := range []string{"TopN 3 by src", "Project", "HashAggregate", "Filter", "Scan edges"} {
		if !strings.Contains(out, frag) {
			t.Errorf("ExplainTree missing %q:\n%s", frag, out)
		}
	}
	// Deeper nodes are indented further than shallower ones.
	if strings.Index(out, "Scan") < strings.Index(out, "TopN") {
		t.Error("scan should print after the top-level operator")
	}
}

func TestSchemaHelper(t *testing.T) {
	n := buildSQL(t, "SELECT src AS a, weight FROM edges")
	s := Schema(n)
	if len(s) != 2 || s[0].Name != "a" || s[1].Type != sqltypes.Float {
		t.Errorf("Schema = %v", s)
	}
}
