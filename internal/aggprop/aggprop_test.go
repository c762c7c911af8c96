package aggprop

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

// fakeLookup resolves the small catalog the tests share.
type fakeLookup struct {
	tables map[string]sqltypes.Schema
}

func (f *fakeLookup) TableSchema(name string) (sqltypes.Schema, bool) {
	s, ok := f.tables[strings.ToLower(name)]
	return s, ok
}

func (f *fakeLookup) ResultSchema(string) (sqltypes.Schema, bool) { return nil, false }

func newLookup() *fakeLookup {
	return &fakeLookup{tables: map[string]sqltypes.Schema{
		"edges": {
			{Name: "src", Type: sqltypes.Int},
			{Name: "dst", Type: sqltypes.Int},
			{Name: "weight", Type: sqltypes.Float},
		},
		"vertexstatus": {
			{Name: "node", Type: sqltypes.Int},
			{Name: "status", Type: sqltypes.Int},
		},
	}}
}

// cteOf parses a full iterative query and returns its first CTE plus
// the CTE schema the rewriter would hand the analysis (column names
// from the declared list; types are irrelevant to the analysis).
func cteOf(t *testing.T, sql string) (*ast.CTE, sqltypes.Schema) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok || sel.With == nil || len(sel.With.CTEs) == 0 {
		t.Fatalf("no CTE in %q", sql)
	}
	cte := sel.With.CTEs[0]
	schema := make(sqltypes.Schema, len(cte.Cols))
	for i, c := range cte.Cols {
		schema[i] = sqltypes.Column{Name: c, Type: sqltypes.Float}
	}
	return cte, schema
}

func analyze(t *testing.T, sql string) Verdict {
	t.Helper()
	cte, schema := cteOf(t, sql)
	return AnalyzeCTE(cte, schema, newLookup())
}

func hasRule(v Verdict, rule string) bool {
	for _, e := range v.Evidence {
		if e.Rule == rule {
			return true
		}
	}
	return false
}

func diagsContain(v Verdict, frag string) bool {
	for _, d := range v.Diags {
		if strings.Contains(d, frag) {
			return true
		}
	}
	return false
}

const prSQL = `WITH ITERATIVE PageRank (Node, Rank, Delta)
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
 UNTIL 3 ITERATIONS )
SELECT Node, Rank FROM PageRank`

const ssspSQL = `WITH ITERATIVE sssp (Node, Distance, Delta)
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
 UNTIL 3 ITERATIONS)
SELECT Node, Distance FROM sssp`

// The two workload shapes the license exists for. The names carry the
// aggregate each query folds — SUM is invertible, MIN monotone, in
// DBSP's terms — which the analysis itself never looks at
// (TestAggregateFunctionDoesNotDecide).
func TestPRLicensedInvertible(t *testing.T) {
	v := analyze(t, prSQL)
	if !v.Licensed {
		t.Fatalf("PR not licensed: %v", v.Diags)
	}
	if len(v.Calls) != 1 || v.Calls[0] != "SUM" {
		t.Errorf("calls = %v, want [SUM]", v.Calls)
	}
	if v.OuterAlias != "pagerank" {
		t.Errorf("outer alias = %q", v.OuterAlias)
	}
	for _, rule := range []string{"chain-shape", "group-key-stability", "routing"} {
		if !hasRule(v, rule) {
			t.Errorf("missing evidence rule %q in %v", rule, v.Evidence)
		}
	}
	// The inner self-reference routes through edges[src->dst]: the
	// propagation rule the runtime closes the frontier with.
	if len(v.Props) != 1 || v.Props[0].Table != "edges" || v.Props[0].From != 0 || v.Props[0].To != 1 {
		t.Errorf("props = %v, want edges[0->1]", v.Props)
	}
}

func TestSSSPLicensedMonotone(t *testing.T) {
	v := analyze(t, ssspSQL)
	if !v.Licensed {
		t.Fatalf("SSSP not licensed: %v", v.Diags)
	}
	if len(v.Calls) != 1 || v.Calls[0] != "MIN" {
		t.Errorf("calls = %v, want [MIN]", v.Calls)
	}
	if len(v.Props) != 1 || v.Props[0].Table != "edges" {
		t.Errorf("props = %v, want one edges route", v.Props)
	}
}

// TestAggregateFunctionDoesNotDecide: both incremental steps re-evaluate
// an affected key's whole group and reuse an unaffected key's row
// verbatim, which is sound for any aggregate — so the shapes a
// decomposability lattice would refuse (MIN with no LEAST envelope,
// MAX under the wrong envelope, a DISTINCT aggregate) are licensed by
// the same three proofs as everything else.
func TestAggregateFunctionDoesNotDecide(t *testing.T) {
	for name, tc := range map[string]struct{ sql, call string }{
		"MIN without envelope": {strings.ReplaceAll(ssspSQL, "LEAST(sssp.distance, sssp.delta)", "sssp.distance"), "MIN"},
		"MAX under LEAST":      {strings.ReplaceAll(ssspSQL, "MIN(", "MAX("), "MAX"},
		"SUM DISTINCT":         {strings.Replace(prSQL, "SUM(", "SUM(DISTINCT ", 1), "SUM DISTINCT"},
	} {
		v := analyze(t, tc.sql)
		if !v.Licensed {
			t.Errorf("%s not licensed: %v", name, v.Diags)
		}
		if len(v.Calls) != 1 || v.Calls[0] != tc.call {
			t.Errorf("%s: calls = %v, want [%s]", name, v.Calls, tc.call)
		}
	}
}

func TestGroupKeyMustIncludeOuterKey(t *testing.T) {
	// Group on the rank expression only: groups are no longer keyed by
	// the outer Node, so their identity can shift across the back-edge.
	sql := strings.Replace(prSQL,
		"GROUP BY PageRank.node, PageRank.rank + PageRank.delta",
		"GROUP BY PageRank.rank + PageRank.delta", 1)
	v := analyze(t, sql)
	if v.Licensed {
		t.Fatal("GROUP BY without the outer key must not be licensed")
	}
	if !diagsContain(v, "outer key") {
		t.Errorf("diags = %v", v.Diags)
	}
}

func TestGroupKeyMustReadOuterOnly(t *testing.T) {
	// A grouping expression reading a joined table's column can change
	// value without the outer key changing.
	sql := strings.Replace(prSQL,
		"GROUP BY PageRank.node, PageRank.rank + PageRank.delta",
		"GROUP BY PageRank.node, IncomingEdges.weight", 1)
	v := analyze(t, sql)
	if v.Licensed {
		t.Fatal("GROUP BY over non-outer columns must not be licensed")
	}
	if !diagsContain(v, "non-outer columns") {
		t.Errorf("diags = %v", v.Diags)
	}
}

func TestUnroutedInnerReferenceFailsClosed(t *testing.T) {
	// Join the inner self-reference on a non-key column: no equijoin
	// path routes its rows back to the outer key, so a retraction could
	// leave a group invisibly to the frontier.
	sql := strings.Replace(ssspSQL,
		"ON IncomingDistance.node = IncomingEdges.src",
		"ON IncomingDistance.delta = IncomingEdges.weight", 1)
	v := analyze(t, sql)
	if v.Licensed {
		t.Fatal("unrouted inner reference must not be licensed")
	}
	if !diagsContain(v, "no key-equijoin route") {
		t.Errorf("diags = %v", v.Diags)
	}
}

// Without aggregates the license still holds (the delta step needs
// none); that there is nothing to maintain on the rename path is the
// rewrite's call, made from the empty Calls.
func TestNoAggregatesNothingToMaintain(t *testing.T) {
	v := analyze(t, `WITH ITERATIVE f (node, friends)
AS ( SELECT src, 1 FROM edges
 ITERATE SELECT node, friends * 2 FROM f
 UNTIL 3 ITERATIONS )
SELECT node, friends FROM f`)
	if !v.Licensed || len(v.Calls) != 0 {
		t.Fatalf("verdict = %+v, want licensed with no calls", v)
	}
}

// The planner rejects a bare column next to an ungrouped aggregate, but
// the proof must not lean on that: one implicit group spans every key.
func TestScalarAggregateFailsClosed(t *testing.T) {
	v := analyze(t, `WITH ITERATIVE f (node, total)
AS ( SELECT src, 1 FROM edges
 ITERATE SELECT f.node, SUM(total) FROM f
 UNTIL 3 ITERATIONS )
SELECT node, total FROM f`)
	if v.Licensed {
		t.Fatal("an ungrouped aggregate must not be licensed")
	}
	if !diagsContain(v, "no GROUP BY") {
		t.Errorf("diags = %v", v.Diags)
	}
}

func TestRightJoinFailsClosed(t *testing.T) {
	sql := strings.Replace(ssspSQL, "LEFT JOIN edges", "RIGHT JOIN edges", 1)
	v := analyze(t, sql)
	if v.Licensed {
		t.Fatal("a RIGHT JOIN in the chain must not be licensed")
	}
	if !diagsContain(v, "RIGHT JOIN") {
		t.Errorf("diags = %v", v.Diags)
	}
}
