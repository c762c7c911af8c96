package mpp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// parityRT holds a(x, s) and b(y, t), stored in tableParts partitions: x
// and y repeat, meet each other on some values only and are NULL in
// every fifth row; s and t are unique, so ORDER BY on them is total. a
// is hash-distributed on x, b dealt round-robin.
func parityRT(t *testing.T, tableParts int) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(tableParts)
	mk := func(name, key, val string, dist, n, mod int) {
		tb, err := cat.Create(name, sqltypes.Schema{{Name: key, Type: sqltypes.Int}, {Name: val, Type: sqltypes.String}}, -1)
		if err != nil {
			t.Fatal(err)
		}
		tb.DistCol = dist
		for i := 0; i < n; i++ {
			k := sqltypes.NewInt(int64(i % mod))
			if i%5 == 4 {
				k = sqltypes.NullValue
			}
			tb.Insert(sqltypes.Row{k, sqltypes.NewString(fmt.Sprintf("%s%02d", val, i))})
		}
	}
	mk("a", "x", "s", 0, 23, 7)
	mk("b", "y", "t", -1, 17, 8)
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// parityShape is one plan shape of the table: how to plan it, the node
// kind it is there for, and whether the plan defines its rows' order.
type parityShape struct {
	name    string
	sql     string                                // planned from SQL, or
	build   func(rt *exec.StoreRuntime) plan.Node // built by hand
	kind    plan.Node                             // a node of this type must be in the plan
	ordered bool
	wantErr string
}

func values(rows ...int64) *plan.ValuesNode {
	v := &plan.ValuesNode{Cols: []plan.ColInfo{{Name: "v", Type: sqltypes.Int}}}
	for _, r := range rows {
		v.Rows = append(v.Rows, []ast.Expr{ast.NewLiteral(sqltypes.NewInt(r))})
	}
	return v
}

var parityShapes = []parityShape{
	{name: "scan", sql: "SELECT * FROM b", kind: (*plan.Scan)(nil)},
	{name: "filter", sql: "SELECT x, s FROM a WHERE x > 2", kind: (*plan.Filter)(nil)},
	{name: "project", sql: "SELECT x * 2 + 1, s FROM a", kind: (*plan.Project)(nil)},
	{name: "alias", sql: "SELECT q.s FROM (SELECT s, x FROM a) AS q WHERE q.x IS NOT NULL", kind: (*plan.Alias)(nil)},
	{name: "union all", sql: "SELECT x FROM a UNION ALL SELECT y FROM b", kind: (*plan.Union)(nil)},
	{name: "distinct", sql: "SELECT DISTINCT x FROM a", kind: (*plan.Distinct)(nil)},
	{name: "union", sql: "SELECT x FROM a UNION SELECT y FROM b", kind: (*plan.Distinct)(nil)},
	{name: "sort", sql: "SELECT s, x FROM a ORDER BY s DESC", kind: (*plan.Sort)(nil), ordered: true},
	{name: "sort on two keys", sql: "SELECT x, s FROM a ORDER BY x, s", kind: (*plan.Sort)(nil), ordered: true},
	{name: "trim", sql: "SELECT x FROM a ORDER BY s", kind: (*plan.Trim)(nil), ordered: true},
	{name: "limit with offset past the end", sql: "SELECT x FROM a LIMIT 3 OFFSET 1000", kind: (*plan.Limit)(nil)},
	{name: "limit above everything", sql: "SELECT s FROM a LIMIT 1000 OFFSET 0", kind: (*plan.Limit)(nil)},
	{name: "limit over a sort", kind: (*plan.Limit)(nil), ordered: true, build: func(rt *exec.StoreRuntime) plan.Node {
		sorted := planOf(rt, "SELECT s, x FROM a ORDER BY s")
		return &plan.Limit{Input: sorted, Counts: plan.Counts{N: 4, Offset: 3}}
	}},
	{name: "top-N with offset", sql: "SELECT s FROM a ORDER BY s DESC LIMIT 3 OFFSET 2", kind: (*plan.TopN)(nil), ordered: true},
	{name: "top-N with offset past the end", sql: "SELECT s FROM a ORDER BY s LIMIT 3 OFFSET 100", kind: (*plan.TopN)(nil), ordered: true},
	{name: "top-N over a join", sql: "SELECT a.s, b.t FROM a JOIN b ON a.x = b.y ORDER BY a.s, b.t LIMIT 5 OFFSET 1", kind: (*plan.TopN)(nil), ordered: true},
	{name: "values", kind: (*plan.ValuesNode)(nil), build: func(*exec.StoreRuntime) plan.Node { return values(3, 1, 2) }},
	{name: "values under a union and a filter", kind: (*plan.ValuesNode)(nil), build: func(rt *exec.StoreRuntime) plan.Node {
		return &plan.Union{Left: values(1, 2), Right: planOf(rt, "SELECT x FROM a WHERE x < 2")}
	}},
	{name: "one row under a project", sql: "SELECT 1 + 1", kind: (*plan.OneRow)(nil)},
	{name: "empty", sql: "SELECT x FROM a WHERE 1 = 0", kind: (*plan.EmptyNode)(nil)},
	{name: "cross join", sql: "SELECT a.s, b.t FROM a, b", kind: (*plan.Join)(nil)},
	{name: "cross join with one row", sql: "SELECT a.s, o.c FROM a, (SELECT 7 AS c) AS o", kind: (*plan.OneRow)(nil)},
	{name: "non-equi inner join", sql: "SELECT a.s, b.t FROM a JOIN b ON a.x < b.y", kind: (*plan.Join)(nil)},
	{name: "inner join", sql: "SELECT a.s, b.t FROM a JOIN b ON a.x = b.y", kind: (*plan.Join)(nil)},
	{name: "left join", sql: "SELECT a.s, b.t FROM a LEFT JOIN b ON a.x = b.y", kind: (*plan.Join)(nil)},
	{name: "right join", sql: "SELECT a.s, b.t FROM a RIGHT JOIN b ON a.x = b.y", kind: (*plan.Join)(nil)},
	{name: "full join", sql: "SELECT a.s, b.t FROM a FULL JOIN b ON a.x = b.y", kind: (*plan.Join)(nil)},
	{name: "full join with a residual", sql: "SELECT a.s, b.t FROM a FULL JOIN b ON a.x = b.y AND a.s < b.t", kind: (*plan.Join)(nil)},
	{name: "outer join without an equality", sql: "SELECT a.s FROM a LEFT JOIN b ON a.x < b.y", kind: (*plan.Join)(nil),
		wantErr: "outer join requires at least one equality condition between the two sides"},
	{name: "scalar aggregate", sql: "SELECT COUNT(*), SUM(x), MIN(s) FROM a", kind: (*plan.Aggregate)(nil)},
	{name: "scalar aggregate over no rows", sql: "SELECT COUNT(*), SUM(x) FROM a WHERE x > 1000", kind: (*plan.Aggregate)(nil)},
	{name: "scalar aggregate over the empty node", sql: "SELECT COUNT(*), MAX(x) FROM a WHERE 1 = 0", kind: (*plan.EmptyNode)(nil)},
	{name: "scalar aggregate as a join side", sql: "SELECT a.s, m.hi FROM a JOIN (SELECT MAX(y) AS hi FROM b) AS m ON a.x < m.hi", kind: (*plan.Aggregate)(nil)},
	{name: "grouped aggregate", sql: "SELECT x, COUNT(*), MIN(s), SUM(x) FROM a GROUP BY x", kind: (*plan.Aggregate)(nil)},
	{name: "grouped aggregate over a join, sorted", sql: "SELECT a.x, COUNT(*) AS c FROM a JOIN b ON a.x = b.y GROUP BY a.x ORDER BY a.x", kind: (*plan.Aggregate)(nil), ordered: true},
}

func planOf(rt *exec.StoreRuntime, sql string) plan.Node {
	stmt, err := parser.Parse(sql)
	if err != nil {
		panic(fmt.Sprintf("parse %q: %v", sql, err))
	}
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		panic(fmt.Sprintf("plan %q: %v", sql, err))
	}
	return node
}

func hasKind(n plan.Node, kind plan.Node) bool {
	if reflect.TypeOf(n) == reflect.TypeOf(kind) {
		return true
	}
	for _, c := range n.Children() {
		if hasKind(c, kind) {
			return true
		}
	}
	return false
}

// find returns the first node of type T in the plan below n, in
// pre-order; the zero T when there is none.
func find[T plan.Node](n plan.Node) (none T) {
	if t, ok := n.(T); ok {
		return t
	}
	for _, c := range n.Children() {
		if t := find[T](c); plan.Node(t) != plan.Node(none) {
			return t
		}
	}
	return none
}

// TestVolcanoParity runs every plan node kind, in the shapes above,
// through exec.Run and through the machine at 1 to 4 partitions — over
// tables partitioned like the machine and over tables in 5 partitions,
// which it re-deals — and demands the same rows: in order where the plan
// defines one, as a multiset otherwise, and the same error text where
// the plan is refused. One interpreter runs both, so this is a statement
// about where the machine puts its exchanges.
func TestVolcanoParity(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 4} {
		for _, tableParts := range []int{parts, 5} {
			rt := parityRT(t, tableParts)
			for _, c := range parityShapes {
				label := fmt.Sprintf("%s/parts=%d/tables=%d", c.name, parts, tableParts)
				var node plan.Node
				if c.build != nil {
					node = c.build(rt)
				} else {
					node = planOf(rt, c.sql)
				}
				if !hasKind(node, c.kind) {
					t.Errorf("%s: no %T in the plan, the shape tests something else:\n%s", label, c.kind, plan.ExplainTree(node))
				}
				var vs, ms exec.Stats
				want, werr := exec.Run(node, rt, &vs)
				got, gerr := New(rt, parts, nil, &ms).Run(node)
				if c.wantErr != "" {
					if werr == nil || gerr == nil || werr.Error() != c.wantErr || gerr.Error() != c.wantErr {
						t.Errorf("%s: volcano says %v, the machine %v, want both to say %q", label, werr, gerr, c.wantErr)
					}
					continue
				}
				if werr != nil || gerr != nil {
					t.Errorf("%s: volcano %v, machine %v", label, werr, gerr)
					continue
				}
				if c.ordered {
					if g, w := rowsText(got), rowsText(want); g != w {
						t.Errorf("%s: ordered rows differ\n got:\n%s\nwant:\n%s", label, g, w)
					}
				} else {
					assertSameMultiset(t, label, want, got)
				}
				// The same operators ran over the same rows: what they
				// emitted agrees whatever the exchanges did in between.
				if ms.RowsJoined != vs.RowsJoined || ms.RowsScanned != vs.RowsScanned || ms.ResultCellsRead != vs.ResultCellsRead {
					t.Errorf("%s: the machine counts %+v, volcano %+v", label, ms, vs)
				}
			}
		}
	}
}

func rowsText(rows []sqltypes.Row) string {
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = r.String()
	}
	return strings.Join(strs, "\n")
}

// TestSingleNodesRunOnce: a scalar aggregate, VALUES and the one-row
// source exist once, not once per partition — whatever sits on top of
// them in the same fragment, and also when nothing reaches the
// aggregate.
func TestSingleNodesRunOnce(t *testing.T) {
	rt := parityRT(t, 4)
	for _, c := range []struct {
		node plan.Node
		want string
	}{
		{planOf(rt, "SELECT COUNT(*) + 1 FROM a WHERE x > 1000"), "1"},
		{planOf(rt, "SELECT COUNT(*) FROM (SELECT COUNT(*) FROM a) AS c"), "1"},
		{planOf(rt, "SELECT 40 + 2"), "42"},
		{&plan.Distinct{Input: values(5, 5)}, "5"},
	} {
		var st Stats
		rows, err := New(rt, 4, &st, nil).Run(c.node)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsText(rows); got != c.want {
			t.Errorf("%s\n got %q, want %q", plan.ExplainTree(c.node), got, c.want)
		}
	}
}

// TestElidedExchangeIsCountedAndChecked: an exchange the analysis
// licensed away moves nothing and counts its input rows as elided,
// whether they flow out of a table or out of an operator; with
// CheckElide the tap re-hashes them, and a claim that does not hold
// fails the run.
func TestElidedExchangeIsCountedAndChecked(t *testing.T) {
	const parts = 3
	rt := parityRT(t, parts)
	// a is stored by x: grouping by x, and joining a to itself on x,
	// needs no exchange. The filter makes one build side an operator.
	node := planOf(rt, "SELECT l.x, COUNT(*) FROM a AS l JOIN (SELECT x FROM a WHERE x < 5) AS r ON l.x = r.x GROUP BY l.x")
	want, err := exec.Run(node, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sound := map[plan.Node]Elide{
		find[*plan.Join](node):      {Left: true, LeftCols: []int{0}, Right: true, RightCols: []int{0}},
		find[*plan.Aggregate](node): {Input: true, InputCols: []int{0}},
	}
	var plain, elided Stats
	if _, err := New(rt, parts, &plain, nil).Run(node); err != nil {
		t.Fatal(err)
	}
	m := New(rt, parts, &elided, nil)
	m.Elide, m.CheckElide = sound, true
	got, err := m.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMultiset(t, "elided", want, got)
	left := int64(rt.Catalog.Get("a").Len())
	right, joined := int64(0), int64(0)
	for _, r := range rt.Catalog.Get("a").AllRows() {
		if !r[0].IsNull() && r[0].Int() < 5 {
			right++
		}
	}
	for _, r := range want {
		joined += r[1].Int()
	}
	if elided.ShufflesElided != 3 || elided.RowsElided != left+right+joined {
		t.Errorf("ShufflesElided = %d, RowsElided = %d, want 3 and %d+%d+%d", elided.ShufflesElided, elided.RowsElided, left, right, joined)
	}
	// What still moves is one row per group and partition.
	if elided.RowsShuffled != int64(len(want)) || elided.RowsShuffled >= plain.RowsShuffled {
		t.Errorf("RowsShuffled = %d with the exchanges elided (want the %d groups), %d without", elided.RowsShuffled, len(want), plain.RowsShuffled)
	}
	if elided.Fragments >= plain.Fragments {
		t.Errorf("%d fragments with the exchanges elided, %d without: the pipeline did not fuse", elided.Fragments, plain.Fragments)
	}

	// b is dealt round-robin: claiming it sits by y is unsound.
	bad := planOf(rt, "SELECT a.s, b.t FROM a JOIN b ON a.x = b.y")
	m = New(rt, parts, nil, nil)
	m.Elide, m.CheckElide = map[plan.Node]Elide{find[*plan.Join](bad): {Right: true, RightCols: []int{0}}}, true
	if _, err := m.Run(bad); err == nil || !strings.Contains(err.Error(), "elided join right exchange is unsound") {
		t.Errorf("an unsound claim under CheckElide returned %v", err)
	}
}
