package ast

import (
	"strings"
	"testing"

	"dbspinner/internal/sqltypes"
)

func col(t, n string) *ColumnRef { return &ColumnRef{Table: t, Name: n} }

func lit(i int64) *Literal { return NewLiteral(sqltypes.NewInt(i)) }

func TestExprStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{col("t", "a"), "t.a"},
		{col("", "a"), "a"},
		{lit(5), "5"},
		{NewLiteral(sqltypes.NewString("it's")), "'it''s'"},
		{&BinaryExpr{Op: "+", L: col("", "a"), R: lit(1)}, "(a + 1)"},
		{&UnaryExpr{Op: "NOT", E: col("", "b")}, "(NOT b)"},
		{&UnaryExpr{Op: "-", E: lit(3)}, "(-3)"},
		{&FuncCall{Name: "COUNT", Star: true}, "COUNT(*)"},
		{&FuncCall{Name: "SUM", Args: []Expr{col("", "x")}}, "SUM(x)"},
		{&FuncCall{Name: "COUNT", Args: []Expr{col("", "x")}, Distinct: true}, "COUNT(DISTINCT x)"},
		{&CaseExpr{Whens: []WhenClause{{Cond: col("", "c"), Result: lit(1)}}, Else: lit(0)}, "CASE WHEN c THEN 1 ELSE 0 END"},
		{&CastExpr{E: col("", "x"), To: sqltypes.Float}, "CAST(x AS FLOAT)"},
		{&IsNullExpr{E: col("", "x")}, "(x IS NULL)"},
		{&IsNullExpr{E: col("", "x"), Negate: true}, "(x IS NOT NULL)"},
		{&InExpr{E: col("", "x"), List: []Expr{lit(1), lit(2)}}, "(x IN (1, 2))"},
		{&BetweenExpr{E: col("", "x"), Lo: lit(1), Hi: lit(9)}, "(x BETWEEN 1 AND 9)"},
		{&Star{}, "*"},
		{&Star{Table: "t"}, "t.*"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSelectString(t *testing.T) {
	sel := &SelectStmt{
		Body: &SelectCore{
			Items: []SelectItem{{Expr: col("", "node")}, {Expr: col("", "rank"), Alias: "r"}},
			From: &JoinRef{
				Type:  LeftJoin,
				Left:  &BaseTable{Name: "pr"},
				Right: &BaseTable{Name: "edges", Alias: "e"},
				On:    &BinaryExpr{Op: "=", L: col("pr", "node"), R: col("e", "dst")},
			},
			Where:   &BinaryExpr{Op: ">", L: col("", "rank"), R: lit(0)},
			GroupBy: []Expr{col("", "node")},
			Having:  &BinaryExpr{Op: ">", L: &FuncCall{Name: "COUNT", Star: true}, R: lit(1)},
		},
		OrderBy: []OrderItem{{Expr: col("", "rank"), Desc: true}},
		Limit:   lit(10),
	}
	got := sel.String()
	for _, frag := range []string{"SELECT node, rank AS r", "LEFT JOIN edges AS e ON", "GROUP BY node", "HAVING", "ORDER BY rank DESC", "LIMIT 10"} {
		if !strings.Contains(got, frag) {
			t.Errorf("SelectStmt.String() = %q missing %q", got, frag)
		}
	}
}

func TestIterativeCTEString(t *testing.T) {
	cte := &CTE{
		Name:      "r",
		Cols:      []string{"a", "b"},
		Iterative: true,
		Init:      &SelectStmt{Body: &SelectCore{Items: []SelectItem{{Expr: lit(1)}, {Expr: lit(2)}}}},
		Iter:      &SelectStmt{Body: &SelectCore{Items: []SelectItem{{Expr: col("", "a")}, {Expr: col("", "b")}}, From: &BaseTable{Name: "r"}}},
		Until:     Termination{Type: TermMetadata, N: 10},
	}
	got := cte.String()
	for _, frag := range []string{"r (a, b) AS (", "ITERATE", "UNTIL 10 ITERATIONS"} {
		if !strings.Contains(got, frag) {
			t.Errorf("CTE.String() = %q missing %q", got, frag)
		}
	}
}

func TestTerminationString(t *testing.T) {
	cases := []struct {
		tc   Termination
		want string
	}{
		{Termination{Type: TermMetadata, N: 5}, "5 ITERATIONS"},
		{Termination{Type: TermMetadata, N: 3, CountUpdates: true}, "3 UPDATES"},
		{Termination{Type: TermData, Any: true, Expr: col("", "done")}, "ANY (done)"},
		{Termination{Type: TermData, Expr: col("", "done")}, "ALL (done)"},
		{Termination{Type: TermDelta, N: 1}, "DELTA < 1"},
	}
	for _, c := range cases {
		if got := c.tc.String(); got != c.want {
			t.Errorf("Termination.String() = %q, want %q", got, c.want)
		}
	}
	if TermMetadata.String() != "Metadata" || TermData.String() != "Data" || TermDelta.String() != "Delta" {
		t.Error("TermType.String()")
	}
}

func TestDDLDMLStrings(t *testing.T) {
	ct := &CreateTable{Name: "t", Temp: true, IfNotExists: true, Cols: []ColumnDef{
		{Name: "id", Type: sqltypes.Int, PrimaryKey: true},
		{Name: "v", Type: sqltypes.Float},
	}}
	want := "CREATE TEMP TABLE IF NOT EXISTS t (id INT PRIMARY KEY, v FLOAT)"
	if ct.String() != want {
		t.Errorf("CreateTable = %q, want %q", ct.String(), want)
	}
	if (&DropTable{Name: "t", IfExists: true}).String() != "DROP TABLE IF EXISTS t" {
		t.Error("DropTable")
	}
	ins := &Insert{Table: "t", Cols: []string{"a"}, Rows: [][]Expr{{lit(1)}, {lit(2)}}}
	if ins.String() != "INSERT INTO t (a) VALUES (1), (2)" {
		t.Errorf("Insert = %q", ins.String())
	}
	ins2 := &Insert{Table: "t", Select: &SelectStmt{Body: &SelectCore{Items: []SelectItem{{Expr: lit(1)}}}}}
	if ins2.String() != "INSERT INTO t SELECT 1" {
		t.Errorf("Insert select = %q", ins2.String())
	}
	upd := &Update{Table: "t", Sets: []Assignment{{Col: "v", Expr: lit(2)}},
		From:  &BaseTable{Name: "s"},
		Where: &BinaryExpr{Op: "=", L: col("t", "id"), R: col("s", "id")}}
	got := upd.String()
	if !strings.Contains(got, "UPDATE t SET v = 2 FROM s WHERE") {
		t.Errorf("Update = %q", got)
	}
	del := &Delete{Table: "t", Where: &BinaryExpr{Op: "=", L: col("", "id"), R: lit(1)}}
	if del.String() != "DELETE FROM t WHERE (id = 1)" {
		t.Errorf("Delete = %q", del.String())
	}
	if (&Delete{Table: "t"}).String() != "DELETE FROM t" {
		t.Error("Delete without WHERE")
	}
	ex := &Explain{Stmt: del}
	if !strings.HasPrefix(ex.String(), "EXPLAIN DELETE") {
		t.Errorf("Explain = %q", ex.String())
	}
}

func TestWalkAndClone(t *testing.T) {
	e := &BinaryExpr{Op: "AND",
		L: &BinaryExpr{Op: "=", L: col("t", "a"), R: lit(1)},
		R: &CaseExpr{
			Whens: []WhenClause{{Cond: &IsNullExpr{E: col("", "b")}, Result: &FuncCall{Name: "SUM", Args: []Expr{col("", "c")}}}},
			Else:  &CastExpr{E: &InExpr{E: col("", "d"), List: []Expr{lit(2)}}, To: sqltypes.Int},
		},
	}
	refs := ColumnRefs(e)
	if len(refs) != 4 {
		t.Errorf("ColumnRefs = %d, want 4", len(refs))
	}
	c := CloneExpr(e).(*BinaryExpr)
	if c.String() != e.String() {
		t.Errorf("clone differs: %q vs %q", c.String(), e.String())
	}
	// Mutating the clone must not touch the original.
	c.L.(*BinaryExpr).L.(*ColumnRef).Name = "zzz"
	if strings.Contains(e.String(), "zzz") {
		t.Error("CloneExpr aliases the original")
	}
}

func TestRewriteExpr(t *testing.T) {
	e := &BinaryExpr{Op: "+", L: col("old", "a"), R: &FuncCall{Name: "ABS", Args: []Expr{col("old", "b")}}}
	out := RewriteExpr(e, func(x Expr) Expr {
		if c, ok := x.(*ColumnRef); ok && c.Table == "old" {
			return &ColumnRef{Table: "new", Name: c.Name}
		}
		return x
	})
	if out.String() != "(new.a + ABS(new.b))" {
		t.Errorf("RewriteExpr = %q", out.String())
	}
	// Original untouched.
	if e.String() != "(old.a + ABS(old.b))" {
		t.Errorf("original mutated: %q", e.String())
	}
	if RewriteExpr(nil, func(x Expr) Expr { return x }) != nil {
		t.Error("nil rewrite")
	}
}

func TestHasAggregate(t *testing.T) {
	if !HasAggregate(&FuncCall{Name: "sum", Args: []Expr{col("", "x")}}) {
		t.Error("sum should be aggregate (case-insensitive)")
	}
	if HasAggregate(&FuncCall{Name: "ABS", Args: []Expr{col("", "x")}}) {
		t.Error("ABS is not aggregate")
	}
	nested := &BinaryExpr{Op: "+", L: lit(1), R: &FuncCall{Name: "COUNT", Star: true}}
	if !HasAggregate(nested) {
		t.Error("nested aggregate not found")
	}
	if !IsAggregateName("Min") || IsAggregateName("LEAST") {
		t.Error("IsAggregateName")
	}
}

func TestTableRefHelpers(t *testing.T) {
	from := &JoinRef{
		Type: LeftJoin,
		Left: &JoinRef{
			Type:  InnerJoin,
			Left:  &BaseTable{Name: "PageRank"},
			Right: &BaseTable{Name: "edges", Alias: "e"},
			On:    &BinaryExpr{Op: "=", L: col("PageRank", "node"), R: col("e", "dst")},
		},
		Right: &BaseTable{Name: "pagerank", Alias: "inc"},
		On:    &BinaryExpr{Op: "=", L: col("inc", "node"), R: col("e", "src")},
	}
	if n := len(BaseTables(from)); n != 3 {
		t.Errorf("BaseTables = %d, want 3", n)
	}
	if n := CountTableRefs(from, "pagerank"); n != 2 {
		t.Errorf("CountTableRefs(pagerank) = %d, want 2 (case-insensitive)", n)
	}
	if n := CountTableRefs(from, "edges"); n != 1 {
		t.Errorf("CountTableRefs(edges) = %d", n)
	}
	// Derived tables are searched too.
	sub := &SubqueryRef{Alias: "s", Select: &SelectStmt{Body: &SelectCore{
		Items: []SelectItem{{Expr: col("", "x")}},
		From:  &BaseTable{Name: "PageRank"},
	}}}
	if n := CountTableRefs(sub, "pagerank"); n != 1 {
		t.Errorf("CountTableRefs through subquery = %d", n)
	}
	union := &SelectStmt{Body: &UnionExpr{
		Left:  &SelectCore{Items: []SelectItem{{Expr: col("", "src")}}, From: &BaseTable{Name: "edges"}},
		Right: &SelectCore{Items: []SelectItem{{Expr: col("", "dst")}}, From: &BaseTable{Name: "edges"}},
	}}
	if n := CountStmtTableRefs(union, "edges"); n != 2 {
		t.Errorf("CountStmtTableRefs over union = %d", n)
	}
}

func TestConjuncts(t *testing.T) {
	a := &BinaryExpr{Op: "=", L: col("", "a"), R: lit(1)}
	b := &BinaryExpr{Op: ">", L: col("", "b"), R: lit(2)}
	c := &BinaryExpr{Op: "<", L: col("", "c"), R: lit(3)}
	e := &BinaryExpr{Op: "AND", L: &BinaryExpr{Op: "AND", L: a, R: b}, R: c}
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("SplitConjuncts = %d parts", len(parts))
	}
	back := JoinConjuncts(parts)
	if back.String() != "(((a = 1) AND (b > 2)) AND (c < 3))" {
		t.Errorf("JoinConjuncts = %q", back.String())
	}
	if SplitConjuncts(nil) != nil {
		t.Error("SplitConjuncts(nil)")
	}
	if JoinConjuncts(nil) != nil {
		t.Error("JoinConjuncts(nil)")
	}
	// OR is not split.
	or := &BinaryExpr{Op: "OR", L: a, R: b}
	if len(SplitConjuncts(or)) != 1 {
		t.Error("OR should not split")
	}
}

func TestStrict(t *testing.T) {
	x := col("e", "w")
	call := func(name string) Expr { return &FuncCall{Name: name, Args: []Expr{x, lit(5)}} }
	cmp := func(l Expr) Expr { return &BinaryExpr{Op: "<", L: l, R: lit(10)} }
	for _, c := range []struct {
		e      Expr
		strict bool
	}{
		{x, true},
		{cmp(x), true},
		{cmp(&BinaryExpr{Op: "+", L: x, R: &UnaryExpr{Op: "-", E: lit(1)}}), true},
		{&BinaryExpr{Op: "=", L: x, R: NewLiteral(sqltypes.NullValue)}, true},
		// Each of these can make something of a NULL argument.
		{cmp(call("LEAST")), false},
		{cmp(call("GREATEST")), false},
		{cmp(call("CONCAT")), false},
		{cmp(call("NULLIF")), false},
		{cmp(call("COALESCE")), false},
		{&IsNullExpr{E: x}, false},
		{&UnaryExpr{Op: "NOT", E: cmp(x)}, false},
		{&BinaryExpr{Op: "OR", L: cmp(x), R: lit(1)}, false},
		{&CaseExpr{Whens: []WhenClause{{Cond: cmp(x), Result: lit(1)}}, Else: lit(0)}, false},
		// A non-strict operand is not hidden by a strict sibling.
		{&BinaryExpr{Op: "=", L: call("LEAST"), R: &BinaryExpr{Op: "+", L: x, R: lit(1)}}, false},
	} {
		if got := Strict(c.e); got != c.strict {
			t.Errorf("Strict(%s) = %v, want %v", c.e, got, c.strict)
		}
	}
}

func TestJoinTypeString(t *testing.T) {
	want := map[JoinType]string{
		InnerJoin: "JOIN", LeftJoin: "LEFT JOIN", RightJoin: "RIGHT JOIN",
		FullJoin: "FULL JOIN", CrossJoin: "CROSS JOIN",
	}
	for jt, w := range want {
		if jt.String() != w {
			t.Errorf("JoinType %d = %q", jt, jt.String())
		}
	}
}

func TestUnionString(t *testing.T) {
	u := &UnionExpr{
		Left:  &SelectCore{Items: []SelectItem{{Expr: col("", "src")}}, From: &BaseTable{Name: "edges"}},
		Right: &SelectCore{Items: []SelectItem{{Expr: col("", "dst")}}, From: &BaseTable{Name: "edges"}},
		All:   true,
	}
	if u.String() != "SELECT src FROM edges UNION ALL SELECT dst FROM edges" {
		t.Errorf("UnionExpr = %q", u.String())
	}
}

// TestParseChain pins the one chain parser: what a left-deep chain is,
// who owns a column, and which conjuncts are column equalities.
func TestParseChain(t *testing.T) {
	schemas := map[string]sqltypes.Schema{
		"pagerank": {{Name: "node"}, {Name: "rank"}},
		"edges":    {{Name: "src"}, {Name: "dst"}, {Name: "weight"}},
	}
	schemaOf := func(name string) (sqltypes.Schema, bool) {
		s, ok := schemas[strings.ToLower(name)]
		return s, ok
	}
	eq := func(l, r *ColumnRef) *BinaryExpr { return &BinaryExpr{Op: "=", L: l, R: r} }
	inner := &JoinRef{
		Type:  LeftJoin,
		Left:  &BaseTable{Name: "PageRank"},
		Right: &BaseTable{Name: "edges", Alias: "E"},
		On:    &BinaryExpr{Op: "AND", L: eq(col("PageRank", "node"), col("e", "dst")), R: &BinaryExpr{Op: "<", L: col("e", "weight"), R: lit(3)}},
	}
	core := &SelectCore{
		From: &JoinRef{Type: InnerJoin, Left: inner, Right: &BaseTable{Name: "pagerank", Alias: "inc"},
			On: eq(col("inc", "node"), col("e", "src"))},
		Where: eq(col("", "weight"), col("inc", "rank")),
	}
	c, ok := ParseChain(core, schemaOf)
	if !ok || len(c.Members) != 3 || c.HasBadAlias {
		t.Fatalf("chain = %+v, ok = %v", c, ok)
	}
	if m := c.Members[1]; m.Alias != "e" || m.Name != "edges" || m.Join != LeftJoin || m.On == nil || len(m.Schema) != 3 {
		t.Errorf("member 1 = %+v", m)
	}
	if m := c.Members[0]; m.Alias != "pagerank" || m.On != nil {
		t.Errorf("member 0 = %+v", m)
	}
	// Two ON equalities in chain order, then the WHERE one; the
	// inequality is not collected.
	if len(c.Eqs) != 3 || c.Eqs[0][1].Name != "dst" || c.Eqs[1][0].Table != "inc" || c.Eqs[2][0].Name != "weight" {
		t.Errorf("eqs = %v", c.Eqs)
	}
	for _, tc := range []struct {
		ref  *ColumnRef
		want int
	}{
		{col("E", "src"), 1},       // qualified, case-insensitive
		{col("nobody", "src"), -1}, // unknown alias
		{col("", "weight"), 1},     // unqualified, one owner
		{col("", "node"), -1},      // unqualified, two owners
		{col("", "ghost"), -1},     // unqualified, no owner
	} {
		if got := c.Resolve(tc.ref); got != tc.want {
			t.Errorf("Resolve(%s) = %d, want %d", tc.ref, got, tc.want)
		}
	}

	// A member of unknown schema makes every unqualified reference
	// unresolvable: uniqueness cannot be shown.
	core2 := &SelectCore{From: &JoinRef{Type: InnerJoin, Left: &BaseTable{Name: "edges"}, Right: &BaseTable{Name: "mystery"}}}
	c2, ok := ParseChain(core2, schemaOf)
	if !ok || c2.Members[1].Schema != nil || c2.Resolve(col("", "src")) != -1 {
		t.Errorf("unknown-schema member: chain = %+v, ok = %v", c2, ok)
	}

	// Same alias twice, and a derived table without one, are reported.
	for _, right := range []TableRef{&BaseTable{Name: "edges"}, &SubqueryRef{Select: &SelectStmt{Body: &SelectCore{}}}} {
		dup, ok := ParseChain(&SelectCore{From: &JoinRef{Type: InnerJoin, Left: &BaseTable{Name: "edges"}, Right: right}}, schemaOf)
		if !ok || !dup.HasBadAlias || dup.BadAlias != AliasOf(right) {
			t.Errorf("bad alias not reported for %T: %+v", right, dup)
		}
	}

	// A join on the right side is not a chain; neither is no FROM.
	bushy := &SelectCore{From: &JoinRef{Type: InnerJoin, Left: &BaseTable{Name: "edges"}, Right: inner}}
	if _, ok := ParseChain(bushy, schemaOf); ok {
		t.Error("right-nested join accepted as a chain")
	}
	if _, ok := ParseChain(&SelectCore{}, schemaOf); ok {
		t.Error("missing FROM accepted as a chain")
	}
}
