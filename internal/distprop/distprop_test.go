package distprop

import (
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

type fakeDist map[string]struct{ dc, parts int }

func (f fakeDist) TableDistribution(name string) (int, int, bool) {
	d, ok := f[name]
	return d.dc, d.parts, ok
}

func cols(tbl string, names ...string) []plan.ColInfo {
	out := make([]plan.ColInfo, len(names))
	for i, n := range names {
		out[i] = plan.ColInfo{Table: tbl, Name: n, Type: sqltypes.Int}
	}
	return out
}

func scan(tbl string, names ...string) *plan.Scan {
	return &plan.Scan{Table: tbl, Alias: tbl, Cols: cols(tbl, names...)}
}

func ref(tbl, name string) *ast.ColumnRef { return &ast.ColumnRef{Table: tbl, Name: name} }

func eqExpr(l, r ast.Expr) ast.Expr { return &ast.BinaryExpr{Op: "=", L: l, R: r} }

func analysis(parts int, td TableDist) (*Analysis, *[]Decision) {
	var ds []Decision
	a := &Analysis{Parts: parts, Tables: td, OnExchange: func(d Decision) { ds = append(ds, d) }}
	return a, &ds
}

func TestPropertyBasics(t *testing.T) {
	if got := Hash(0, 2).String(); got != "hash(0,2)" {
		t.Errorf("String = %q", got)
	}
	if got := Singleton().String(); got != "singleton" {
		t.Errorf("String = %q", got)
	}
	if got := Unknown().String(); got != "unknown" {
		t.Errorf("String = %q", got)
	}
	if Hash(0, 1).Equal(Hash(1, 0)) {
		t.Error("hash properties are order-sensitive")
	}
	if !Meet(Hash(1), Hash(1)).Equal(Hash(1)) {
		t.Error("meet of equal properties")
	}
	if Meet(Hash(1), Singleton()).Kind != KindUnknown {
		t.Error("meet of different properties should be unknown")
	}
	d := Hash(1).Describe(cols("t", "a", "b"))
	if d != "hash(b)" {
		t.Errorf("Describe = %q", d)
	}
}

func TestScanProperty(t *testing.T) {
	td := fakeDist{"edges": {dc: 1, parts: 4}, "rr": {dc: -1, parts: 4}, "skew": {dc: 0, parts: 2}}
	a, _ := analysis(4, td)
	if p := a.Infer(scan("edges", "src", "dst")); !p.Equal(Hash(1)) {
		t.Errorf("hash table: %v", p)
	}
	if p := a.Infer(scan("rr", "a", "b")); p.Kind != KindUnknown {
		t.Errorf("round-robin table: %v", p)
	}
	// Partition-count mismatch: the scan re-slices, layout is lost.
	if p := a.Infer(scan("skew", "a", "b")); p.Kind != KindUnknown {
		t.Errorf("mismatched parts: %v", p)
	}
	// No layout oracle at all: fail closed.
	b := &Analysis{Parts: 4}
	if p := b.Infer(scan("edges", "src", "dst")); p.Kind != KindUnknown {
		t.Errorf("nil Tables: %v", p)
	}
}

func TestNamedResultSlots(t *testing.T) {
	a, _ := analysis(4, nil)
	a.Slots = map[string]Property{"intermediate#pagerank": Hash(0)}
	nr := &plan.NamedResult{Name: "Intermediate#PageRank", Cols: cols("pagerank", "node", "rank")}
	if p := a.Infer(nr); !p.Equal(Hash(0)) {
		t.Errorf("slot lookup should normalize names: %v", p)
	}
	if p := a.Infer(&plan.NamedResult{Name: "other", Cols: cols("o", "x")}); p.Kind != KindUnknown {
		t.Errorf("missing slot: %v", p)
	}
}

func TestProjectRemap(t *testing.T) {
	td := fakeDist{"t": {dc: 0, parts: 2}}
	a, _ := analysis(2, td)
	in := scan("t", "a", "b")
	// Reorder + rename keeps the property on the moved position.
	proj := &plan.Project{Input: in, Items: []plan.ProjItem{
		{Expr: ref("t", "b"), Name: "x", Type: sqltypes.Int},
		{Expr: ref("t", "a"), Name: "y", Type: sqltypes.Int},
	}}
	if p := a.Infer(proj); !p.Equal(Hash(1)) {
		t.Errorf("reorder: %v", p)
	}
	// Computing over the routing column breaks the property.
	comp := &plan.Project{Input: in, Items: []plan.ProjItem{
		{Expr: &ast.BinaryExpr{Op: "+", L: ref("t", "a"), R: ref("t", "b")}, Name: "s", Type: sqltypes.Int},
	}}
	if p := a.Infer(comp); p.Kind != KindUnknown {
		t.Errorf("computed routing col: %v", p)
	}
	// Dropping the routing column breaks it too.
	drop := &plan.Project{Input: in, Items: []plan.ProjItem{
		{Expr: ref("t", "b"), Name: "b", Type: sqltypes.Int},
	}}
	if p := a.Infer(drop); p.Kind != KindUnknown {
		t.Errorf("dropped routing col: %v", p)
	}
}

func TestInnerJoinElision(t *testing.T) {
	td := fakeDist{"l": {dc: 0, parts: 4}, "r": {dc: 1, parts: 4}}
	a, ds := analysis(4, td)
	j := &plan.Join{
		Type:  ast.InnerJoin,
		Left:  scan("l", "a", "b"),
		Right: scan("r", "c", "d"),
		On:    eqExpr(ref("l", "a"), ref("r", "d")),
	}
	p := a.Infer(j)
	if !p.Equal(Hash(0)) {
		t.Errorf("join output: %v", p)
	}
	if len(*ds) != 2 {
		t.Fatalf("decisions: %d", len(*ds))
	}
	for _, d := range *ds {
		if !d.Licensed {
			t.Errorf("%v should be licensed", d.Exch)
		}
	}
	// Swap the distribution column of the right table: keys no longer
	// line up with the layout, right side must shuffle.
	td["r"] = struct{ dc, parts int }{dc: 0, parts: 4}
	a2, ds2 := analysis(4, td)
	a2.Infer(j)
	for _, d := range *ds2 {
		if d.Exch == JoinRight && d.Licensed {
			t.Error("right side distributed on the wrong column must not elide")
		}
		if d.Exch == JoinLeft && !d.Licensed {
			t.Error("left side is still co-partitioned")
		}
	}
}

func TestJoinKeyOrderSensitivity(t *testing.T) {
	// Two-key join: a side hashed on (a,b) does not license a (b,a)
	// key order.
	a, ds := analysis(4, nil)
	a.Slots = map[string]Property{"l": Hash(0, 1), "r": Hash(0, 1)}
	l := &plan.NamedResult{Name: "l", Cols: cols("l", "a", "b")}
	r := &plan.NamedResult{Name: "r", Cols: cols("r", "c", "d")}
	swapped := &plan.Join{Type: ast.InnerJoin, Left: l, Right: r,
		On: &ast.BinaryExpr{Op: "AND",
			L: eqExpr(ref("l", "b"), ref("r", "d")),
			R: eqExpr(ref("l", "a"), ref("r", "c"))}}
	a.Infer(swapped)
	for _, d := range *ds {
		if d.Licensed {
			t.Errorf("%v licensed across incompatible key order", d.Exch)
		}
	}
	aligned := &plan.Join{Type: ast.InnerJoin, Left: l, Right: r,
		On: &ast.BinaryExpr{Op: "AND",
			L: eqExpr(ref("l", "a"), ref("r", "c")),
			R: eqExpr(ref("l", "b"), ref("r", "d"))}}
	a2, ds2 := analysis(4, nil)
	a2.Slots = a.Slots
	a2.Infer(aligned)
	for _, d := range *ds2 {
		if !d.Licensed {
			t.Errorf("%v should license matching key order", d.Exch)
		}
	}
}

func TestLeftJoinCaveatUpgrade(t *testing.T) {
	// Mirror of the PR-VS shape: PageRank LEFT JOIN edges ON
	// node = dst, then INNER JOIN status ON status.node = dst, then
	// GROUP BY PageRank.node. The LEFT join only caveats node~dst;
	// the inner join proves dst non-NULL, upgrading it, so the
	// aggregate input (distributed on node via the left scan) is
	// groupable in place.
	td := fakeDist{"pagerank": {dc: 0, parts: 4}, "edges": {dc: -1, parts: 4}, "status": {dc: 0, parts: 4}}
	a, ds := analysis(4, td)
	j1 := &plan.Join{Type: ast.LeftJoin,
		Left:  scan("pagerank", "node", "rank"),
		Right: scan("edges", "src", "dst"),
		On:    eqExpr(ref("pagerank", "node"), ref("edges", "dst")),
	}
	j2 := &plan.Join{Type: ast.InnerJoin,
		Left:  j1,
		Right: scan("status", "node", "status"),
		On:    eqExpr(ref("status", "node"), ref("edges", "dst")),
	}
	agg := &plan.Aggregate{
		Input:   j2,
		GroupBy: []ast.Expr{ref("pagerank", "node")},
		Types:   []sqltypes.Type{sqltypes.Int},
		Aggs:    []plan.AggSpec{{Name: "COUNT", Star: true, OutName: "a0", Type: sqltypes.Int}},
	}
	p := a.Infer(agg)
	if !p.Equal(Hash(0)) {
		t.Errorf("aggregate output: %v", p)
	}
	var aggDecision *Decision
	for i := range *ds {
		if (*ds)[i].Exch == AggregateInput {
			aggDecision = &(*ds)[i]
		}
	}
	if aggDecision == nil || !aggDecision.Licensed {
		t.Fatalf("aggregate input should be elidable after caveat upgrade: %+v", aggDecision)
	}

	// Without the inner join the caveat never upgrades: grouping by
	// node over a relation distributed on... node is fine, but
	// grouping by dst is not.
	aggWeak := &plan.Aggregate{
		Input:   j1,
		GroupBy: []ast.Expr{ref("edges", "dst")},
		Types:   []sqltypes.Type{sqltypes.Int},
		Aggs:    []plan.AggSpec{{Name: "COUNT", Star: true, OutName: "a0", Type: sqltypes.Int}},
	}
	a2, ds2 := analysis(4, td)
	a2.Infer(aggWeak)
	for _, d := range *ds2 {
		if d.Exch == AggregateInput && d.Licensed {
			t.Error("ungated caveat must not license elision")
		}
	}
}

func TestAggregateSubsetRule(t *testing.T) {
	// Input hashed on one column, grouped by that column plus another:
	// co-location follows from the subset rule.
	a, ds := analysis(4, nil)
	a.Slots = map[string]Property{"t": Hash(0)}
	in := &plan.NamedResult{Name: "t", Cols: cols("t", "a", "b")}
	agg := &plan.Aggregate{
		Input:   in,
		GroupBy: []ast.Expr{ref("t", "b"), ref("t", "a")},
		Types:   []sqltypes.Type{sqltypes.Int, sqltypes.Int},
		Aggs:    []plan.AggSpec{{Name: "COUNT", Star: true, OutName: "a0", Type: sqltypes.Int}},
	}
	if p := a.Infer(agg); !p.Equal(Hash(0, 1)) {
		t.Errorf("grouped output should be hashed on the group tuple: %v", p)
	}
	if len(*ds) != 1 || !(*ds)[0].Licensed {
		t.Fatalf("subset rule should license: %+v", *ds)
	}
	// Reverse containment does not hold: input hashed on a column
	// that is not a group column must shuffle.
	a2, ds2 := analysis(4, nil)
	a2.Slots = map[string]Property{"t": Hash(1)}
	agg2 := &plan.Aggregate{
		Input:   in,
		GroupBy: []ast.Expr{ref("t", "a")},
		Types:   []sqltypes.Type{sqltypes.Int},
		Aggs:    []plan.AggSpec{{Name: "COUNT", Star: true, OutName: "a0", Type: sqltypes.Int}},
	}
	a2.Infer(agg2)
	if len(*ds2) != 1 || (*ds2)[0].Licensed {
		t.Fatalf("non-group routing column must not license: %+v", *ds2)
	}
}

func TestDistinctElision(t *testing.T) {
	a, ds := analysis(4, nil)
	a.Slots = map[string]Property{"t": Hash(0, 1)}
	in := &plan.NamedResult{Name: "t", Cols: cols("t", "a", "b")}
	d := &plan.Distinct{Input: in}
	if p := a.Infer(d); !p.Equal(Hash(0, 1)) {
		t.Errorf("distinct output: %v", p)
	}
	if len(*ds) != 1 || !(*ds)[0].Licensed {
		t.Fatalf("full-row distributed input should elide: %+v", *ds)
	}
	// Partial-row distribution is not enough.
	a2, ds2 := analysis(4, nil)
	a2.Slots = map[string]Property{"t": Hash(0)}
	a2.Infer(d)
	if (*ds2)[0].Licensed {
		t.Error("hash(a) input must still run the full-row exchange")
	}
}

func TestUnionMeet(t *testing.T) {
	a, _ := analysis(4, nil)
	a.Slots = map[string]Property{"x": Hash(0), "y": Hash(0), "z": Hash(1)}
	x := &plan.NamedResult{Name: "x", Cols: cols("x", "a", "b")}
	y := &plan.NamedResult{Name: "y", Cols: cols("y", "a", "b")}
	z := &plan.NamedResult{Name: "z", Cols: cols("z", "a", "b")}
	if p := a.Infer(&plan.Union{Left: x, Right: y}); !p.Equal(Hash(0)) {
		t.Errorf("agreeing union: %v", p)
	}
	if p := a.Infer(&plan.Union{Left: x, Right: z}); p.Kind != KindUnknown {
		t.Errorf("disagreeing union: %v", p)
	}
}

func TestGatherNodesAreSingleton(t *testing.T) {
	td := fakeDist{"t": {dc: 0, parts: 4}}
	a, _ := analysis(4, td)
	in := scan("t", "a", "b")
	for _, n := range []plan.Node{
		&plan.Sort{Input: in, Keys: []plan.SortKey{{Col: 0}}},
		&plan.Limit{Input: in, Counts: plan.Counts{N: 5}},
		&plan.TopN{Input: in, Keys: []plan.SortKey{{Col: 0}}, Counts: plan.Counts{N: 5}},
		&plan.OneRow{},
		&plan.ValuesNode{Cols: cols("v", "a")},
		&plan.EmptyNode{Cols: cols("e", "a")},
	} {
		if p := a.Infer(n); p.Kind != KindSingleton {
			t.Errorf("%T: %v", n, p)
		}
	}
	// Trim keeps the layout when the routing columns survive.
	if p := a.Infer(&plan.Trim{Input: in, Keep: 1}); !p.Equal(Hash(0)) {
		t.Errorf("trim keeping routing col: %v", p)
	}
	td["t"] = struct{ dc, parts int }{dc: 1, parts: 4}
	if p := a.Infer(&plan.Trim{Input: in, Keep: 1}); p.Kind != KindUnknown {
		t.Errorf("trim dropping routing col: %v", p)
	}
}
