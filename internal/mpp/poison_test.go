package mpp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// canon renders rows for comparison: in order where the plan defines
// one, sorted otherwise.
func canon(rows []sqltypes.Row, ordered bool) string {
	if ordered {
		return rowsText(rows)
	}
	strs := strings.Split(rowsText(rows), "\n")
	sort.Strings(strs)
	return strings.Join(strs, "\n")
}

// TestPoisonedReuseKeepsParity evaluates every shape of the parity
// table twice on one machine that destroys each site the moment it
// declares it reusable. Both evaluations must return volcano's rows, and
// the first one's rows must still be what they were after the second:
// what leaves the machine is never a buffer it fills again.
func TestPoisonedReuseKeepsParity(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 4} {
		rt := parityRT(t, parts)
		for _, c := range parityShapes {
			if c.wantErr != "" {
				continue
			}
			label := fmt.Sprintf("%s/parts=%d", c.name, parts)
			var node plan.Node
			if c.build != nil {
				node = c.build(rt)
			} else {
				node = planOf(rt, c.sql)
			}
			volcano, err := exec.Run(node, rt, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want := canon(volcano, c.ordered)
			m := New(rt, parts, nil, nil)
			Poison(m)
			first, err := m.Run(node)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := canon(first, c.ordered); got != want {
				t.Errorf("%s: first evaluation differs from volcano\n got:\n%s\nwant:\n%s", label, got, want)
			}
			second, err := m.Run(node)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := canon(second, c.ordered); got != want {
				t.Errorf("%s: second evaluation differs from volcano\n got:\n%s\nwant:\n%s", label, got, want)
			}
			if got := canon(first, c.ordered); got != want {
				t.Errorf("%s: the second evaluation overwrote rows the first returned\n got:\n%s\nwant:\n%s", label, got, want)
			}
		}
	}
}

// cutLeaf is a plan leaf standing for whatever produced a cut's rows:
// two integer columns k and v under the table name tbl.
func cutLeaf(tbl string) plan.Node {
	return &plan.ValuesNode{Cols: []plan.ColInfo{{Table: tbl, Name: "k", Type: sqltypes.Int}, {Table: tbl, Name: "v", Type: sqltypes.Int}}}
}

func col(tbl, name string) ast.Expr { return &ast.ColumnRef{Table: tbl, Name: name} }

// kvRows are n rows (i mod 7, base+i) dealt over parts partitions: k
// repeats, v is unique.
func kvRows(parts, n, base int) [][]sqltypes.Row {
	in := make([][]sqltypes.Row, parts)
	for i := 0; i < n; i++ {
		in[i%parts] = append(in[i%parts], sqltypes.Row{sqltypes.NewInt(int64(i % 7)), sqltypes.NewInt(int64(base + i))})
	}
	return in
}

// witnessShapes are consumers directly above a routed cut c (o is a
// second one, for the joins' other side): what the witness must say of
// c, and whether the consumer's rows are ordered.
var witnessShapes = []struct {
	name    string
	over    func(c, o plan.Node) plan.Node
	lent    bool
	aliases bool // the consumer's output rows are the cut's rows themselves
	ordered bool
}{
	{name: "sort", lent: false, aliases: true, ordered: true, over: func(c, _ plan.Node) plan.Node {
		return &plan.Sort{Input: c, Keys: []plan.SortKey{{Col: 1, Desc: true}}}
	}},
	{name: "top-N", lent: false, aliases: true, ordered: true, over: func(c, _ plan.Node) plan.Node {
		return &plan.TopN{Input: c, Keys: []plan.SortKey{{Col: 1}}, Counts: plan.Counts{N: 9, Offset: 1}}
	}},
	{name: "distinct under a keeping root", lent: false, aliases: true, over: func(c, _ plan.Node) plan.Node {
		return &plan.Distinct{Input: c}
	}},
	{name: "hash join build side", lent: false, over: func(c, o plan.Node) plan.Node {
		return &plan.Join{Type: ast.InnerJoin, Left: o, Right: c, On: &ast.BinaryExpr{Op: "=", L: col("o", "k"), R: col("c", "k")}}
	}},
	{name: "right-outer hash join build side", lent: false, over: func(c, o plan.Node) plan.Node {
		return &plan.Join{Type: ast.RightJoin, Left: c, Right: o, On: &ast.BinaryExpr{Op: "=", L: col("c", "k"), R: col("o", "k")}}
	}},
	{name: "nested loop right side", lent: false, over: func(c, o plan.Node) plan.Node {
		return &plan.Join{Type: ast.CrossJoin, Left: o, Right: c}
	}},
	{name: "keeping root over filter, alias and trim", lent: false, aliases: true, over: func(c, _ plan.Node) plan.Node {
		return &plan.Filter{Cond: &ast.BinaryExpr{Op: ">=", L: col("q", "v"), R: ast.NewLiteral(sqltypes.NewInt(0))},
			Input: &plan.Alias{Name: "q", Input: &plan.Trim{Input: c, Keep: 2}}}
	}},
	{name: "aggregate", lent: true, over: func(c, _ plan.Node) plan.Node {
		return &plan.Aggregate{Input: c, GroupBy: []ast.Expr{col("c", "k")}, Types: []sqltypes.Type{sqltypes.Int},
			Aggs: []plan.AggSpec{{Name: "SUM", Arg: col("c", "v"), OutName: "a0", Type: sqltypes.Int}}}
	}},
	{name: "project over a filter", lent: true, over: func(c, _ plan.Node) plan.Node {
		return &plan.Project{Items: []plan.ProjItem{{Expr: col("c", "v"), Name: "v", Type: sqltypes.Int}},
			Input: &plan.Filter{Input: c, Cond: &ast.BinaryExpr{Op: ">", L: col("c", "k"), R: ast.NewLiteral(sqltypes.NewInt(2))}}}
	}},
	{name: "hash join probe side", lent: true, over: func(c, o plan.Node) plan.Node {
		return &plan.Join{Type: ast.LeftJoin, Left: c, Right: o, On: &ast.BinaryExpr{Op: "=", L: col("c", "k"), R: col("o", "k")}}
	}},
}

// witnessRound routes fresh rows into the cuts c and o on machine m —
// each leaf's own site, the same one every round if the machine finds it
// free — runs the fragment rooted at root over them as a keeping root
// would, and returns its rows with what became of c: the witness's
// verdict and the site.
func witnessRound(t *testing.T, m *Machine, root, c, o plan.Node, round int) (rows []sqltypes.Row, lent bool, s *site) {
	t.Helper()
	f := m.newFragment()
	for i, leaf := range []plan.Node{c, o} {
		if !uses(root, leaf) {
			continue
		}
		rel, err := m.run(leaf, cutOver(m, leaf, kvRows(m.Parts, 40+10*i, 1000*round)), false, m.shuffleCols([]int{0}))
		if err != nil {
			t.Fatal(err)
		}
		f.reads(leaf, rel)
		if leaf == c {
			s = rel.from
		}
	}
	out, err := m.run(root, f, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.gather(), f.Lent(c), s
}

// uses reports whether n is a node of the plan below root.
func uses(root, n plan.Node) bool {
	if root == n {
		return true
	}
	for _, c := range root.Children() {
		if uses(c, n) {
			return true
		}
	}
	return false
}

// TestWitnessDecidesReuse: a cut's site is filled again in place exactly
// when every tree of its consumer took the cut for a reader. Under the
// poison hook each shape runs three rounds over different rows on one
// machine: the rows must be those of a machine that has never seen the
// plan, every round's rows must outlive the later rounds, a kept cut
// must get a new site each round and a lent one the same.
func TestWitnessDecidesReuse(t *testing.T) {
	for _, parts := range []int{2, 3} {
		for _, w := range witnessShapes {
			label := fmt.Sprintf("%s/parts=%d", w.name, parts)
			c, o := cutLeaf("c"), cutLeaf("o")
			root := w.over(c, o)
			m := New(nil, parts, nil, nil)
			Poison(m)
			var outs [][]sqltypes.Row
			var wants []string
			var sites []*site
			for round := 1; round <= 3; round++ {
				fresh, _, _ := witnessRound(t, New(nil, parts, nil, nil), root, c, o, round)
				got, lent, s := witnessRound(t, m, root, c, o, round)
				if len(fresh) == 0 {
					t.Fatalf("%s: no rows, the shape tests nothing", label)
				}
				outs, wants, sites = append(outs, got), append(wants, canon(fresh, w.ordered)), append(sites, s)
				if lent != w.lent || s.free != w.lent {
					t.Errorf("%s round %d: the witness says lent = %v and the site is free = %v, want %v", label, round, lent, s.free, w.lent)
				}
				if reused := s == sites[0]; round > 1 && reused != w.lent {
					t.Errorf("%s round %d: site filled again in place = %v, want %v", label, round, reused, w.lent)
				}
				for r, out := range outs {
					if g := canon(out, w.ordered); g != wants[r] {
						t.Errorf("%s: after round %d the rows of round %d are\n%s\nwant:\n%s", label, round, r+1, g, wants[r])
					}
				}
			}
		}
	}
}

// doubleRouting is the plan where one node's rows are exchanged twice: a
// pre-aggregating aggregate (a is stored by x, the claim is sound)
// directly under a join that routes it — on the probe side, so that the
// second site is lent too. It returns the elisions that make it so.
func doubleRouting(rt *exec.StoreRuntime) (plan.Node, map[plan.Node]Elide) {
	agg := find[*plan.Aggregate](planOf(rt, "SELECT x, COUNT(*), MIN(s) FROM a GROUP BY x"))
	b := find[*plan.Scan](planOf(rt, "SELECT * FROM b"))
	join := &plan.Join{Type: ast.LeftJoin, Left: agg, Right: b, On: &ast.BinaryExpr{Op: "=", L: col(plan.AggTable, "g0"), R: col("b", "y")}}
	return join, map[plan.Node]Elide{agg: {Input: true, InputCols: []int{0}}}
}

// TestDoubleRoutingReusesBothSites: the regrouped groups of a
// pre-aggregating node that feeds a routed cut pass through two sites;
// the second stage frees the first only when it has read it, and both are
// filled again in place by the next evaluation.
func TestDoubleRoutingReusesBothSites(t *testing.T) {
	for _, parts := range []int{2, 3, 4} {
		rt := parityRT(t, parts)
		node, elide := doubleRouting(rt)
		volcano, err := exec.Run(node, rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := canon(volcano, false)
		var st Stats
		m := New(rt, parts, &st, nil)
		m.Elide, m.CheckElide = elide, true
		Poison(m)
		for round := 1; round <= 3; round++ {
			got, err := m.Run(node)
			if err != nil {
				t.Fatal(err)
			}
			if g := canon(got, false); g != want {
				t.Errorf("parts=%d round %d: rows differ from volcano\n got:\n%s\nwant:\n%s", parts, round, g, want)
			}
		}
		// The two stages' sites once, b's — a build side, kept — every round.
		if m.made != 2+3 {
			t.Errorf("parts=%d: %d sites made over three rounds, want 5", parts, m.made)
		}
		if st.ShufflesElided != 3 || st.RowsElided != 3*23 {
			t.Errorf("parts=%d: ShufflesElided = %d, RowsElided = %d: the aggregate did not pre-aggregate", parts, st.ShufflesElided, st.RowsElided)
		}
	}
}

// TestMaterializedSitesAreNeverReused: when a pre-aggregating node is
// the plan's root, Materialize adopts the row slices of the regrouping
// site. Nobody reads that site as an input, so it is never freed: the
// second call fills a new one and the first table stays what it was. The
// table owns none of it, so its release hands nothing to the run's free
// list either.
func TestMaterializedSitesAreNeverReused(t *testing.T) {
	const parts = 3
	rt := parityRT(t, parts)
	agg := find[*plan.Aggregate](planOf(rt, "SELECT x, COUNT(*), MIN(s) FROM a GROUP BY x"))
	m := New(rt, parts, nil, nil)
	m.Elide = map[plan.Node]Elide{agg: {Input: true, InputCols: []int{0}}}
	Poison(m)
	first, err := m.Materialize(agg, "t1", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := canon(first.AllRows(), false)
	if volcano, _ := exec.Run(agg, rt, nil); canon(volcano, false) != want {
		t.Fatalf("materialized rows differ from volcano:\n%s", want)
	}
	if first.Recycles() {
		t.Error("the table owns the regrouping site's slices")
	}
	second, err := m.Materialize(agg, "t2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := canon(first.AllRows(), false); got != want {
		t.Errorf("the second Materialize overwrote the first table:\n%s\nwant:\n%s", got, want)
	}
	if got := canon(second.AllRows(), false); got != want {
		t.Errorf("the second table differs:\n%s\nwant:\n%s", got, want)
	}
	if m.made != 2 {
		t.Errorf("%d sites made for two materializations, want one each", m.made)
	}
}

// TestReuseMutantsFail seeds the two ways the release rule can be wrong
// and requires the poisoned comparisons above to see each: a witness that
// calls every cut lent hands a sort, a top-N and a keeping root rows that
// are then destroyed under them; freeing a fragment's cuts before its
// region has run destroys them before they are read, which the double
// routing shows (its second stage reads the first's site). The join build
// sides and the nested loop's right side do not fail the first mutant,
// and the test says so: they hold their input only until their own tree
// is closed, inside the region, so the witness — which repeats exec's
// ownership table — is stricter for them than reuse needs.
func TestReuseMutantsFail(t *testing.T) {
	const parts = 2
	for _, w := range witnessShapes {
		if w.lent {
			continue
		}
		c, o := cutLeaf("c"), cutLeaf("o")
		root := w.over(c, o)
		fresh, _, _ := witnessRound(t, New(nil, parts, nil, nil), root, c, o, 1)
		m := New(nil, parts, nil, nil)
		Poison(m)
		m.test.lentAll = true
		got, _, _ := witnessRound(t, m, root, c, o, 1)
		if wrong := canon(got, w.ordered) != canon(fresh, w.ordered); wrong != w.aliases {
			t.Errorf("%s with every cut lent: rows wrong = %v, want %v", w.name, wrong, w.aliases)
		} else if wrong && !strings.Contains(canon(got, w.ordered), Poisoned.String()) {
			t.Errorf("%s with every cut lent: rows differ but hold no poison:\n%s", w.name, canon(got, w.ordered))
		}
	}

	rt := parityRT(t, parts)
	node, elide := doubleRouting(rt)
	volcano, err := exec.Run(node, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(rt, parts, nil, nil)
	m.Elide = elide
	Poison(m)
	m.test.freeEarly = true
	if got, err := m.Run(node); err == nil && canon(got, false) == canon(volcano, false) {
		t.Error("freeing before the consumer's region runs returned volcano's rows: the poison does not see it")
	}
}
