package exec

import (
	"fmt"
	"runtime"
	"testing"

	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// ownershipShapes are the plan shapes of exec_test.go and kernel_test.go
// by who keeps rows and who borrows them. l(k, v) and r(k, w) are
// orderRuntime's tables; edges and vertexStatus are testRuntime's.
// borrowers is how many operators of the plan must reuse their output
// row, so that a shape cannot pass by not borrowing.
var ownershipShapes = []struct {
	name, sql string
	borrowers int
}{
	{"inner join under project", "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k", 1},
	{"left join with residual", "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k AND r.w <> 'y'", 1},
	{"right join with residual", "SELECT l.v, r.w FROM l RIGHT JOIN r ON l.k = r.k AND l.v <> 'a'", 1},
	{"full join with residual", "SELECT l.v, r.w FROM l FULL JOIN r ON l.k = r.k AND r.w <> 'z'", 1},
	{"cross join", "SELECT l.v, r.w FROM l, r", 1},
	{"nested loop with predicate", "SELECT l.v, r.w FROM l JOIN r ON l.k < r.k", 1},
	{"join feeding a join's probe side", "SELECT l.v, r.w, l2.v FROM l JOIN r ON l.k = r.k LEFT JOIN l AS l2 ON l2.k = r.k", 2},
	{"join as build side", "SELECT a.v, b.w FROM l AS a JOIN (SELECT l.k AS k, r.w AS w FROM l JOIN r ON l.k = r.k) AS b ON a.k = b.k", 2},
	{"join as a right join's build side", "SELECT b.v, r.w FROM (SELECT l.k AS k, l2.v AS v FROM l JOIN l AS l2 ON l.k = l2.k) AS b RIGHT JOIN r ON b.k = r.k", 2},
	{"join as a nested loop's right side", "SELECT l.v, b.w FROM l, (SELECT r.w AS w FROM r JOIN l AS l2 ON l2.k = r.k) AS b", 2},
	{"aggregate over join", "SELECT l.k, COUNT(*), MIN(r.w) FROM l LEFT JOIN r ON l.k = r.k GROUP BY l.k", 1},
	{"project under aggregate", "SELECT s, COUNT(*), MAX(w) FROM (SELECT k + 1 AS s, w FROM r) AS x GROUP BY s", 1},
	{"filter between join and aggregate", "SELECT l.k, COUNT(*), MAX(r.w) FROM l LEFT JOIN r ON l.k = r.k WHERE r.w <> 'y' GROUP BY l.k", 1},
	{"distinct aggregate over join", "SELECT COUNT(DISTINCT r.w), COUNT(DISTINCT l.v) FROM l JOIN r ON l.k = r.k", 1},
	{"distinct at the root", "SELECT DISTINCT l.k FROM l JOIN r ON l.k = r.k", 1},
	{"distinct forwarding to an aggregate", "SELECT COUNT(*), MIN(w) FROM (SELECT DISTINCT l.k, r.w FROM l JOIN r ON l.k = r.k) AS d", 2},
	{"union all forwarding to an aggregate", "SELECT COUNT(*), MIN(x) FROM (SELECT v AS x FROM l UNION ALL SELECT w AS x FROM r) AS u", 2},
	{"union at the root", "SELECT v FROM l UNION SELECT w FROM r", 0},
	{"limit and offset at the root", "SELECT k + 1, w FROM r LIMIT 3 OFFSET 1", 0},
	{"limit and offset forwarding to an aggregate", "SELECT SUM(x), MIN(w) FROM (SELECT k + 1 AS x, w FROM r LIMIT 3 OFFSET 1) AS s", 1},
	{"sort over join", "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k ORDER BY r.w DESC, l.v", 1},
	{"sort on a hidden column", "SELECT l.v FROM l JOIN r ON l.k = r.k ORDER BY r.w", 1},
	{"top-N over join", "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k ORDER BY r.w, l.v LIMIT 3 OFFSET 1", 1},
	{"sort feeding an aggregate", "SELECT MIN(v), COUNT(*) FROM (SELECT l.v AS v FROM l JOIN r ON l.k = r.k ORDER BY r.w LIMIT 4) AS s", 1},
	{"having", "SELECT src, COUNT(*) FROM edges GROUP BY src HAVING COUNT(*) > 1", 0},
	{"aggregate over a three-way join", "SELECT e1.src, COUNT(*), SUM(e2.weight) FROM edges AS e1 JOIN edges AS e2 ON e1.dst = e2.src JOIN vertexStatus AS vs ON vs.node = e2.dst WHERE vs.status <> 0 GROUP BY e1.src", 2},
	{"case and coalesce over a left join", "SELECT e.src, COALESCE(vs.status, -1), CASE WHEN e.weight > 0 THEN 'w' ELSE 'z' END FROM edges AS e LEFT JOIN vertexStatus AS vs ON vs.node = e.dst + 1", 1},
}

// ownershipRuntime holds orderRuntime's and testRuntime's tables.
func ownershipRuntime(t *testing.T) *StoreRuntime {
	rt, graph := orderRuntime(t), testRuntime(t)
	for _, name := range []string{"edges", "vertexStatus"} {
		src := graph.Catalog.Get(name)
		tb, err := rt.Catalog.Create(name, src.Schema, src.DistCol)
		if err != nil {
			t.Fatal(err)
		}
		tb.InsertBatch(src.AllRows())
	}
	return rt
}

// TestBorrowedRowsSurviveScribbling runs every plan shape twice: with
// no operator borrowing, and as built with every borrowed row
// overwritten as soon as the contract lets it go. The ordered rows must
// be identical, so no consumer that was told it may only read a row
// keeps one.
func TestBorrowedRowsSurviveScribbling(t *testing.T) {
	rt := ownershipRuntime(t)
	for _, c := range ownershipShapes {
		node := planSQL(t, rt, c.sql)
		want, _, err := RunOwnership(node, rt, Retaining)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, scribblers, err := RunOwnership(node, rt, Scribbling)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if scribblers < c.borrowers {
			t.Errorf("%s: %d operators borrow, want at least %d\n%s", c.name, scribblers, c.borrowers, plan.ExplainTree(node))
		}
		if len(want) == 0 {
			t.Errorf("%s: no rows, the shape tests nothing", c.name)
		}
		if g, w := RowsText(got), RowsText(want); g != w {
			t.Errorf("%s: scribbled run differs from the retaining run\n got:\n%s\nwant:\n%s", c.name, g, w)
		}
	}
}

// TestOwnershipMutantsFail seeds the bugs the contract exists to prevent
// — a sort, and a hash join's build side, whose input was told it may
// reuse its row, and a sort over an aggregate told it may give its group
// table back for the next run to fill — and demands that the scribbling
// run catches each: a test that passes them would pass anything.
func TestOwnershipMutantsFail(t *testing.T) {
	rt := ownershipRuntime(t)
	for _, c := range []struct {
		name, sql string
		mode      OwnershipMode
		// sortAggregate replaces the plan by a sort straight over its
		// aggregate: the planner renames an aggregate's columns in a
		// projection, which copies them, so only such a plan keeps its rows.
		sortAggregate bool
	}{
		{"sort input lent", "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k ORDER BY r.w DESC, l.v", MutantSort, false},
		{"build side lent", "SELECT a.v, b.w FROM l AS a JOIN (SELECT l.k AS k, r.w AS w FROM l JOIN r ON l.k = r.k) AS b ON a.k = b.k", MutantBuildSide, false},
		{"aggregate under a sort lent", "SELECT l.k, COUNT(*), MIN(r.w) FROM l LEFT JOIN r ON l.k = r.k GROUP BY l.k", MutantSort, true},
	} {
		node := planSQL(t, rt, c.sql)
		if c.sortAggregate {
			node = &plan.Sort{Input: aggregateIn(node), Keys: []plan.SortKey{{Col: 0}}}
		}
		want, _, err := RunOwnership(node, rt, Retaining)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, _, err := RunOwnership(node, rt, c.mode)
		if err == nil && RowsText(got) == RowsText(want) {
			t.Errorf("%s: the mutant's rows equal the retaining run's; the scribbling test cannot see a broken keeper", c.name)
		}
	}
}

// TestFusedFragmentSurvivesScribbling: an MPP fragment is the same tree
// under the same contract. Here a join→aggregate→project pipeline runs
// as one fragment — the probe side a cut (rows an exchange delivered),
// the build side and the aggregate's input under the taps of two elided
// exchanges — and the join lends its row through the tap to the
// aggregate: scribbling over it must change nothing, and the taps, which
// may only read, must see every row intact.
func TestFusedFragmentSurvivesScribbling(t *testing.T) {
	rt := ownershipRuntime(t)
	node := planSQL(t, rt, "SELECT l.k + 1, COUNT(*), MIN(r.w) FROM l LEFT JOIN r ON l.k = r.k GROUP BY l.k")
	j := firstJoin(t, node)
	var joined, build int
	frag := &Fragment{
		Parts:  1,
		Inputs: map[plan.Node][][]sqltypes.Row{j.Left: {rt.Catalog.Get("l").AllRows()}},
		Taps: map[plan.Node]Tap{
			j.Right: {Check: func(_ int, r sqltypes.Row) error { build++; return nil }},
			j: {Check: func(_ int, r sqltypes.Row) error {
				joined++
				for _, v := range r {
					if sqltypes.Compare(v, scribbled) == 0 && !v.IsNull() {
						return fmt.Errorf("the tap was shown a row already scribbled over: %v", r)
					}
				}
				return nil
			}},
		},
	}
	want, _, err := RunOwnershipFragment(node, rt, Retaining, frag, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(node, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := RowsText(want), RowsText(plain); g != w || len(plain) == 0 {
		t.Fatalf("the fragment's rows differ from the volcano run's\n got:\n%s\nwant:\n%s", g, w)
	}
	joined, build = 0, 0
	got, scribblers, err := RunOwnershipFragment(node, rt, Scribbling, frag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if scribblers < 1 {
		t.Errorf("%d operators borrow, want the join at least\n%s", scribblers, plan.ExplainTree(node))
	}
	if g, w := RowsText(got), RowsText(want); g != w {
		t.Errorf("scribbled run differs from the retaining run\n got:\n%s\nwant:\n%s", g, w)
	}
	if joined != 7 || build != 6 {
		t.Errorf("the taps saw %d joined and %d build rows, want 7 and r's 6", joined, build)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestByteBudgetJoinAggregate gates the bytes a join feeding an
// aggregate allocates over the 1k × 3k benchmark input, at about 1.25×
// today's 753 KB (the build side's index, the group table, the
// accumulators and the 1000 output rows, twice: aggregate and project).
// The 3000 joined rows are borrowed; materializing them again adds
// 3000 × 4 × 40 = 480 KB (1246 KB before rows were borrowed) and fails.
func TestByteBudgetJoinAggregate(t *testing.T) {
	const budget = 940 << 10
	node, rt := kernelPlan(t, "SELECT fact.k, COUNT(*), SUM(fact.v * dim.w) FROM fact JOIN dim ON fact.k = dim.k GROUP BY fact.k")
	got := bytesPerRun(5, func() {
		if rows, err := Run(node, rt, nil); err != nil || len(rows) != 1000 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
	})
	if got > budget {
		t.Errorf("join→aggregate: %.0f bytes per run, budget %d", got, budget)
	}
	t.Logf("join→aggregate: %.0f bytes per run (budget %d)", got, budget)
}
