package core

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// TestIncAggOrderingContract pins the contract stated in DESIGN.md §5f:
// the incremental program's output is byte-identical to the full
// plan's — row order and float SUM accumulation order included —
// because the restricted plan re-folds whole groups, never partial
// deltas, and the maintenance splice (PR, rename path) walks the CTE in
// scan order while the merge (SSSP, merge path) keeps every other row
// in place.
func TestIncAggOrderingContract(t *testing.T) {
	queries := map[string]string{
		"PR":   strings.Replace(prQuery, "UNTIL 2 ITERATIONS", "UNTIL 10 ITERATIONS", 1),
		"SSSP": strings.Replace(ssspQuery, "UNTIL 5 ITERATIONS", "UNTIL 10 ITERATIONS", 1),
	}
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			on := DefaultOptions()
			on.Paranoid = true
			off := DefaultOptions()
			off.Baseline = OptIncremental
			gotRows, stats := runIterative(t, newRT(t), sql, on)
			wantRows, _ := runIterative(t, newRT(t), sql, off)
			got, want := rowStrs(gotRows), rowStrs(wantRows)
			if len(got) != len(want) {
				t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("row %d: maintained %q vs full %q", i, got[i], want[i])
				}
			}
			if name == "PR" && stats.AggFullRows == 0 {
				t.Error("the maintenance step never engaged")
			}
			if name == "SSSP" && stats.RiFullRows == 0 {
				t.Error("the delta step never engaged")
			}
		})
	}
}

// idResult is an identity plan over a named intermediate result —
// enough to drive MaintainAggStep's runtime directly, where the plans
// are opaque.
func idResult(name string, schema sqltypes.Schema) *plan.NamedResult {
	cols := make([]plan.ColInfo, len(schema))
	for i, c := range schema {
		cols[i] = plan.ColInfo{Name: c.Name, Type: c.Type}
	}
	return &plan.NamedResult{Name: name, Alias: name, Cols: cols}
}

func kvTable(name string, parts int, kv ...int64) *storage.Table {
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	tb := storage.NewTable(name, schema, parts)
	tb.DistCol = 0
	for i := 0; i < len(kv); i += 2 {
		tb.Insert(sqltypes.Row{sqltypes.NewInt(kv[i]), sqltypes.NewInt(kv[i+1])})
	}
	return tb
}

func maintainFixture() *MaintainAggStep {
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	return &MaintainAggStep{
		Restriction: Restriction{
			Into: "m", Plan: idResult("AggIn#c", schema), In: "AggIn#c", CTE: "c",
		},
		Loop: &LoopState{},
	}
}

// TestMaintainStepDirect drives the step's runtime paths by hand with
// identity plans: full fold on the first iteration, group-granular
// maintenance on the second, and dynamic fallback when the CTE stops
// being key-identified.
func TestMaintainStepDirect(t *testing.T) {
	rt := newRT(t)
	ctx := &Context{RT: rt, Stats: &Stats{}}
	step := maintainFixture()

	// Missing CTE is an error.
	if err := step.Run(ctx); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing CTE: err = %v", err)
	}

	// First iteration: no accumulator yet, full path.
	rt.Results.Put("c", kvTable("c", 1, 1, 10, 2, 20, 3, 30))
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats.AggFullRows; got != 3 {
		t.Errorf("AggFullRows = %d, want 3", got)
	}
	if got := ctx.Stats.AggInputRows; got != 3 {
		t.Errorf("AggInputRows = %d, want 3 (first iteration is a full fold)", got)
	}
	if step.Loop.aggSnap != rt.Results.Get("c") {
		t.Fatal("the loop state does not keep the CTE as the snapshot")
	}

	// Second iteration: key 1 changed, keys 2 and 3 must be served from
	// the cache; only the one affected row feeds the restricted plan.
	rt.Results.Put("c", kvTable("c", 1, 1, 11, 2, 20, 3, 30))
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats.AggInputRows; got != 4 {
		t.Errorf("AggInputRows = %d, want 4 (3 full + 1 maintained)", got)
	}
	out := rt.Results.Get("m")
	if out == nil {
		t.Fatal("no output")
	}
	got := make([]string, 0, 3)
	for _, r := range out.AllRows() {
		got = append(got, r.String())
	}
	want := []string{"1, 11", "2, 20", "3, 30"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("maintained output = %v, want %v (CTE scan order)", got, want)
	}
	// The transient restricted input must not outlive the step.
	if rt.Results.Get("AggIn#c") != nil {
		t.Error("AggIn#c leaked past the step")
	}

	// Duplicate keys mean groups are no longer key-identified: the step
	// must fall back to the full plan, not certify a wrong cache.
	rt.Results.Put("c", kvTable("c", 1, 1, 12, 2, 20, 3, 30, 3, 31))
	before := ctx.Stats.AggInputRows
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats.AggInputRows - before; got != 4 {
		t.Errorf("fallback fed %d rows, want 4 (the whole CTE)", got)
	}

	if !strings.Contains(step.Explain(), "Maintain aggregates of c into m") {
		t.Errorf("explain = %q", step.Explain())
	}
}

// TestMaintainFallsBackOnDuplicateCachedKeys: the cached groups are the
// CTE's rows, so a CTE with two rows for one key cannot be spliced from,
// whether the key is affected this iteration or served from the cache —
// the keyed diff refuses it and the step runs the full plan either way.
func TestMaintainFallsBackOnDuplicateCachedKeys(t *testing.T) {
	for _, dupKey := range []int64{1, 2} { // 1 changes below, 2 does not
		rt := newRT(t)
		ctx := &Context{RT: rt, Stats: &Stats{}}
		step := maintainFixture()
		rt.Results.Put("c", kvTable("c", 1, 1, 10, 2, 20, 3, 30))
		if err := step.Run(ctx); err != nil {
			t.Fatal(err)
		}
		rt.Results.Put("c", kvTable("c", 1, 1, 11, 2, 20, 3, 30, dupKey, 77))
		before := ctx.Stats.AggInputRows
		if err := step.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Stats.AggInputRows - before; got != 4 {
			t.Errorf("duplicate cached key %d: fed %d rows, want 4 (full-plan fallback)", dupKey, got)
		}
	}
}

// tenfold is the plan SELECT k, k * 10 FROM name: what a fixture's Ri
// derives for every group, whatever the CTE's row for it says.
func tenfold(name string) plan.Node {
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	k := &ast.ColumnRef{Name: "k"}
	return &plan.Project{Input: idResult(name, schema), Items: []plan.ProjItem{
		{Expr: k, Name: "k", Type: sqltypes.Int},
		{Expr: &ast.BinaryExpr{Op: "*", L: k, R: ast.NewLiteral(sqltypes.NewInt(10))}, Name: "v", Type: sqltypes.Int},
	}}
}

// TestMaintainCrossCheckCatchesPoisonedAccumulator proves the dynamic
// cross-check (Options.Paranoid) is a real oracle: corrupt one cached
// group between iterations — the CTE's row and the snapshot's alike, so
// the diff cannot see it — and the next maintained fold must fail the
// query instead of serving the stale row.
func TestMaintainCrossCheckCatchesPoisonedAccumulator(t *testing.T) {
	rt := newRT(t)
	ctx := &Context{RT: rt, Stats: &Stats{}}
	step := maintainFixture()
	step.Plan = tenfold("AggIn#c")
	step.Check = true

	rt.Results.Put("c", kvTable("c", 1, 1, 10, 2, 20, 3, 30))
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Poison the cached group of key 2 — the first unaffected key in
	// scan order, which the deterministic sample always covers.
	poison := func(v int64) {
		step.Loop.keepSnap(kvTable("c", 1, 1, 10, 2, 99, 3, 30))
		rt.Results.Put("c", kvTable("c", 1, 1, v, 2, 99, 3, 30))
	}
	poison(11)
	if err := step.Run(ctx); err == nil || !strings.Contains(err.Error(), "cross-check") {
		t.Fatalf("poisoned accumulator not caught: err = %v", err)
	}

	// Sanity: with the check off, the same poison is served silently —
	// which is exactly why the verifier proves the one-writer rule
	// statically and CI arms the check dynamically.
	step.Check = false
	poison(12)
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for _, r := range rt.Results.Get("m").AllRows() {
		if r.String() == "2, 99" {
			return
		}
	}
	t.Error("expected the unchecked run to serve the poisoned row (documents what the check defends against)")
}

// capQuery raises every node's value by the largest weight into it, up
// to 5: a node at 5 stops changing, so the frontier thins and later
// iterations restrict. Ri reads the CTE only through its outer scan, so
// no join index pins the CTE table a rename displaces.
const capQuery = `WITH ITERATIVE c (node, val) AS (
  SELECT src, src - 1 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE SELECT c.node, LEAST(c.val + COALESCE(MAX(e.weight), 1), 5)
  FROM c LEFT JOIN edges AS e ON c.node = e.dst
  GROUP BY c.node, c.val
 UNTIL 6 ITERATIONS) SELECT node, val FROM c`

// TestMaintainSnapshotOutlivesTheRename: the snapshot the maintenance
// step keeps on its loop is the CTE table the next rename displaces, and
// the rows it serves unaffected groups from are that table's. With row
// chunks poisoned the moment a released table hands them back
// (sqltypes.Poison), a snapshot the store released would read <reused>:
// every diff would come out dense, and a splice would serve poisoned
// rows. The maintained run must return the full plan's rows and
// restrict.
func TestMaintainSnapshotOutlivesTheRename(t *testing.T) {
	defer sqltypes.Poison()()
	edges := pathEdges(12)
	got, st := runIterative(t, edgeRT(t, 1, edges), capQuery, DefaultOptions())
	want, _ := runIterative(t, edgeRT(t, 1, edges), capQuery, fullOptions())
	if g, w := strings.Join(rowStrs(got), "|"), strings.Join(rowStrs(want), "|"); g != w {
		t.Errorf("rows differ from the full plan's:\n  got  %s\n  want %s", g, w)
	}
	if st.AggInputRows >= st.AggFullRows {
		t.Errorf("fed %d of %d rows: no iteration restricted", st.AggInputRows, st.AggFullRows)
	}
}
