package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// fullOptions is the default configuration with incremental evaluation
// switched off: the full Ri plan every iteration, the baseline the
// restricted steps must match byte for byte.
func fullOptions() Options {
	o := DefaultOptions()
	o.Baseline = OptIncremental
	return o
}

// chainRT is the graph of TestSSSPMergePath: 1 -> 2 (w 1),
// 2 -> 3 (w 2), 1 -> 3 (w 5). SSSP converges in two iterations, so the
// later ones run over an empty frontier in delta mode.
func chainRT(t *testing.T) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(1)
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int},
		{Name: "dst", Type: sqltypes.Int},
		{Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		s, d int64
		w    float64
	}{{1, 2, 1}, {2, 3, 2}, {1, 3, 5}} {
		edges.Insert(sqltypes.Row{sqltypes.NewInt(e.s), sqltypes.NewInt(e.d), sqltypes.NewFloat(e.w)})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

func hasDeltaStep(prog *Program) bool {
	for _, s := range prog.Steps {
		if _, ok := s.(*DeltaMaterializeStep); ok {
			return true
		}
	}
	return false
}

// TestDeltaIterationSSSPIdentical is the acceptance check at the core
// layer: on the merge path the default rewrite takes the delta step,
// and the SSSP query produces byte-identical rows while Ri evaluates
// strictly fewer input rows than the full-table baseline would have.
func TestDeltaIterationSSSPIdentical(t *testing.T) {
	fullRows, fullStats := runIterative(t, chainRT(t), ssspQuery, fullOptions())
	deltaRows, deltaStats := runIterative(t, chainRT(t), ssspQuery, DefaultOptions())

	if got, want := strings.Join(rowStrs(deltaRows), "|"), strings.Join(rowStrs(fullRows), "|"); got != want {
		t.Errorf("delta mode changed the result:\n  delta: %s\n  full:  %s", got, want)
	}
	if fullStats.RiFullRows != 0 || fullStats.RiInputRows != 0 {
		t.Errorf("baseline should have no delta steps: full=%d input=%d",
			fullStats.RiFullRows, fullStats.RiInputRows)
	}
	if deltaStats.RiFullRows == 0 {
		t.Fatal("delta mode did not take the DeltaMaterializeStep path")
	}
	if deltaStats.RiInputRows >= deltaStats.RiFullRows {
		t.Errorf("frontier restriction saved nothing: input=%d full=%d",
			deltaStats.RiInputRows, deltaStats.RiFullRows)
	}
}

// Same check on the 2-partition default graph, exercising the
// partitioned FilterTableByKey path. This graph contains the cycle
// 1 -> 2 -> 3 -> 1, so the frontier never shrinks within the 5
// iterations — the point here is partitioned correctness, not savings.
func TestDeltaIterationPartitionedGraph(t *testing.T) {
	fullRows, _ := runIterative(t, newRT(t), ssspQuery, fullOptions())
	deltaRows, stats := runIterative(t, newRT(t), ssspQuery, DefaultOptions())
	if got, want := strings.Join(rowStrs(deltaRows), "|"), strings.Join(rowStrs(fullRows), "|"); got != want {
		t.Errorf("delta mode changed the result:\n  delta: %s\n  full:  %s", got, want)
	}
	if stats.RiFullRows == 0 || stats.RiInputRows > stats.RiFullRows {
		t.Errorf("delta accounting off: input=%d full=%d", stats.RiInputRows, stats.RiFullRows)
	}
}

// TestDeltaRewriteShape: the rewrite emits a DeltaMaterializeStep whose
// Explain names the frontier, the propagation rule derived from the
// sssp.node = IncomingEdges.dst / IncomingDistance.node =
// IncomingEdges.src equijoins, and the restricted plan; the plain
// rewrite of the same query does not.
func TestDeltaRewriteShape(t *testing.T) {
	rt := newRT(t)
	stmt, err := parser.Parse(ssspQuery)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !hasDeltaStep(prog) {
		t.Fatal("delta-eligible query did not get a DeltaMaterializeStep")
	}
	out := prog.Explain()
	for _, frag := range []string{
		"changed-row frontier of sssp (keys the last merge changed",
		"propagate via edges[0->1]",
		"Frontier#sssp",
		"Incremental sssp: licensed, delta step at step 3; per iteration: restricted while the affected keys are at most half of sssp; aggregates MIN.",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("explain missing %q:\n%s", frag, out)
		}
	}

	plain, err := Rewrite(stmt.(*ast.SelectStmt), rt, fullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hasDeltaStep(plain) {
		t.Error("Incremental off must not emit delta steps")
	}
	if out := plain.Explain(); !strings.Contains(out, "Incremental sssp: withheld: disabled.") {
		t.Errorf("explain does not say why the full plan runs:\n%s", out)
	}
}

// TestDeltaFallsBackWhenUnsafe: queries the analysis cannot prove safe
// run on the ordinary merge path (same results, no delta step).
func TestDeltaFallsBackWhenUnsafe(t *testing.T) {
	cases := []struct {
		name string
		sql  string
	}{
		{
			// Output column 0 is an expression, not the bare CTE key:
			// restricting the scan would drop unaffected keys from the result.
			"computed key column",
			`WITH ITERATIVE c (k, v) AS (SELECT 1, 0 UNION ALL SELECT 2, 0
			 ITERATE SELECT k + 0, v + 1 FROM c WHERE k >= 1 UNTIL 2 ITERATIONS)
			 SELECT k, v FROM c ORDER BY k`,
		},
		{
			// The inner self-reference is not routed to the outer key by
			// any equijoin, so changed keys cannot be propagated.
			"unrouted self join",
			`WITH ITERATIVE c (k, v) AS (SELECT 1, 0 UNION ALL SELECT 2, 0
			 ITERATE SELECT a.k, b.v + 1 FROM c AS a JOIN c AS b ON a.v <= b.v WHERE a.k = b.k + 0
			 UNTIL 2 ITERATIONS)
			 SELECT k, v FROM c ORDER BY k`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := parser.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Rewrite(stmt.(*ast.SelectStmt), newRT(t), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if hasDeltaStep(prog) {
				t.Fatal("unsafe query must fall back to the full merge path")
			}
			if out := prog.Explain(); !strings.Contains(out, "Incremental c: not licensed: ") {
				t.Errorf("explain does not say why the full plan runs:\n%s", out)
			}
			fullRows, _ := runIterative(t, newRT(t), tc.sql, fullOptions())
			deltaRows, _ := runIterative(t, newRT(t), tc.sql, DefaultOptions())
			if got, want := strings.Join(rowStrs(deltaRows), "|"), strings.Join(rowStrs(fullRows), "|"); got != want {
				t.Errorf("fallback changed the result:\n  delta: %s\n  full:  %s", got, want)
			}
		})
	}
}

// TestUpdatesTerminationReachesFixpoint is the regression test for the
// UNTIL n UPDATES overcounting bug: the counter used to advance by the
// materialized row count, so an Ri that reproduces the table unchanged
// still "updated" every row and a large N spun the loop until N rows
// had been re-materialized. With update counting fed by the
// identification pass, both values converge to 3 after three changing
// iterations, the fourth changes nothing, and the loop stops there —
// in every execution mode.
func TestUpdatesTerminationReachesFixpoint(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		opts Options
	}{
		{"copy-back path", `WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0 UNION ALL SELECT 2, 0
		 ITERATE SELECT k, LEAST(v + 1, 3) FROM c
		 UNTIL 100 UPDATES)
		 SELECT k, v FROM c ORDER BY k`, DefaultOptions()},
		{"merge path", `WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0 UNION ALL SELECT 2, 0
		 ITERATE SELECT k, LEAST(v + 1, 3) FROM c WHERE k >= 1
		 UNTIL 100 UPDATES)
		 SELECT k, v FROM c ORDER BY k`, fullOptions()},
		{"merge path, delta iteration", `WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0 UNION ALL SELECT 2, 0
		 ITERATE SELECT k, LEAST(v + 1, 3) FROM c WHERE k >= 1
		 UNTIL 100 UPDATES)
		 SELECT k, v FROM c ORDER BY k`, DefaultOptions()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, stats := runIterative(t, newRT(t), tc.sql, tc.opts)
			got := rowStrs(rows)
			if len(got) != 2 || got[0] != "1, 3" || got[1] != "2, 3" {
				t.Errorf("rows = %v", got)
			}
			// Iterations 1-3 change both rows, iteration 4 reproduces the
			// table and terminates the loop well short of N=100.
			if stats.Iterations != 4 {
				t.Errorf("iterations = %d, want 4 (fixpoint must stop the loop)", stats.Iterations)
			}
		})
	}
}

// TestUpdatesCountsActualChanges: the counter reflects changed rows,
// not materialized rows — one of the two rows is frozen from the
// start, so each iteration contributes 1 update and UNTIL 4 UPDATES
// takes four iterations (the old row-count scheme stopped after two).
func TestUpdatesCountsActualChanges(t *testing.T) {
	rows, stats := runIterative(t, newRT(t),
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0 UNION ALL SELECT 2, 100
		 ITERATE SELECT k, LEAST(v + 1, 100) FROM c
		 UNTIL 4 UPDATES)
		 SELECT k, v FROM c ORDER BY k`, DefaultOptions())
	got := rowStrs(rows)
	if len(got) != 2 || got[0] != "1, 4" || got[1] != "2, 100" {
		t.Errorf("rows = %v", got)
	}
	if stats.Iterations != 4 {
		t.Errorf("iterations = %d, want 4", stats.Iterations)
	}
}

// TestSSSPFrontierExpansion: merge append semantics let an SSSP seeded
// with only the source row grow the reached set iteration by iteration
// (the paper's cte LEFT JOIN working formulation would pin the result
// to the seed keys forever). Graph of newRT: 1->2 (0.5), 1->3 (0.5),
// 2->3 (1.0), 3->1 (1.0).
func TestSSSPFrontierExpansion(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"full", fullOptions()},
		{"delta iteration", DefaultOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, _ := runIterative(t, newRT(t),
				`WITH ITERATIVE s (node, dist) AS (
					SELECT 1, 0.0
				 ITERATE SELECT e.dst, MIN(s.dist + e.weight)
				  FROM s JOIN edges AS e ON s.node = e.src
				  WHERE e.weight < 10
				  GROUP BY e.dst
				 UNTIL 2 ITERATIONS)
				 SELECT node, dist FROM s ORDER BY node`, tc.opts)
			// Iteration 1 reaches 2 and 3 from the seed; iteration 2
			// relaxes 1 via 3->1 and keeps 2, 3. All three nodes must be
			// present: 2 and 3 were appended as new keys.
			want := map[int64]float64{1: 1.5, 2: 0.5, 3: 0.5}
			if len(rows) != len(want) {
				t.Fatalf("rows = %v (frontier did not expand)", rowStrs(rows))
			}
			for _, r := range rows {
				if w, ok := want[r[0].Int()]; !ok || math.Abs(r[1].Float()-w) > 1e-12 {
					t.Errorf("node %d dist = %v, want %v", r[0].Int(), r[1].Float(), want[r[0].Int()])
				}
			}
		})
	}
}

// TestDeltaTerminationRaggedRows: rows too short to carry the key
// column are invisible to the snapshot/changedRows comparison on BOTH
// sides — they used to be skipped by the comparison but counted by the
// snapshot, so a stable table containing one short row reported a
// phantom disappearance every iteration.
func TestDeltaTerminationRaggedRows(t *testing.T) {
	rt := newRT(t)
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	mk := func(rows ...sqltypes.Row) {
		tbl := storage.NewTable("c", schema, 1)
		tbl.InsertBatch(rows)
		rt.Results.Put("c", tbl)
	}
	l := &LoopState{Term: ast.Termination{Type: ast.TermDelta, N: 1}, CTEName: "c"}
	ctx := &Context{RT: rt, Stats: &Stats{}}

	mk(
		sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(10)},
		sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(20)},
		sqltypes.Row{}, // short: no key column
	)
	if err := l.snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if l.prevCount != 2 {
		t.Errorf("prevCount = %d, want 2 (short rows carry no key)", l.prevCount)
	}
	// Identical table: zero changes, even though the short row can
	// neither match nor disappear.
	if n, err := l.changedRows(ctx); err != nil || n != 0 {
		t.Errorf("stable ragged table: changed = %d, err = %v, want 0", n, err)
	}
	// Dropping a keyed row is one change; dropping the short row is not.
	mk(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(10)})
	if n, err := l.changedRows(ctx); err != nil || n != 1 {
		t.Errorf("one keyed row disappeared: changed = %d, err = %v, want 1", n, err)
	}
}

// TestDeltaStepWithoutKeyedMergeRunsFullPlan: a delta step restricts by
// the change sets its loop's keyed merges publish, so on a loop with no
// keyed merge — here the rename path, whose maintenance step is swapped
// for a delta step over the same restriction — it runs the full plan
// every iteration, and the rows are the unlicensed run's.
func TestDeltaStepWithoutKeyedMergeRunsFullPlan(t *testing.T) {
	edges := pathEdges(8)
	prog, err := Rewrite(mustParse(t, minPathQuery), edgeRT(t, 1, edges), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	swapped := false
	for i, s := range prog.Steps {
		if m, ok := s.(*MaintainAggStep); ok {
			prog.Steps[i] = &DeltaMaterializeStep{Restriction: m.Restriction, Loop: m.Loop}
			swapped = true
		}
	}
	if !swapped {
		t.Fatalf("no maintenance step to swap:\n%s", prog.Explain())
	}
	stats := &Stats{}
	got, err := prog.RunContext(context.Background(), edgeRT(t, 1, edges), stats)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runIterative(t, edgeRT(t, 1, edges), minPathQuery, fullOptions())
	if g, w := strings.Join(rowStrs(got), "|"), strings.Join(rowStrs(want), "|"); g != w {
		t.Errorf("rows differ from the unlicensed run's:\n  got  %s\n  want %s", g, w)
	}
	if stats.RiFullRows == 0 || stats.RiInputRows != stats.RiFullRows {
		t.Errorf("fed %d of %d rows, want every row of every iteration", stats.RiInputRows, stats.RiFullRows)
	}
}

// TestDenseChangeSetBuildsNoKeyTable: the delta step decides "dense"
// from the count its loop's merge published, before building any key
// set, so a dense iteration allocates nothing for the decision; a sparse
// one gets exactly the published keys.
func TestDenseChangeSetBuildsNoKeyTable(t *testing.T) {
	var rows []sqltypes.Row
	for k := int64(1); k <= 6; k++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(k)})
	}
	rows = append(rows, rows[0]) // a key the CTE repeats changes twice
	loop := &LoopState{}
	loop.changes = changeSet{wanted: true, merged: true, rows: rows, keys: 6}
	d := &DeltaMaterializeStep{Loop: loop}
	ctx := &Context{Stats: &Stats{}}
	if allocs := testing.AllocsPerRun(100, func() {
		if keys, why := d.changedKeys(ctx, 11); keys != nil || why != riDense {
			t.Fatalf("6 changed keys of 11 rows: %v, %q, want the dense verdict", keys, why)
		}
	}); allocs != 0 {
		t.Errorf("the dense decision made %v allocations, want 0", allocs)
	}
	keys, why := d.changedKeys(ctx, 12)
	if keys == nil || why != "" || keys.Len() != 6 {
		t.Fatalf("6 changed keys of 12 rows: %v, %q, want the 6 keys", keys, why)
	}
	ctx.letGo(keys)
}
