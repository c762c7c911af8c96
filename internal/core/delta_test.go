package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// baselineOptions withholds every optimization: the "full" cases below
// run the loop as plainly as the rewrite can, against the default
// options of their "delta iteration" twins, which once licensed the
// removed incremental step and now run Ri in full as well.
func baselineOptions() Options {
	o := DefaultOptions()
	o.Baseline = OptRename | OptCommonResults | OptPushdown | OptColumnPruning | OptShuffleElision
	return o
}

// TestDeltaIterationPartitionedGraph: the merge path (partial update)
// on the 2-partition graph of newRT, which has the cycle 1 -> 2 -> 3 ->
// 1, evaluates Ri over the whole CTE with a plain materialization every
// iteration and returns the shortest distances from node 1.
func TestDeltaIterationPartitionedGraph(t *testing.T) {
	rows, stats := runIterative(t, newRT(t), ssspQuery, DefaultOptions())
	if got, want := strings.Join(rowStrs(rows), "|"), "1, 0|2, 0.5|3, 0.5"; got != want {
		t.Errorf("sssp = %s, want %s", got, want)
	}
	if stats.RiFullRows != 0 || stats.RiInputRows != 0 {
		t.Errorf("no step restricts Ri, yet it fed %d of %d rows", stats.RiInputRows, stats.RiFullRows)
	}
}

// TestDeltaRewriteShape: the merge-path rewrite materializes Ri whole
// into the working table, merges it into the CTE and renames the merge
// back; no frontier input and no incremental decision appear.
func TestDeltaRewriteShape(t *testing.T) {
	prog, err := Rewrite(mustParse(t, ssspQuery), newRT(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"*core.MaterializeStep", "*core.InitLoopStep", "*core.MaterializeStep", "*core.MergeStep",
		"*core.RenameStep", "*core.TruncateStep", "*core.UpdateLoopStep", "*core.LoopStep"}
	var got []string
	for _, s := range prog.Steps {
		got = append(got, fmt.Sprintf("%T", s))
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("steps %v, want %v", got, want)
	}
	out := prog.Explain()
	if !strings.Contains(out, "Step 3: Materialize Intermediate#sssp") {
		t.Errorf("explain does not materialize Ri at step 3:\n%s", out)
	}
	for _, frag := range []string{"Frontier#", "Incremental", "restricted"} {
		if strings.Contains(out, frag) {
			t.Errorf("explain mentions %q:\n%s", frag, out)
		}
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
		 SELECT k, v FROM c ORDER BY k`, baselineOptions()},
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
		{"full", baselineOptions()},
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
