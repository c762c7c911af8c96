package core

import (
	"fmt"
	"strings"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// The per-iteration rule (restrict, dense): an installed step runs the
// restricted plan while the affected keys are at most half the CTE's
// and the full plan otherwise. The table below pins the decision
// sequence of crafted graphs whose frontier is known by hand, through
// the rewrite and the traced run; the step table after it pins the
// boundaries on hand-built state; the mutants at the end show that the
// two tables are what stands between a broken rule and a green run.

// edgeRT is a runtime over one edges(src, dst, weight) table.
func edgeRT(t *testing.T, parts int, edges [][2]int64) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(parts)
	tb, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int},
		{Name: "dst", Type: sqltypes.Int},
		{Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		tb.Insert(sqltypes.Row{sqltypes.NewInt(e[0]), sqltypes.NewInt(e[1]), sqltypes.NewFloat(1)})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

func pathEdges(n int64) [][2]int64 {
	var out [][2]int64
	for i := int64(1); i < n; i++ {
		out = append(out, [2]int64{i, i + 1})
	}
	return out
}

// minPathQuery floods the minimum along the edges on the rename path:
// node 1 starts at 0, everything else at 100, and each iteration a node
// takes the least of its own value and its predecessors'.
const minPathQuery = `WITH ITERATIVE c (node, val) AS (
  SELECT src, CASE WHEN src = 1 THEN 0 ELSE 100 END
  FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE SELECT c.node, LEAST(c.val, COALESCE(MIN(n.val), c.val))
  FROM c LEFT JOIN edges AS e ON c.node = e.dst
    LEFT JOIN c AS n ON n.node = e.src
  GROUP BY c.node, c.val
 UNTIL 6 ITERATIONS) SELECT node, val FROM c`

// ruleCase is one crafted graph: the query, the graph, and the Ri
// decision every iteration must take.
type ruleCase struct {
	name  string
	sql   string
	edges [][2]int64
	want  []string
	// sameScans demands the run scan exactly the rows the full plan's
	// run scans: a dense verdict must cost no identification pass.
	sameScans bool
}

// cycleCase is PageRank where every rank changes in every iteration:
// the walk says dense after four of six rows and nothing else is paid.
func cycleCase() ruleCase {
	return ruleCase{
		name: "PageRank on a cycle (rename path)", edges: append(pathEdges(6), [2]int64{6, 1}),
		sql:       strings.Replace(prQuery, "UNTIL 2 ITERATIONS", "UNTIL 5 ITERATIONS", 1),
		want:      []string{riFirst, riDense, riDense, riDense, riDense},
		sameScans: true,
	}
}

func ruleCases() []ruleCase {
	// 1 -> 2 -> 3 -> 4, then 4 fans out to 5..12: SSSP from node 1
	// changes one or two keys per iteration until the wave reaches the
	// hub, whose eight successors put ten of the twelve keys in the
	// frontier.
	fan := pathEdges(4)
	for d := int64(5); d <= 12; d++ {
		fan = append(fan, [2]int64{4, d})
	}
	return []ruleCase{
		{
			// One key changes per iteration and reaches one successor:
			// two of eight keys affected, every iteration after the first.
			name: "MIN along a path (rename path)", sql: minPathQuery, edges: pathEdges(8),
			want: []string{riFirst, riRestricted, riRestricted, riRestricted, riRestricted, riRestricted},
		},
		cycleCase(),
		{
			// Affected keys per iteration: {2,3}, {2,3,4}, then {3,4} and
			// the hub's eight successors — ten of twelve — and from there
			// the changed keys alone are nine and eight.
			name: "SSSP into a fan-out (merge path)", edges: fan,
			sql:  strings.Replace(ssspQuery, "UNTIL 5 ITERATIONS", "UNTIL 6 ITERATIONS", 1),
			want: []string{riFirst, riRestricted, riRestricted, riDense, riDense, riDense},
		},
	}
}

// check runs the case with incremental evaluation on (traced,
// cross-check armed) and off, at the given partition count, and reports
// every expectation that does not hold.
func (c ruleCase) check(t *testing.T, parts int) error {
	on := DefaultOptions()
	on.Trace, on.Paranoid, on.Parts = true, true, parts
	off := fullOptions()
	off.Parts = parts
	got, st := runIterative(t, edgeRT(t, parts, c.edges), c.sql, on)
	want, stOff := runIterative(t, edgeRT(t, parts, c.edges), c.sql, off)
	var bad []string
	if g, w := strings.Join(rowStrs(got), "|"), strings.Join(rowStrs(want), "|"); g != w {
		bad = append(bad, fmt.Sprintf("rows differ from the full plan's:\n  on: %s\n off: %s", g, w))
	}
	var seq []string
	rendered := st.Trace.Render()
	for _, s := range st.Trace.Spans {
		seq = append(seq, s.Ri)
		if line := fmt.Sprintf(", fed %d of %d (%s).\n", s.Fed, s.Full, s.Ri); !strings.Contains(rendered, line) {
			bad = append(bad, fmt.Sprintf("iteration %d: the rendered trace lacks %q", s.Iteration, line))
		}
		if s.Full > 0 && (s.Ri == riRestricted) != (s.Fed < s.Full) {
			bad = append(bad, fmt.Sprintf("iteration %d: fed %d of %d rows under %q", s.Iteration, s.Fed, s.Full, s.Ri))
		}
	}
	if g, w := strings.Join(seq, ", "), strings.Join(c.want, ", "); g != w {
		bad = append(bad, fmt.Sprintf("decisions per iteration:\n  got  %s\n  want %s", g, w))
	}
	if c.sameScans && st.ExecStats.RowsScanned != stOff.ExecStats.RowsScanned {
		bad = append(bad, fmt.Sprintf("scanned %d rows, the full plan's run %d: a dense iteration paid for an identification pass",
			st.ExecStats.RowsScanned, stOff.ExecStats.RowsScanned))
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// TestPerIterationRule: the decision sequence is a function of key
// counts, so it is the same at every partition count.
func TestPerIterationRule(t *testing.T) {
	for _, c := range ruleCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, parts := range []int{1, 2, 3} {
				if err := c.check(t, parts); err != nil {
					t.Errorf("parts=%d: %v", parts, err)
				}
			}
		})
	}
}

// stepCase drives MaintainAggStep by hand over identity plans: the
// snapshot of the previous iteration, the current CTE — which is the
// cache — and what the step must decide and feed.
type stepCase struct {
	name      string
	snap, cte *storage.Table // nil snap: the first iteration
	wantRi    string
	wantFed   int64
	degraded  bool // the context stands on the volcano rung
}

// dupCase holds a duplicate key that lines up with its snapshot row, so
// only the keyed diff can see it.
func dupCase() stepCase {
	return stepCase{name: "duplicate key lined up with its snapshot",
		snap: kvTable("s", 1, 1, 10, 2, 20, 3, 30, 3, 30),
		cte:  kvTable("c", 1, 1, 11, 2, 20, 3, 30, 3, 30), wantRi: riUncertified, wantFed: 4}
}

func stepCases() []stepCase {
	prev := func(name string) *storage.Table { return kvTable(name, 1, 1, 10, 2, 20, 3, 30, 4, 40) }
	one := func() *storage.Table { return kvTable("c", 1, 1, 11, 2, 20, 3, 30, 4, 40) } // key 1 changed
	return []stepCase{
		{name: "2*affected == |CTE| restricts", snap: prev("s"),
			cte: kvTable("c", 1, 1, 11, 2, 21, 3, 30, 4, 40), wantRi: riRestricted, wantFed: 2},
		{name: "one more key does not", snap: prev("s"),
			cte: kvTable("c", 1, 1, 11, 2, 21, 3, 31, 4, 40), wantRi: riDense, wantFed: 4},
		{name: "first iteration", cte: one(), wantRi: riFirst, wantFed: 4},
		{name: "degraded context", snap: prev("s"),
			cte: one(), wantRi: riDegraded, wantFed: 4, degraded: true},
		{name: "empty CTE after an empty CTE", snap: kvTable("s", 1),
			cte: kvTable("c", 1), wantRi: riRestricted, wantFed: 0},
		{name: "every key disappeared", snap: prev("s"),
			cte: kvTable("c", 1), wantRi: riDense, wantFed: 0},
		{name: "row order differs from the snapshot's", snap: prev("s"),
			cte: kvTable("c", 1, 4, 40, 3, 30, 2, 20, 1, 11), wantRi: riRestricted, wantFed: 1},
		{name: "row order differs, dense", snap: prev("s"),
			cte: kvTable("c", 1, 4, 41, 3, 31, 2, 21, 1, 10), wantRi: riDense, wantFed: 4},
		{name: "partition count differs from the snapshot's", snap: prev("s"),
			cte: kvTable("c", 2, 1, 11, 2, 20, 3, 30, 4, 40), wantRi: riRestricted, wantFed: 1},
		// The frontier is sparse, but the cache — the CTE — repeats a
		// key it did not change, and cannot be served from.
		{name: "duplicate cached key", snap: prev("s"),
			cte: kvTable("c", 1, 1, 11, 2, 20, 3, 30, 4, 40, 2, 77), wantRi: riUncertified, wantFed: 5},
		dupCase(),
	}
}

// check runs one maintained iteration over the case's state and reports
// the first expectation that does not hold. Full and Restricted are
// identity plans, so whichever ran, the output must be the CTE itself.
func (c stepCase) check(t *testing.T) error {
	rt := newRT(t)
	ctx := &Context{RT: rt, Stats: &Stats{}, Trace: newIterationTrace(1, 1), volcano: c.degraded}
	step := maintainFixture()
	step.Check = true
	step.Loop.keepSnap(c.snap)
	rt.Results.Put(step.CTE, c.cte)
	if err := step.Run(ctx); err != nil {
		return err
	}
	if ctx.Trace.ri != c.wantRi {
		return fmt.Errorf("decision %q, want %q", ctx.Trace.ri, c.wantRi)
	}
	if fed := ctx.Stats.AggInputRows; fed != c.wantFed || ctx.Stats.AggFullRows != int64(c.cte.Len()) {
		return fmt.Errorf("fed %d of %d rows, want %d of %d", fed, ctx.Stats.AggFullRows, c.wantFed, c.cte.Len())
	}
	got, want := rowStrs(rt.Results.Get(step.Into).AllRows()), rowStrs(c.cte.AllRows())
	if strings.Join(got, "|") != strings.Join(want, "|") {
		return fmt.Errorf("output %v, want the CTE %v", got, want)
	}
	if rt.Results.Get(step.In) != nil {
		return fmt.Errorf("%s outlived the step", step.In)
	}
	return nil
}

func TestPerIterationRuleBoundaries(t *testing.T) {
	for _, c := range stepCases() {
		t.Run(c.name, func(t *testing.T) {
			if err := c.check(t); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLockstepWalkOnlySaysDense: the walk answers true on a dense
// aligned difference and false — "ask the keyed diff" — on everything
// else, a sparse difference included.
func TestLockstepWalkOnlySaysDense(t *testing.T) {
	snap := kvTable("s", 1, 1, 10, 2, 20, 3, 30, 4, 40)
	keyed := func(name string, v int64, keys ...sqltypes.Value) *storage.Table {
		tb := kvTable(name, 1)
		for _, k := range keys {
			tb.Insert(sqltypes.Row{k, sqltypes.NewInt(v)})
		}
		return tb
	}
	for _, c := range []struct {
		name      string
		cte, snap *storage.Table
		want      bool
	}{
		{"three of four rows differ", kvTable("c", 1, 1, 11, 2, 21, 3, 31, 4, 40), snap, true},
		{"two of four rows differ", kvTable("c", 1, 1, 11, 2, 21, 3, 30, 4, 40), snap, false},
		{"identical", kvTable("c", 1, 1, 10, 2, 20, 3, 30, 4, 40), snap, false},
		{"keys misaligned at row 0", kvTable("c", 1, 4, 41, 3, 31, 2, 21, 1, 11), snap, false},
		{"CTE longer than the snapshot", kvTable("c", 1, 1, 10, 2, 20, 3, 30, 4, 40, 5, 50, 6, 60, 7, 70), snap, false},
		{"partition counts differ", kvTable("c", 2, 1, 11, 2, 21, 3, 31, 4, 41), snap, false},
		{"empty", kvTable("c", 1), kvTable("s", 1), false},
		// The key table's equality, not Row.Equal's: NULL lines up with
		// NULL and 1.0 with 1, so all three rows are compared and differ.
		{"NULL and mixed-type keys line up",
			keyed("c", 1, sqltypes.NullValue, sqltypes.NewFloat(1), sqltypes.NewInt(2)),
			keyed("s", 0, sqltypes.NullValue, sqltypes.NewInt(1), sqltypes.NewFloat(2)), true},
	} {
		if got := lockstepDense(c.cte, c.snap, 0); got != c.want {
			t.Errorf("%s: lockstepDense = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSeededRuleMutantsFailClosed seeds the two ways the rule could rot
// and demands the tables above notice. A walk that returns the sparse
// verdict itself — here, a positional diff standing in for the keyed
// one — skips the duplicate-key certification, and the lined-up
// duplicate restricts where it must run the full plan. A dense that
// never answers true is the parent commit's behaviour: every iteration
// restricts, the cycle pays |edges| + |CTE| identification scans per
// iteration, and only the scan count shows it, because the rows are
// right either way.
func TestSeededRuleMutantsFailClosed(t *testing.T) {
	dup, cycle := dupCase(), cycleCase()
	if err := dup.check(t); err != nil {
		t.Fatalf("unmutated: %v", err)
	}
	if err := cycle.check(t, 1); err != nil {
		t.Fatalf("unmutated: %v", err)
	}

	realDiff, realDense := keyedDiff, dense
	defer func() { keyedDiff, dense = realDiff, realDense }()

	keyedDiff = func(_ *Context, cte, snap *storage.Table, key int) *sqltypes.KeyTable {
		changed := sqltypes.NewKeyTable(1, 0)
		for p, part := range cte.Parts {
			for i, r := range part {
				if !snap.Parts[p][i].Equal(r) {
					changed.Insert(r[key : key+1])
				}
			}
		}
		return changed
	}
	if err := dup.check(t); err == nil || !strings.Contains(err.Error(), riUncertified) {
		t.Errorf("a diff without the duplicate-key certification went unnoticed: %v", err)
	}
	keyedDiff = realDiff

	dense = func(int, int) bool { return false }
	if err := cycle.check(t, 1); err == nil || !strings.Contains(err.Error(), "identification pass") {
		t.Errorf("a rule that always restricts did not show in the scan count: %v", err)
	}
}
