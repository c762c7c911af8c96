package mpp

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

// newRT builds a runtime with a generated graph in edges and a small
// kv table.
func newRT(t *testing.T, parts int) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(parts)
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int},
		{Name: "dst", Type: sqltypes.Int},
		{Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.PreferentialAttachment(200, 3, workload.WeightOutDegree, 3)
	edges.InsertBatch(workload.EdgeRows(g))
	kv, err := cat.Create("kv", sqltypes.Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: "v", Type: sqltypes.Int},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		kv.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i * 10)})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// runBoth executes a query sequentially and on the MPP machine and
// compares the row multisets.
func runBoth(t *testing.T, rt *exec.StoreRuntime, parts int, sql string) ([]sqltypes.Row, *Stats) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	seq, err := exec.Run(node, rt, nil)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	stats := &Stats{}
	m := New(rt, parts, stats, nil)
	par, err := m.Run(node)
	if err != nil {
		t.Fatalf("mpp: %v", err)
	}
	assertSameMultiset(t, sql, seq, par)
	return par, stats
}

func assertSameMultiset(t *testing.T, label string, a, b []sqltypes.Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", label, len(a), len(b))
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = a[i].String()
		bs[i] = b[i].String()
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("%s: multiset mismatch at %d: %q vs %q", label, i, as[i], bs[i])
		}
	}
}

func TestScanFilterProject(t *testing.T) {
	rt := newRT(t, 4)
	runBoth(t, rt, 4, "SELECT src * 2, weight FROM edges WHERE src % 3 = 0")
}

func TestHashJoinParallel(t *testing.T) {
	rt := newRT(t, 4)
	_, stats := runBoth(t, rt, 4, `SELECT a.src, b.dst FROM edges a JOIN edges b ON a.dst = b.src`)
	if stats.RowsShuffled == 0 {
		t.Error("join should shuffle rows")
	}
	if stats.Fragments == 0 {
		t.Error("fragments should be counted")
	}
}

func TestLeftJoinParallel(t *testing.T) {
	rt := newRT(t, 4)
	runBoth(t, rt, 4, `SELECT kv.k, e.src FROM kv LEFT JOIN edges e ON kv.k = e.dst`)
}

func TestRightAndFullJoinParallel(t *testing.T) {
	rt := newRT(t, 3)
	runBoth(t, rt, 3, `SELECT e.src, kv.k FROM edges e RIGHT JOIN kv ON e.dst = kv.k`)
	runBoth(t, rt, 3, `SELECT e.src, kv.k FROM edges e FULL JOIN kv ON e.dst = kv.k`)
}

func TestCrossJoinBroadcast(t *testing.T) {
	rt := newRT(t, 4)
	_, stats := runBoth(t, rt, 4, `SELECT COUNT(*) FROM kv a, kv b`)
	if stats.RowsShuffled == 0 {
		t.Error("broadcast should count movement")
	}
}

func TestAggregateParallel(t *testing.T) {
	rt := newRT(t, 4)
	runBoth(t, rt, 4, "SELECT src, COUNT(*), SUM(weight) FROM edges GROUP BY src")
	// Scalar aggregate.
	runBoth(t, rt, 4, "SELECT COUNT(*), MIN(src), MAX(dst) FROM edges")
	// Scalar aggregate over empty input still yields one row.
	rows, _ := runBoth(t, rt, 4, "SELECT COUNT(*) FROM edges WHERE src < 0")
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("empty scalar agg = %v", rows)
	}
}

func TestUnionDistinctParallel(t *testing.T) {
	rt := newRT(t, 4)
	runBoth(t, rt, 4, "SELECT src FROM edges UNION SELECT dst FROM edges")
	runBoth(t, rt, 4, "SELECT src FROM edges UNION ALL SELECT dst FROM edges")
	runBoth(t, rt, 4, "SELECT DISTINCT src FROM edges")
}

func TestSortLimitParallel(t *testing.T) {
	rt := newRT(t, 4)
	stmt, _ := parser.Parse("SELECT src, COUNT(*) AS c FROM edges GROUP BY src ORDER BY c DESC, src LIMIT 5")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := exec.Run(node, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(rt, 4, nil, nil)
	par, err := m.Run(node)
	if err != nil {
		t.Fatal(err)
	}
	// Ordered comparison: sort+limit output must match exactly.
	if len(seq) != len(par) {
		t.Fatalf("rows: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].String() != par[i].String() {
			t.Errorf("row %d: %q vs %q", i, seq[i], par[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	rt := newRT(t, 4)
	stmt, _ := parser.Parse("SELECT src, SUM(weight) FROM edges GROUP BY src ORDER BY src")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 5; i++ {
		m := New(rt, 4, nil, nil)
		rows, err := m.Run(node)
		if err != nil {
			t.Fatal(err)
		}
		strs := make([]string, len(rows))
		for j, r := range rows {
			strs[j] = r.String()
		}
		got := strings.Join(strs, "|")
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("run %d differs (parallel execution must be deterministic)", i)
		}
	}
}

func TestMaterializeParallel(t *testing.T) {
	rt := newRT(t, 4)
	stmt, _ := parser.Parse("SELECT src, COUNT(*) FROM edges GROUP BY src")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	m := New(rt, 4, nil, nil)
	tbl, err := m.Materialize(node, "counts", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumParts() != 4 {
		t.Errorf("parts = %d", tbl.NumParts())
	}
	seq, _ := exec.Run(node, rt, nil)
	if tbl.Len() != len(seq) {
		t.Errorf("materialized %d rows, want %d", tbl.Len(), len(seq))
	}
}

// TestMaterializePartitionKeyJoin: Materialize keeps the fragment
// partitioning, so a working table produced by a GROUP BY on the
// partition key can be self-joined on that key without moving a single
// row, and the join matches the single-partition volcano engine at
// parts ∈ {1, 4}. The iterative merge path (and delta iteration)
// depends on this: the working table is re-joined with the CTE every
// iteration.
func TestMaterializePartitionKeyJoin(t *testing.T) {
	for _, parts := range []int{1, 4} {
		rt := newRT(t, parts)
		stmt, err := parser.Parse("SELECT src, COUNT(*) AS c FROM edges GROUP BY src")
		if err != nil {
			t.Fatal(err)
		}
		node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		stats := &Stats{}
		m := New(rt, parts, stats, nil)
		tbl, err := m.Materialize(node, "working", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.NumParts() != parts {
			t.Fatalf("parts=%d: materialized into %d partitions", parts, tbl.NumParts())
		}
		rt.Results.Put("working", tbl)

		jstmt, err := parser.Parse("SELECT a.src, a.c + b.c FROM working AS a JOIN working AS b ON a.src = b.src")
		if err != nil {
			t.Fatal(err)
		}
		jnode, err := plan.NewBuilder(rt).Build(jstmt.(*ast.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := exec.Run(jnode, rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := stats.RowsRelocated
		par, err := m.Run(jnode)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMultiset(t, "self join", seq, par)
		if moved := stats.RowsRelocated - before; moved != 0 {
			t.Errorf("parts=%d: partition-key self-join moved %d rows; Materialize must preserve the shuffle layout", parts, moved)
		}

		// Joining back to the co-partitioned base table also matches the
		// single-partition engine (edges is distributed on a different
		// layout, so rows may move — correctness only).
		bstmt, err := parser.Parse("SELECT w.c, e.dst FROM working AS w JOIN edges AS e ON w.src = e.src")
		if err != nil {
			t.Fatal(err)
		}
		bnode, err := plan.NewBuilder(rt).Build(bstmt.(*ast.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		bseq, err := exec.Run(bnode, rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		bpar, err := m.Run(bnode)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMultiset(t, "base join", bseq, bpar)
	}
}

func TestPartitionMismatchRedistributes(t *testing.T) {
	// A table with 2 partitions read by a 5-partition machine.
	rt := newRT(t, 2)
	runBoth(t, rt, 5, "SELECT src FROM edges")
}

func TestSinglePartition(t *testing.T) {
	rt := newRT(t, 1)
	runBoth(t, rt, 1, "SELECT src, COUNT(*) FROM edges GROUP BY src")
}

func TestOneRowAndValues(t *testing.T) {
	rt := newRT(t, 4)
	runBoth(t, rt, 4, "SELECT 1 + 1")
}

func TestErrorPropagation(t *testing.T) {
	rt := newRT(t, 4)
	stmt, _ := parser.Parse("SELECT 1 / (src - src) FROM edges")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	m := New(rt, 4, nil, nil)
	if _, err := m.Run(node); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("expected division error, got %v", err)
	}
}

func TestNullKeysSurviveOuterJoin(t *testing.T) {
	cat := catalog.New(3)
	a, _ := cat.Create("a", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}}, -1)
	b, _ := cat.Create("b", sqltypes.Schema{{Name: "y", Type: sqltypes.Int}}, -1)
	a.Insert(sqltypes.Row{sqltypes.NullValue})
	a.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	b.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	rt := exec.NewStoreRuntime(cat, storage.NewResultStore())
	runBoth(t, rt, 3, "SELECT x, y FROM a LEFT JOIN b ON a.x = b.y")
}

// TestParallelShortCircuit: when one partition fails immediately, the
// siblings (spinning on their cancel checkers) must be cut short, and
// the real error — not a sibling's induced context.Canceled — must
// come back.
func TestParallelShortCircuit(t *testing.T) {
	m := &Machine{Parts: 4, Stats: &Stats{}}
	errReal := errors.New("partition exploded")
	start := time.Now()
	err := m.parallel(func(p int, cc *exec.CancelChecker) error {
		if p == 2 {
			return errReal
		}
		// Siblings busy-loop until their checker observes the induced
		// cancellation; without short-circuiting they run the full 2s.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if err := cc.Tick(); err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, errReal) {
		t.Fatalf("parallel returned %v, want the real partition error", err)
	}
	if elapsed > time.Second {
		t.Fatalf("siblings were not short-circuited: parallel took %v", elapsed)
	}
}

// TestParallelRealErrorBeatsInducedCancel: even if the induced
// cancellation error is recorded first, a later real error replaces
// it — timing must not decide between a symptom and a cause.
func TestParallelRealErrorBeatsInducedCancel(t *testing.T) {
	m := &Machine{Parts: 2, Stats: &Stats{}}
	errReal := errors.New("real failure")
	// Two-way handshake: both partitions are provably inside fn before
	// either returns, so neither worker is skipped by the induced
	// cancellation and both errors reach the first-error rule.
	in0, in1 := make(chan struct{}), make(chan struct{})
	err := m.parallel(func(p int, cc *exec.CancelChecker) error {
		if p == 0 {
			close(in0)
			<-in1
			return errReal
		}
		close(in1)
		<-in0
		return context.Canceled
	})
	if !errors.Is(err, errReal) {
		t.Fatalf("parallel returned %v, want real error over context.Canceled", err)
	}
}

// TestParallelExternalCancel: cancelling the machine context stops the
// batch and surfaces the context error even when no worker records
// one.
func TestParallelExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Machine{Parts: 2, Ctx: ctx, Stats: &Stats{}}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := m.parallel(func(p int, cc *exec.CancelChecker) error {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if err := cc.Tick(); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("external cancellation took %v", elapsed)
	}
	// A machine whose context is already dead refuses new batches at
	// the checkpoint, before spawning anything.
	if err := m.parallel(func(p int, cc *exec.CancelChecker) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled machine ran a batch: %v", err)
	}
}

// TestJoinTakesPartitionIndexesFromMemo: when a join's build side is a
// table's own partitions — an aligned scan whose exchange was elided —
// each fragment takes its partition's index from the run's memo, so a
// second evaluation builds nothing; a shuffled build side is a new
// relation every time and is indexed every time. Rows are identical in
// all cases (this test is in the -race pass: two fragments at once ask
// the memo and probe).
func TestJoinTakesPartitionIndexesFromMemo(t *testing.T) {
	const parts = 2
	plain := newRT(t, parts)
	stmt, err := parser.Parse("SELECT e.dst, kv.v FROM edges AS e JOIN kv ON e.src = kv.k")
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.NewBuilder(plain).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var join *plan.Join
	for n := plan.Node(node); join == nil; n = n.Children()[0] {
		join, _ = n.(*plan.Join)
	}
	// edges is stored by src and kv by k: both sides already sit where the
	// join's exchanges would send them.
	elide := map[plan.Node]Elide{join: {Left: true, LeftCols: []int{0}, Right: true, RightCols: []int{0}}}
	run := func(rt *exec.StoreRuntime, elide map[plan.Node]Elide) (string, int64) {
		t.Helper()
		var es exec.Stats
		m := New(rt, parts, nil, &es)
		m.Elide, m.CheckElide = elide, true
		rows, err := m.Run(node)
		if err != nil {
			t.Fatal(err)
		}
		strs := make([]string, len(rows))
		for i, r := range rows {
			strs[i] = r.String()
		}
		return strings.Join(strs, "\n"), es.RowsIndexed
	}
	want, indexed := run(plain, nil)
	if indexed != 50 {
		t.Fatalf("no memo, shuffled: RowsIndexed = %d, want kv's 50 rows", indexed)
	}
	memo := plain.WithMemo(exec.NewMemo(nil))
	for i, c := range []struct {
		name    string
		rt      *exec.StoreRuntime
		elide   map[plan.Node]Elide
		indexed int64
	}{
		{"no memo, elided", plain, elide, 50},
		{"memo, shuffled", memo, nil, 50},
		{"memo, elided, first", memo, elide, 50},
		{"memo, elided, again", memo, elide, 0},
		{"memo, shuffled again", memo, nil, 50},
	} {
		got, indexed := run(c.rt, c.elide)
		if got != want {
			t.Errorf("%d %s: rows differ from the plain run", i, c.name)
		}
		if indexed != c.indexed {
			t.Errorf("%d %s: RowsIndexed = %d, want %d", i, c.name, indexed, c.indexed)
		}
	}
	if n := memo.Memo().Len(); n != parts {
		t.Errorf("the memo holds %d indexes, want one per partition of kv", n)
	}
}

// TestMemoLessMachineSweepsItsOwnMemo: a machine over a runtime with no
// memo indexes in a memo of its own, and its Sweep — the loop's
// back-edge — drops what the run memo's Sweep drops: the index of a
// per-iteration table the next iteration replaced does not outlive the
// next sweep, so it pins that table no longer.
func TestMemoLessMachineSweepsItsOwnMemo(t *testing.T) {
	const parts = 2
	rt := newRT(t, parts)
	bind := func(scale int64) {
		w := storage.NewTable("w", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}, parts)
		w.DistCol = 0
		for i := int64(0); i < 50; i++ {
			w.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i * scale)})
		}
		rt.Results.Put("w", w)
	}
	bind(1)
	stmt, err := parser.Parse("SELECT e.dst, w.v FROM edges AS e JOIN w ON e.src = w.k")
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var join *plan.Join
	for n := plan.Node(node); join == nil; n = n.Children()[0] {
		join, _ = n.(*plan.Join)
	}
	m := New(rt, parts, nil, nil)
	m.Elide = map[plan.Node]Elide{join: {Left: true, LeftCols: []int{0}, Right: true, RightCols: []int{0}}}
	memo := m.RT.Memo()
	for iteration, want := range []int{parts, parts} {
		if iteration > 0 {
			bind(int64(iteration + 1)) // the iteration's own w
		}
		if _, err := m.Run(node); err != nil {
			t.Fatal(err)
		}
		m.Sweep()
		if n := memo.Len(); n != want {
			t.Errorf("after iteration %d's back-edge the machine's memo holds %d indexes, want %d: one per partition of the w it read", iteration+1, n, want)
		}
	}
}
