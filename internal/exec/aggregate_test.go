package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"dbspinner/internal/catalog"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// groupRuntime holds g(k, v, w): every value of layoutPool and the
// integers around 2^53 as k, three times each, with a row id v and a
// FLOAT w that runs through ±0 and NaN, over two partitions. No FLOAT
// 2^53 among the keys: it equals both INT 2^53 and 2^53+1, which differ,
// so which of their groups it joins is a matter of probe order, which
// the table's size decides.
func groupRuntime(t *testing.T) *StoreRuntime {
	t.Helper()
	cat := catalog.New(2)
	g, err := cat.Create("g", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}, {Name: "w", Type: sqltypes.Float}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := append([]sqltypes.Value{i64(1<<53 - 1), i64(1 << 53)}, layoutPool...)
	ws := []sqltypes.Value{f64(0), f64(math.Copysign(0, -1)), f64(math.NaN()), f64(2.5), null}
	for id := range 3 * len(keys) {
		g.Insert(sqltypes.Row{keys[id%len(keys)], i64(int64(id)), ws[id%len(ws)]})
	}
	return NewStoreRuntime(cat, storage.NewResultStore())
}

// aggregateIn returns the first aggregate node of n's plan.
func aggregateIn(n plan.Node) *plan.Aggregate {
	if a, ok := n.(*plan.Aggregate); ok {
		return a
	}
	for _, c := range n.Children() {
		if c == nil {
			continue
		}
		if a := aggregateIn(c); a != nil {
			return a
		}
	}
	return nil
}

// copyAggregate is the hash aggregate as it was while it copied its
// output: groups in a table of keys alone, accumulators beside it, then
// every group's key and results copied into capped rows carved from one
// exactly sized buffer (sqltypes.MakeRows, which had no other caller).
func copyAggregate(t *testing.T, node *plan.Aggregate, input []sqltypes.Row) []sqltypes.Row {
	t.Helper()
	ex, err := aggExprsOf(nil, node)
	if err != nil {
		t.Fatal(err)
	}
	nAggs, width := len(node.Aggs), len(ex.groupEx)
	newAgg := make([]func() expr.Aggregator, nAggs)
	for i, a := range node.Aggs {
		if newAgg[i], err = expr.NewAggregators(a.Name, a.Star, a.Distinct); err != nil {
			t.Fatal(err)
		}
	}
	groups := sqltypes.NewKeyTable(width, 0)
	var aggs []expr.Aggregator
	newGroup := func() {
		for _, mk := range newAgg {
			aggs = append(aggs, mk())
		}
	}
	key := make([]sqltypes.Value, width)
	for _, r := range input {
		if err := evalInto(ex.groupEx, r, key); err != nil {
			t.Fatal(err)
		}
		id, added := groups.Insert(key)
		if added {
			newGroup()
		}
		for i, spec := range node.Aggs {
			v := sqltypes.NewBool(true)
			if !spec.Star {
				if v, err = ex.argEx[i].Eval(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := aggs[id*nAggs+i].Add(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if width == 0 && groups.Len() == 0 {
		groups.Insert(nil)
		newGroup()
	}
	stride := width + nAggs
	buf := make([]sqltypes.Value, groups.Len()*stride)
	out := make([]sqltypes.Row, groups.Len())
	for id := range out {
		row := buf[id*stride : (id+1)*stride : (id+1)*stride]
		copy(row, groups.Key(id))
		for i, ag := range aggs[id*nAggs : (id+1)*nAggs] {
			row[width+i] = ag.Result()
		}
		out[id] = row
	}
	return out
}

// sameCells fails the test unless got and want hold the same rows, cell
// for cell: the same type and the same bits, so 1 stays apart from 1.0,
// -0 from +0 and a NaN payload from another.
func sameCells(t *testing.T, what string, got, want []sqltypes.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, the copy made %d", what, len(got), len(want))
	}
	for i := range want {
		same := len(got[i]) == len(want[i]) && cap(got[i]) == len(got[i])
		for j := 0; same && j < len(want[i]); j++ {
			g, w := got[i][j], want[i][j]
			same = g.T == w.T && g.I == w.I && g.S == w.S && math.Float64bits(g.F) == math.Float64bits(w.F)
		}
		if !same {
			t.Fatalf("%s: row %d is %#v (cap %d), the copy made %#v", what, i, got[i], cap(got[i]), want[i])
		}
	}
}

// TestAggregateRowsMatchCopy: the aggregate emits each group's row
// straight from its group table, the key and then one payload cell per
// aggregate, presized from how many groups the node made last in the
// run. Its rows must equal, row for row and bit for bit, what building
// the groups in a table of keys alone and copying them into rows of
// their own made — with no hint, an exact one, one too small, one too large, and
// one another partition left — over NULL, NaN, ±0 and 2^53±1 group
// keys, a scalar aggregate over empty input, and GROUP BY without
// aggregates. Runs for a lending consumer give their table and
// accumulators back when they close, and the next run resets and fills
// them: those runs must match too, and a keeping run after them must
// not see its rows change when a lending one takes the storage back. The
// table they leave stays in the partition's slot through every sweep, and
// a lending run in the loop fills it and gives it back.
func TestAggregateRowsMatchCopy(t *testing.T) {
	rt := groupRuntime(t)
	nodes := map[string]*plan.Aggregate{}
	for _, sql := range []string{
		"SELECT k, COUNT(*), COUNT(w), MIN(v), MAX(w), SUM(v), AVG(w) FROM g GROUP BY k",
		"SELECT w, k, SUM(v), COUNT(DISTINCT k) FROM g GROUP BY w, k",
		"SELECT COUNT(*), SUM(w), MIN(k) FROM g WHERE v < 0",
		"SELECT COUNT(*), SUM(w) FROM g",
		"SELECT k FROM g GROUP BY k",
		"SELECT v % 4 FROM g GROUP BY v % 4",
	} {
		a := aggregateIn(planSQL(t, rt, sql))
		if a == nil {
			t.Fatalf("%s: no aggregate in the plan", sql)
		}
		nodes[sql] = a
	}
	// No group keys and no aggregates: every row is the one empty group.
	nodes["no columns"] = &plan.Aggregate{Input: nodes["SELECT COUNT(*), SUM(w) FROM g"].Input}

	for name, node := range nodes {
		input, err := Drain(mustBuild(t, node.Input, rt))
		if err != nil {
			t.Fatal(err)
		}
		want := copyAggregate(t, node, input)
		hints := map[string]int{"none": 0, "exact": len(want), "too small": len(want) / 2, "too large": 2*len(want) + 3}
		for hname, hint := range hints {
			what := fmt.Sprintf("%s, %s hint", name, hname)
			memo := rt.WithMemo(NewMemo(nil))
			ex, err := aggExprsOf(memo.Memo(), node)
			if err != nil {
				t.Fatal(err)
			}
			ex.run.lastGroups.Store(int64(hint))
			for run := 0; run < 2; run++ { // the second run takes the first's count
				got, err := Run(node, memo, nil)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameCells(t, fmt.Sprintf("%s, run %d", what, run+1), got, want)
				if n := ex.run.lastGroups.Load(); n != int64(len(want)) {
					t.Fatalf("%s: the node noted %d groups, it made %d", what, n, len(want))
				}
			}
			// Lending runs, each after the hint is set again: the first
			// leaves its table behind, the ones after fill it again — but
			// never the one a keeping run between them filled, whose rows
			// its consumer still holds.
			var kept []sqltypes.Row
			keptCells := map[*sqltypes.Value]bool{}
			for run := 0; run < 4; run++ {
				ex.run.lastGroups.Store(int64(hint))
				op, err := buildWith(node, memo, nil, nil, true, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := drainCopies(op, func(r sqltypes.Row) {
					if len(r) > 0 && keptCells[unsafe.SliceData(r)] {
						t.Fatalf("%s, lending run %d: fills a row a keeping run handed out", what, run+1)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				sameCells(t, fmt.Sprintf("%s, lending run %d", what, run+1), got, want)
				if run == 1 {
					if kept, err = Run(node, memo, nil); err != nil {
						t.Fatal(err)
					}
					for _, r := range kept {
						keptCells[unsafe.SliceData(r)] = len(r) > 0
					}
				}
			}
			sameCells(t, what+", keeping run between lending ones", kept, want)

			// The last lending run's table stays in partition 0's slot
			// through every sweep; a lending run in the loop takes it,
			// fills it and gives it back, and it stays again.
			held := func() *sqltypes.KeyTable {
				s := ex.run.spare.take(0)
				ex.run.spare.give(0, s)
				return s.groups
			}
			table := held()
			if table == nil {
				t.Fatalf("%s: no table held after the lending runs", what)
			}
			for sweep := 1; sweep <= 3; sweep++ {
				memo.Memo().Sweep()
				if held() != table {
					t.Fatalf("%s: sweep %d let the lending runs' table go", what, sweep)
				}
			}
			op, err := buildWith(node, memo, nil, nil, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := drainCopies(op, func(sqltypes.Row) {}); err != nil {
				t.Fatal(err)
			}
			for sweep := 1; sweep <= 2; sweep++ {
				memo.Memo().Sweep()
				if held() != table {
					t.Fatalf("%s: the loop's lending run did not fill and give back the held table (sweep %d)", what, sweep)
				}
			}
		}

		// Two partitions of an MPP machine share the node's count: each
		// starts from the one the other left.
		memo := rt.WithMemo(NewMemo(nil))
		frag := &Fragment{Parts: 2}
		for _, part := range []int{0, 1, 0} {
			what := fmt.Sprintf("%s, partition %d, other partition's hint", name, part)
			in, err := Drain(mustBuildFragment(t, node.Input, memo, frag, part))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Drain(mustBuildFragment(t, node, memo, frag, part))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameCells(t, what, got, copyAggregate(t, node, in))
		}
	}
}

// TestAggregateHintSharedByConcurrentPartitions: the partitions of an
// MPP machine run one aggregate node at once, and all of them read and
// overwrite its group count in the run memo, and, when they lend their
// rows, give their group tables back to the node and take one another's;
// each must still return its own groups, as the copying aggregate made
// them.
func TestAggregateHintSharedByConcurrentPartitions(t *testing.T) {
	rt := groupRuntime(t)
	node := aggregateIn(planSQL(t, rt, "SELECT k, COUNT(*), SUM(v) FROM g GROUP BY k"))
	const parts = 4
	frag := &Fragment{Parts: parts}
	want := make([]string, parts)
	for p := range want {
		in, err := Drain(mustBuildFragment(t, node.Input, rt, frag, p))
		if err != nil {
			t.Fatal(err)
		}
		want[p] = RowsText(copyAggregate(t, node, in))
	}
	memo := rt.WithMemo(NewMemo(nil))
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < 20; run++ {
				op, err := BuildFragment(node, memo, nil, nil, frag, p)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := Drain(op)
				if err != nil {
					t.Error(err)
					return
				}
				if g := RowsText(got); g != want[p] {
					t.Errorf("partition %d, run %d:\n%s\nwant\n%s", p, run, g, want[p])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// drainCopies is Drain for a tree built for a consumer that lends its
// rows: it copies each row before asking for the next, as a reader
// would, and shows each row as handed out to see (nil: none).
func drainCopies(op Operator, see func(sqltypes.Row)) ([]sqltypes.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []sqltypes.Row
	for {
		r, err := op.Next()
		if err != nil || r == nil {
			return out, err
		}
		if see != nil {
			see(r)
		}
		out = append(out, r.Clone())
	}
}

func mustBuildFragment(t *testing.T, n plan.Node, rt Runtime, frag *Fragment, part int) Operator {
	t.Helper()
	op, err := BuildFragment(n, rt, nil, nil, frag, part)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestLeftoversCarryOnlyLentTables: the group tables a statement's run
// hands its next run (Leftovers) are the ones lending runs of a node gave
// back. The next run of a lending aggregate fills the table the last
// run's left instead of making one; a keeping aggregate — the root, whose
// rows the run returns — gives nothing back, so the next run never writes
// into the rows the last one returned. Giving it back (the seeded mutant)
// does.
func TestLeftoversCarryOnlyLentTables(t *testing.T) {
	rt := groupRuntime(t)
	node := aggregateIn(planSQL(t, rt, "SELECT k, COUNT(*), SUM(v) FROM g GROUP BY k"))
	// runs runs node in two runs of one statement: the first lending or
	// keeping, the second lending; it reports whether the second filled
	// the first's cells.
	runs := func(firstLends bool) (shared bool) {
		var l Leftovers
		cells := map[*sqltypes.Value]bool{}
		for run := 0; run < 2; run++ {
			m := l.Begin(nil, nil)
			op, err := buildWith(node, rt.WithMemo(m), nil, nil, run > 0 || firstLends, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := drainCopies(op, func(r sqltypes.Row) {
				if len(r) > 0 {
					shared = shared || cells[unsafe.SliceData(r)]
					cells[unsafe.SliceData(r)] = true
				}
			}); err != nil {
				t.Fatal(err)
			}
			l.End(m, true)
		}
		return shared
	}
	if !runs(true) {
		t.Error("the next run of a lending aggregate did not fill the table the last run left")
	}
	if runs(false) {
		t.Error("the next run filled the table of a keeping aggregate, whose rows the last run returned")
	}
	defer SeedKeepingGivesBack()()
	if !runs(false) {
		t.Error("a keeping aggregate that gives its table back goes unseen: the test cannot see it")
	}
}

// TestLeftoversCarryChunksOnlyFromCleanRuns: the row chunks a run's
// released tables hand back outlive a clean run, for the statement's next
// run to carve from, and go with a run that failed, or when the statement
// cache drops them.
func TestLeftoversCarryChunksOnlyFromCleanRuns(t *testing.T) {
	var l Leftovers
	// run carves three rows for an arena over the run's chunks, releases
	// them and ends the run.
	run := func(clean bool) {
		m := l.Begin(nil, nil)
		a := sqltypes.NewArena(m.Chunks())
		var s sqltypes.RowSlab
		s.CarveFor(&a)
		for i := 0; i < 3; i++ {
			s.Alloc(2)
		}
		a.Release(nil, 6, false)
		l.End(m, clean)
	}
	run(true)
	if l.ChunkBytes() == 0 {
		t.Fatal("a clean run carries no row chunks into the next")
	}
	run(false)
	if n := l.ChunkBytes(); n != 0 {
		t.Errorf("a failed run carries %d bytes of row chunks into the next", n)
	}
	run(true)
	l.DropChunks()
	if n := l.ChunkBytes(); n != 0 {
		t.Errorf("DropChunks left %d bytes of row chunks", n)
	}
}
