package exec

import (
	"errors"
	"testing"

	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// joinNode plans the query and returns its first join.
func joinNode(t *testing.T, rt *StoreRuntime, sql string) *plan.Join {
	t.Helper()
	return firstJoin(t, planSQL(t, rt, sql))
}

// firstJoin returns the first join of the plan below n.
func firstJoin(t *testing.T, n plan.Node) *plan.Join {
	t.Helper()
	var join *plan.Join
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && join == nil {
			join = j
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	if join == nil {
		t.Fatal("no join in plan")
	}
	return join
}

// runFragment builds and drains partition part's tree of n.
func runFragment(t *testing.T, n plan.Node, rt Runtime, stats *Stats, frag *Fragment, part int) []sqltypes.Row {
	t.Helper()
	op, err := BuildFragment(n, rt, stats, nil, frag, part)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// cutInputs is a one-partition fragment reading rows in place of each
// given node.
func cutInputs(inputs map[plan.Node][]sqltypes.Row) *Fragment {
	f := &Fragment{Parts: 1, Inputs: map[plan.Node][][]sqltypes.Row{}}
	for n, rows := range inputs {
		f.Inputs[n] = [][]sqltypes.Row{rows}
	}
	return f
}

func TestJoinKeysExtraction(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON e.dst = v.node AND e.weight > 0.5`)
	lk, rk, residual, err := compileJoinKeys(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lk) != 1 || len(rk) != 1 {
		t.Errorf("keys = %d/%d", len(lk), len(rk))
	}
	if residual == nil {
		t.Error("non-equi conjunct should become residual")
	}
	// Reversed operand order also extracts.
	j = joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON v.node = e.dst`)
	lk, _, residual, err = compileJoinKeys(j, nil)
	if err != nil || len(lk) != 1 || residual != nil {
		t.Errorf("reversed equi: %d keys, residual %v, err %v", len(lk), residual, err)
	}
}

func TestHashIndexKeys(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON e.dst = v.node`)
	lk, _, _, err := compileJoinKeys(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	nullRow := sqltypes.Row{sqltypes.NewInt(1), sqltypes.NullValue, sqltypes.NewFloat(1)}
	x, err := BuildHashIndex([]sqltypes.Row{
		nullRow,
		{sqltypes.NewInt(1), sqltypes.NewInt(7), sqltypes.NewFloat(1)},
	}, lk)
	if err != nil {
		t.Fatal(err)
	}
	probe := sqltypes.Row{sqltypes.NewInt(9), sqltypes.NewFloat(7), sqltypes.NewFloat(2)}
	buf := make([]sqltypes.Value, len(lk))
	if i, err := x.First(probe, lk, buf); err != nil || i != 1 || x.Next(i) != -1 {
		t.Errorf("7.0 should meet exactly the build row keyed 7: first=%d err=%v", i, err)
	}
	if i, _ := x.First(nullRow, lk, buf); i != -1 {
		t.Errorf("a NULL key must match nothing, not even the NULL-keyed build row: first=%d", i)
	}
}

func TestGroupKeyExprs(t *testing.T) {
	rt := testRuntime(t)
	agg := planSQL(t, rt, "SELECT src, COUNT(*) FROM edges GROUP BY src").(*plan.Project).Input.(*plan.Aggregate)
	keys, err := groupKeyExprs(agg, nil)
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys = %d, %v", len(keys), err)
	}
	v, err := keys[0].Eval(sqltypes.Row{sqltypes.NewInt(5), sqltypes.NewInt(6), sqltypes.NewFloat(1)})
	if err != nil || v.Int() != 5 {
		t.Errorf("key eval = %v, %v", v, err)
	}
}

// TestFragmentJoinOverCutInputs: a join whose two sides were cut reads
// the rows handed in, with the volcano join's semantics — the caller
// guarantees co-partitioning.
func TestFragmentJoinOverCutInputs(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e LEFT JOIN vertexStatus v ON e.dst = v.node`)
	left := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewFloat(1)},
		{sqltypes.NewInt(1), sqltypes.NewInt(99), sqltypes.NewFloat(1)}, // no match
	}
	right := []sqltypes.Row{{sqltypes.NewInt(2), sqltypes.NewInt(1)}}
	var st Stats
	out := runFragment(t, j, rt, &st, cutInputs(map[plan.Node][]sqltypes.Row{j.Left: left, j.Right: right}), 0)
	if len(out) != 2 {
		t.Fatalf("out = %d rows", len(out))
	}
	matched, unmatched := 0, 0
	for _, r := range out {
		if len(r) != 5 {
			t.Fatalf("row width %d", len(r))
		}
		if r[3].IsNull() {
			unmatched++
		} else {
			matched++
		}
	}
	if matched != 1 || unmatched != 1 {
		t.Errorf("matched=%d unmatched=%d", matched, unmatched)
	}
	if st.RowsScanned != 0 || st.RowsIndexed != 1 || st.RowsJoined != 2 {
		t.Errorf("cut inputs are not scans: %+v", st)
	}

	// A cross join of two cut inputs pairs everything.
	c := joinNode(t, rt, `SELECT * FROM edges a, edges b`)
	pairs := runFragment(t, c, rt, nil, cutInputs(map[plan.Node][]sqltypes.Row{c.Left: left, c.Right: left}), 0)
	if len(pairs) != 4 {
		t.Fatalf("cross join: %d rows", len(pairs))
	}
}

// TestFragmentScansItsPartition: a scan under a fragment reads its own
// partition of an aligned table and every Parts-th row of any other,
// and the shares add up to the table.
func TestFragmentScansItsPartition(t *testing.T) {
	rt := testRuntime(t) // tables in 2 partitions
	scan := planSQL(t, rt, "SELECT src, dst FROM edges")
	edges := rt.Catalog.Get("edges")
	for _, parts := range []int{2, 3} {
		var got []sqltypes.Row
		var st Stats
		frag := &Fragment{Parts: parts}
		for p := 0; p < parts; p++ {
			rows := runFragment(t, scan, rt, &st, frag, p)
			if parts == 2 && len(rows) != len(edges.Parts[p]) {
				t.Errorf("aligned: partition %d read %d rows, holds %d", p, len(rows), len(edges.Parts[p]))
			}
			got = append(got, rows...)
		}
		if st.RowsScanned != 4 {
			t.Errorf("parts=%d: the fragments scanned %d rows, the table has 4", parts, st.RowsScanned)
		}
		expectSet(t, got, rowStrings(runSQL(t, rt, "SELECT src, dst FROM edges"))...)
	}
}

// TestFragmentJoinTakesPartitionIndexFromMemo: a join whose build side
// is a scan takes its partition's index of the table from the run's
// memo, the volcano join's path — unless the fragment's share is no
// partition of the table, and then it drains the scan. A tap on the
// build side sees the build rows either way, also those nobody scanned
// because the index came out of the memo.
func TestFragmentJoinTakesPartitionIndexFromMemo(t *testing.T) {
	const joinSQL = "SELECT e.src, v.status FROM edges e JOIN vertexStatus v ON e.dst = v.node"
	want := rowStrings(runSQL(t, testRuntime(t), joinSQL))
	for _, c := range []struct {
		parts int
		memo  int // indexes the memo ends up with
	}{{2, 2}, {3, 0}} {
		rt := testRuntime(t).WithMemo(NewMemo(nil))
		join := planSQL(t, rt, joinSQL)
		j := firstJoin(t, join)
		tapped := 0
		frag := &Fragment{
			Parts: c.parts,
			// Every probe row in every partition: whatever share of the
			// build side a partition holds, it meets its matches there.
			Inputs: map[plan.Node][][]sqltypes.Row{j.Left: make([][]sqltypes.Row, c.parts)},
			Taps:   map[plan.Node]Tap{j.Right: {Count: func(_, n int) { tapped += n }}},
		}
		for p := range frag.Inputs[j.Left] {
			frag.Inputs[j.Left][p] = rt.Catalog.Get("edges").AllRows()
		}
		for run := 0; run < 2; run++ {
			var got []sqltypes.Row
			var st Stats
			tapped = 0
			for p := 0; p < c.parts; p++ {
				got = append(got, runFragment(t, join, rt, &st, frag, p)...)
			}
			expectSet(t, got, want...)
			wantIndexed := int64(4)
			if run > 0 && c.memo > 0 {
				wantIndexed = 0
			}
			if st.RowsIndexed != wantIndexed || st.RowsScanned != wantIndexed {
				t.Errorf("parts=%d run %d: RowsIndexed = %d, RowsScanned = %d, want %d", c.parts, run, st.RowsIndexed, st.RowsScanned, wantIndexed)
			}
			if tapped != 4 {
				t.Errorf("parts=%d run %d: the build side's tap saw %d rows, want vertexStatus's 4", c.parts, run, tapped)
			}
		}
		if n := rt.Memo().Len(); n != c.memo {
			t.Errorf("parts=%d: the memo holds %d indexes, want %d", c.parts, n, c.memo)
		}
	}
}

// TestFragmentTap: a tap is shown each row its node hands up, on a cut
// and on an operator alike, with the partition; its error fails the
// fragment.
func TestFragmentTap(t *testing.T) {
	rt := testRuntime(t)
	join := planSQL(t, rt, "SELECT e.src, v.status FROM edges e JOIN vertexStatus v ON e.dst = v.node")
	j := firstJoin(t, join)
	seen := map[plan.Node]int{}
	frag := cutInputs(map[plan.Node][]sqltypes.Row{j.Left: rt.Catalog.Get("edges").AllRows()})
	frag.Taps = map[plan.Node]Tap{}
	for _, n := range []plan.Node{j.Left, j} {
		frag.Taps[n] = Tap{Check: func(part int, r sqltypes.Row) error {
			if part != 0 {
				t.Errorf("tap called for partition %d", part)
			}
			seen[n]++
			return nil
		}}
	}
	if rows := runFragment(t, join, rt, nil, frag, 0); len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if seen[j.Left] != 4 || seen[j] != 4 {
		t.Errorf("taps saw %d probe and %d joined rows, want 4 each", seen[j.Left], seen[j])
	}
	boom := errors.New("unsound")
	frag.Taps[j.Left] = Tap{Check: func(int, sqltypes.Row) error { return boom }}
	op, err := BuildFragment(join, rt, nil, nil, frag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(op); !errors.Is(err, boom) {
		t.Errorf("a failing tap returned %v", err)
	}
}

// TestFragmentScalarAggregateOverEmptyCut: the scalar aggregate's one
// row comes out of an empty cut input too. (That only one partition
// builds the node is the MPP machine's rule, tested there.)
func TestFragmentScalarAggregateOverEmptyCut(t *testing.T) {
	rt := testRuntime(t)
	agg := planSQL(t, rt, "SELECT COUNT(*) FROM edges").(*plan.Project).Input.(*plan.Aggregate)
	rows := runFragment(t, agg, rt, nil, cutInputs(map[plan.Node][]sqltypes.Row{agg.Input: nil}), 0)
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("COUNT(*) over an empty cut = %v", rows)
	}
}

// TestFragmentTopNOverCutInput: the local and the final phase of the
// distributed top-k are the plan's own TopN over rows handed in.
func TestFragmentTopNOverCutInput(t *testing.T) {
	rt := testRuntime(t)
	in := planSQL(t, rt, "SELECT src FROM edges")
	rows := []sqltypes.Row{{sqltypes.NewInt(3)}, {sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}}
	keys := []plan.SortKey{{Col: 0}}
	topN := func(n, offset int64) []sqltypes.Row {
		return runFragment(t, &plan.TopN{Input: in, Keys: keys, Counts: plan.Counts{N: n, Offset: offset}}, rt, nil,
			cutInputs(map[plan.Node][]sqltypes.Row{in: rows}), 0)
	}
	expectRows(t, topN(2, 0), "1", "2")
	expectRows(t, topN(2, 2), "3")
	expectRows(t, topN(0, 0))
}

// TestFragmentSharesCompiledExpressions: under a run memo the trees of
// one fragment are built over the same compiled expressions,
// whichever is built first, and so is a volcano tree of the same plan.
func TestFragmentSharesCompiledExpressions(t *testing.T) {
	rt := testRuntime(t).WithMemo(NewMemo(nil))
	node := planSQL(t, rt, "SELECT e.src + 1, COUNT(*) FROM edges e JOIN vertexStatus v ON e.dst = v.node WHERE v.status = 1 GROUP BY e.src + 1")
	frag := &Fragment{Parts: 2}
	var trees [3]Operator
	for p := range trees[:2] {
		var err error
		if trees[p], err = BuildFragment(node, rt, nil, nil, frag, p); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if trees[2], err = Build(node, rt, nil); err != nil {
		t.Fatal(err)
	}
	var walk func(a, b Operator)
	walk = func(a, b Operator) {
		switch a := a.(type) {
		case *projectOp:
			if &a.items[0] != &b.(*projectOp).items[0] {
				t.Error("project items compiled twice")
			}
		case *filterOp:
			if a.cond != b.(*filterOp).cond {
				t.Error("filter condition compiled twice")
			}
		case *aggOp:
			if a.groupEx[0] != b.(*aggOp).groupEx[0] {
				t.Error("group keys compiled twice")
			}
		case *hashJoinOp:
			if a.leftKeys[0] != b.(*hashJoinOp).leftKeys[0] {
				t.Error("join keys compiled twice")
			}
		}
		ai, bi := inputsOf(a), inputsOf(b)
		for i := range ai {
			walk(*ai[i], *bi[i])
		}
	}
	walk(trees[0], trees[1])
	walk(trees[0], trees[2])
	if n := rt.Memo().Nodes(); n != 4 {
		t.Errorf("the memo compiled %d nodes, want the project, filter, aggregate and join", n)
	}
}

func TestRowsOpReopens(t *testing.T) {
	op := &rowsOp{rows: []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}}}
	for run := 0; run < 2; run++ {
		if rows, err := Drain(op); err != nil || len(rows) != 2 {
			t.Fatalf("run %d: %v, %v", run, rows, err)
		}
	}
}

// TestFragmentLentWitness: Lent says of a cut whether every tree built
// so far took it for a reader. A join reads its probe side and keeps its
// build side; what a root does with a cut it reaches through forwarders
// is the root's own answer — BuildFragment keeps, BuildLendingFragment
// reads, and then a join on top hands out one row over and over.
func TestFragmentLentWitness(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, "SELECT e.src, v.status FROM edges e JOIN vertexStatus v ON e.dst = v.node")
	left := []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewFloat(1)}, {sqltypes.NewInt(2), sqltypes.NewInt(2), sqltypes.NewFloat(1)}}
	right := []sqltypes.Row{{sqltypes.NewInt(2), sqltypes.NewInt(1)}}
	frag := cutInputs(map[plan.Node][]sqltypes.Row{j.Left: left, j.Right: right})
	if !frag.Lent(j.Left) || !frag.Lent(j.Right) {
		t.Error("a cut no tree was built over is nobody's")
	}
	op, err := BuildLendingFragment(j, rt, nil, nil, frag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !frag.Lent(j.Left) || frag.Lent(j.Right) {
		t.Errorf("join: probe side lent = %v, build side lent = %v, want true and false", frag.Lent(j.Left), frag.Lent(j.Right))
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	first, _ := op.Next()
	second, _ := op.Next()
	if len(first) == 0 || len(second) == 0 || &first[0] != &second[0] {
		t.Error("the lending root's join carved a row per Next: it was not built as a reader's input")
	}
	op.Close()

	// A root that forwards: the cut is the root's to keep or to read.
	var filter *plan.Filter
	for n := planSQL(t, rt, "SELECT * FROM vertexStatus WHERE status = 1"); filter == nil; n = n.Children()[0] {
		filter, _ = n.(*plan.Filter)
	}
	for _, c := range []struct {
		build func(plan.Node, Runtime, *Stats, *CancelChecker, *Fragment, int) (Operator, error)
		lent  bool
	}{{BuildLendingFragment, true}, {BuildFragment, false}} {
		frag := cutInputs(map[plan.Node][]sqltypes.Row{filter.Input: right})
		if _, err := c.build(filter, rt, nil, nil, frag, 0); err != nil {
			t.Fatal(err)
		}
		if frag.Lent(filter.Input) != c.lent {
			t.Errorf("filter over a cut: lent = %v, want %v", !c.lent, c.lent)
		}
	}
}
