package exec

import (
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// joinNode builds the logical join node of the given query's FROM
// clause for the partition-helper tests.
func joinNode(t *testing.T, rt *StoreRuntime, sql string) *plan.Join {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
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
	walk(node)
	if join == nil {
		t.Fatal("no join in plan")
	}
	return join
}

func TestJoinKeysExtraction(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON e.dst = v.node AND e.weight > 0.5`)
	lk, rk, residual, err := JoinKeys(j)
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
	lk, rk, residual, err = JoinKeys(j)
	if err != nil || len(lk) != 1 || residual != nil {
		t.Errorf("reversed equi: %d keys, residual %v, err %v", len(lk), residual, err)
	}
	_ = rk
}

func TestHashIndexKeys(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e JOIN vertexStatus v ON e.dst = v.node`)
	lk, _, _, err := JoinKeys(j)
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

func TestHashJoinPartitionSemantics(t *testing.T) {
	rt := testRuntime(t)
	j := joinNode(t, rt, `SELECT * FROM edges e LEFT JOIN vertexStatus v ON e.dst = v.node`)
	lk, rk, residual, err := JoinKeys(j)
	if err != nil {
		t.Fatal(err)
	}
	left := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewFloat(1)},
		{sqltypes.NewInt(1), sqltypes.NewInt(99), sqltypes.NewFloat(1)}, // no match
	}
	right := []sqltypes.Row{
		{sqltypes.NewInt(2), sqltypes.NewInt(1)},
	}
	out, err := HashJoinPartition(ast.LeftJoin, left, right, lk, rk, residual, 3, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %d rows", len(out))
	}
	// The same join over an index the caller built of the right side.
	x, err := BuildHashIndex(right, rk)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	pre, err := HashJoinPartition(ast.LeftJoin, left, right, lk, rk, residual, 3, 2, x, &st)
	if err != nil {
		t.Fatal(err)
	}
	if RowsText(pre) != RowsText(out) {
		t.Errorf("prebuilt index:\n%s\nwant:\n%s", RowsText(pre), RowsText(out))
	}
	if st.RowsIndexed != 0 || st.RowsJoined != 2 {
		t.Errorf("prebuilt index: RowsIndexed = %d, RowsJoined = %d, want 0 and 2", st.RowsIndexed, st.RowsJoined)
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
}

func TestNestedLoopPartition(t *testing.T) {
	a := []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}}
	b := []sqltypes.Row{{sqltypes.NewInt(10)}, {sqltypes.NewInt(20)}}
	out, err := NestedLoopPartition(a, b, nil, nil)
	if err != nil || len(out) != 4 {
		t.Fatalf("cross join: %d rows, %v", len(out), err)
	}
}

func TestAggregatePartitionEmptyScalar(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT COUNT(*) FROM edges")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	agg := node.(*plan.Project).Input.(*plan.Aggregate)
	// With emptyScalar: one zero row even with no input.
	rows, err := AggregatePartition(agg, nil, true, nil)
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("emptyScalar: %v, %v", rows, err)
	}
	// Without: nothing (other fragments produce the row).
	rows, err = AggregatePartition(agg, nil, false, nil)
	if err != nil || len(rows) != 0 {
		t.Errorf("non-emptyScalar: %v, %v", rows, err)
	}
}

func TestGroupKeyExprs(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT src, COUNT(*) FROM edges GROUP BY src")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	agg := node.(*plan.Project).Input.(*plan.Aggregate)
	keys, err := GroupKeyExprs(agg)
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys = %d, %v", len(keys), err)
	}
	v, err := keys[0].Eval(sqltypes.Row{sqltypes.NewInt(5), sqltypes.NewInt(6), sqltypes.NewFloat(1)})
	if err != nil || v.Int() != 5 {
		t.Errorf("key eval = %v, %v", v, err)
	}
}

func TestRowsOperator(t *testing.T) {
	op := RowsOperator([]sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}})
	rows, err := Drain(op)
	if err != nil || len(rows) != 2 {
		t.Fatalf("%v, %v", rows, err)
	}
	// Reopenable.
	rows, err = Drain(op)
	if err != nil || len(rows) != 2 {
		t.Fatalf("reopen: %v, %v", rows, err)
	}
}
