package exec

import (
	"fmt"
	"math"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// indexRowsCases are the filters of the filtered-build tests over
// t(k, x): typed conditions (SSSP-VS's delta != 9999999 shape, and a
// comparison of a tree that divides by zero at k = 1500, which the
// program bails on), an untyped one, and one that fails at k = 1500 and
// at k = 2500 with different errors.
var indexRowsCases = []string{
	"x != 5.0",
	"x + k > 100.0",
	"x / (k - 1500) > 0.0",
	"COALESCE(x, 0.0) > 3.0",
	"CAST(CASE WHEN k = 1500 THEN 'a' WHEN k = 2500 THEN 'b' ELSE '1' END AS INT) > 0",
}

// indexRowsTable is t(k, x) over n rows in parts partitions: x cycles
// through 0 to 8, NULL at k % 11 = 0, NaN at k % 23 = 0, -0 at k % 29 = 0.
func indexRowsTable(t *testing.T, n, parts int) (*StoreRuntime, *storage.Table) {
	t.Helper()
	cat := catalog.New(parts)
	tb, err := cat.Create("t", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "x", Type: sqltypes.Float}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		x := f64(float64(i % 9))
		switch {
		case i%11 == 0:
			x = null
		case i%23 == 0:
			x = f64(math.NaN())
		case i%29 == 0:
			x = f64(math.Copysign(0, -1))
		}
		tb.Insert(sqltypes.Row{i64(int64(i)), x})
	}
	return NewStoreRuntime(cat, storage.NewResultStore()), tb
}

// filterOf compiles cond over t's rows.
func filterOf(t *testing.T, rt *StoreRuntime, cond string) *expr.Compiled {
	t.Helper()
	for n := planSQL(t, rt, "SELECT k FROM t WHERE "+cond); n != nil; {
		if f, ok := n.(*plan.Filter); ok {
			c, err := expr.Compile(f.Cond, planEnv(f.Input, nil))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		kids := n.Children()
		if len(kids) == 0 {
			break
		}
		n = kids[0]
	}
	t.Fatalf("%s: no filter in the plan", cond)
	return nil
}

// indexRowsDiff describes how the rows a filtered build of tb's partition
// part (allParts: every one) keeps under m differ from the rows filter
// holds for a row at a time, in scan order — the same rows, not copies —
// or its error from the first one Holds fails with; "" where they do not.
func indexRowsDiff(m *Memo, tb *storage.Table, part int, filter *expr.Compiled) string {
	parts := tb.Parts
	if part != allParts {
		parts = parts[part : part+1]
	}
	var want []sqltypes.Row
	var wantErr error
scan:
	for _, p := range parts {
		for _, r := range p {
			ok, err := filter.Holds(r)
			if err != nil {
				wantErr = err
				break scan
			}
			if ok {
				want = append(want, r)
			}
		}
	}
	got, _, err := m.indexRows(nil, tb, part, filter)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, a row at a time %v", err, wantErr)
	case err != nil:
		return ""
	case len(got) != len(want):
		return fmt.Sprintf("%d rows, a row at a time %d", len(got), len(want))
	}
	for i := range want {
		if &got[i][0] != &want[i][0] {
			return fmt.Sprintf("row %d is %v, a row at a time %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestFilteredIndexRowsSelectInOrder: a filtered index build keeps the
// rows its filter holds for, in scan order — the table's own rows — over
// 0 to 3,000 rows in 1 to 3 partitions, so that batches of
// expr.BatchRows end inside a partition and at its end, with a typed
// filter and an untyped one, for the whole table and for each partition,
// with a memo, whose leftovers hold the build's scratch, and without;
// where the filter fails, the build fails with the first failing row's
// error in scan order. A warm build under one memo allocates nothing
// where the rows fit the buffer it is given.
func TestFilteredIndexRowsSelectInOrder(t *testing.T) {
	defer sqltypes.Poison()()
	for _, n := range []int{0, 1, 1023, 1024, 1025, 3000} {
		for parts := 1; parts <= 3; parts++ {
			rt, tb := indexRowsTable(t, n, parts)
			for _, m := range []*Memo{nil, NewMemo(nil)} {
				for _, cond := range indexRowsCases {
					filter := filterOf(t, rt, cond)
					for part := allParts; part < parts; part++ {
						if d := indexRowsDiff(m, tb, part, filter); d != "" {
							t.Errorf("%s, %d rows, %d partitions, partition %d, memo %v: %s", cond, n, parts, part, m != nil, d)
						}
					}
				}
			}
		}
	}
	rt, tb := indexRowsTable(t, 3000, 2)
	m, filter := NewMemo(nil), filterOf(t, rt, indexRowsCases[0])
	buf := make([]sqltypes.Row, 0, 3000)
	if allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := m.indexRows(buf, tb, allParts, filter); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm filtered build allocates %v objects, want 0", allocs)
	}
}

// TestFilteredIndexRowsMutantIsCaught: a build that skips the row after
// each full batch fails TestFilteredIndexRowsSelectInOrder's check.
func TestFilteredIndexRowsMutantIsCaught(t *testing.T) {
	test.skipChunkRow = true
	defer func() { test.skipChunkRow = false }()
	rt, tb := indexRowsTable(t, 3000, 2)
	if indexRowsDiff(NewMemo(nil), tb, allParts, filterOf(t, rt, indexRowsCases[0])) == "" {
		t.Error("a build that skips a row after each batch passed")
	}
}
