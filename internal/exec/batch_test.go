package exec

import (
	"fmt"
	"math"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// batchRuntime holds the result src(k, a, b, c) of n rows over parts
// partitions: k is the row's INT id; a mixes FLOATs, INTs and NULLs, as
// FF's friends is an INT in its base term and a FLOAT after; b is a
// non-zero FLOAT or INT, or NULL; c is the FLOAT 1 but 0 at k = zeroAt
// (none when zeroAt < 0), so a / c fails on that row alone.
func batchRuntime(t testing.TB, n, parts, zeroAt int) *StoreRuntime {
	t.Helper()
	rt := NewStoreRuntime(catalog.New(1), storage.NewResultStore())
	src := storage.NewTable("src", sqltypes.Schema{
		{Name: "k", Type: sqltypes.Int}, {Name: "a", Type: sqltypes.Int},
		{Name: "b", Type: sqltypes.Float}, {Name: "c", Type: sqltypes.Float},
	}, parts)
	src.DistCol = 0
	for i := range n {
		a := f64(float64(i) / 3)
		switch {
		case i%7 == 0:
			a = null
		case i%3 == 0:
			a = i64(int64(i))
		}
		b := f64(float64(i%4) + 0.5)
		switch {
		case i%11 == 0:
			b = null
		case i%2 == 0:
			b = i64(int64(i%3 + 1))
		}
		c := f64(1)
		if i == zeroAt {
			c = f64(0)
		}
		src.Insert(sqltypes.Row{i64(int64(i)), a, b, c})
	}
	rt.Results.Put("src", src)
	return rt
}

// batchPlan plans sql over rt and, where above is not empty, puts a
// filter on it over the project's output: the shape the pushed-down
// filter of FF's base term has.
func batchPlan(t testing.TB, rt *StoreRuntime, sql, above string) plan.Node {
	t.Helper()
	n := planSQL(t, rt, sql)
	if above == "" {
		return n
	}
	cond, err := parser.ParseExpr(above)
	if err != nil {
		t.Fatal(err)
	}
	return &plan.Filter{Input: n, Cond: cond}
}

// materializeBoth materializes n over rt with the batch form and a row at
// a time, and returns how the two differ ("" where they do not): the
// error text, or the rows of each partition, tag, payload and float bits,
// and every execution counter.
func materializeBoth(rt *StoreRuntime, n plan.Node, parts int) string {
	var batchStats, rowStats Stats
	got, gotErr := MaterializeContext(nil, n, rt, &batchStats, "got", parts, nil)
	restore := RowAtATime()
	want, wantErr := MaterializeContext(nil, n, rt, &rowStats, "want", parts, nil)
	restore()
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("batch error %v, row path %v", gotErr, wantErr)
	case batchStats != rowStats:
		return fmt.Sprintf("batch counters %+v, row path %+v", batchStats, rowStats)
	case gotErr != nil:
		return ""
	}
	for p := range want.Parts {
		if len(got.Parts[p]) != len(want.Parts[p]) {
			return fmt.Sprintf("partition %d: %d rows, row path %d", p, len(got.Parts[p]), len(want.Parts[p]))
		}
		for i, r := range want.Parts[p] {
			if !identicalCells(got.Parts[p][i], r) {
				return fmt.Sprintf("partition %d row %d: %v, row path %v", p, i, got.Parts[p][i], r)
			}
		}
	}
	return ""
}

func identicalCells(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

// batchErrorCases are chains in which a project item fails on one row —
// the typed a / c at k = 600 (division by zero), or an untyped INT
// overflow at k = 700 — and a filter on another (a failed cast), under
// or over the project; which of the two rows the scan reaches first
// depends on the partitions, and each comes first at some count.
func batchErrorCases() []struct{ name, sql, above string } {
	const item = "SELECT k, (a / c) * a + 1.0 AS x, b FROM src"
	const overflow = "SELECT k, (a / b) * a + 1.0 AS x, CASE WHEN k = 700 THEN 9223372036854775807 + k ELSE k END AS y FROM src"
	failAt := func(k int) string {
		return fmt.Sprintf("CAST(CASE WHEN k = %d THEN 'x' ELSE '1' END AS INT) > -5", k)
	}
	return []struct{ name, sql, above string }{
		{"filter under at k=2, item at 600", item + " WHERE " + failAt(2), ""},
		{"filter under at k=1023, item at 600", item + " WHERE " + failAt(1023), ""},
		{"filter over at k=2, item at 600", item, failAt(2)},
		{"filter over at k=1023, item at 600", item, failAt(1023)},
		{"filter over at k=1020, untyped item at 700", overflow, failAt(1020)},
		{"filter under at k=1, untyped item at 700", overflow + " WHERE " + failAt(1), ""},
	}
}

// TestBatchFormMatchesRowPath: every chain the batch form runs —
// a typed project over a stored result, with a filter under it, over it
// or both, whose conditions have typed programs or not — materializes
// the same rows, bit for bit, in the same partitions and order, with the
// same counters, as the row path, over results of 1,023, 1,024 and 1,025
// rows (one batch, exactly one, one and a row) and 2,100 rows, at 1 to 4
// partitions; and where a project item and a filter each fail on one row,
// it fails with the row path's error, at the row path's row.
func TestBatchFormMatchesRowPath(t *testing.T) {
	cases := []struct{ name, sql, above string }{
		{"typed project", "SELECT k, ROUND(CAST((a / b) * a AS FLOAT), 5) AS f, b FROM src", ""},
		{"typed filter under", "SELECT k, (a / b) * a + 1.0 AS x FROM src WHERE MOD(k, 3) = 0", ""},
		{"untyped filter under", "SELECT k, (a / b) * a + 1.0 AS x FROM src WHERE a IS NOT NULL", ""},
		{"typed filter over", "SELECT k, CEILING(a * (1.0 - ((k % 10) / 100.0))) AS p, a FROM src", "MOD(k, 2) = 0"},
		{"both", "SELECT k, FLOOR(b * 2.0 - a) AS x FROM src WHERE a * 2.0 > b", "x >= 0.0"},
		{"untyped item too", "SELECT k, (a / b) * a + 1.0 AS x, COALESCE(a, b) AS y FROM src", ""},
	}
	for _, rows := range []int{1023, 1024, 1025, 2100} {
		for parts := 1; parts <= 4; parts++ {
			rt := batchRuntime(t, rows, parts, -1)
			for _, c := range cases {
				if d := materializeBoth(rt, batchPlan(t, rt, c.sql, c.above), parts); d != "" {
					t.Errorf("%s, %d rows, %d partitions: %s", c.name, rows, parts, d)
				}
			}
			rt = batchRuntime(t, rows, parts, 600)
			for _, c := range batchErrorCases() {
				if d := materializeBoth(rt, batchPlan(t, rt, c.sql, c.above), parts); d != "" {
					t.Errorf("%s, %d rows, %d partitions: %s", c.name, rows, parts, d)
				}
			}
		}
	}
}

// TestBatchFormRuns: the chains of TestBatchFormMatchesRowPath are the
// batch form's, and a chain it does not run — no typed item, two
// projects, a base table — is the row path's.
func TestBatchFormRuns(t *testing.T) {
	rt := batchRuntime(t, 10, 1, -1)
	if _, err := rt.Catalog.Create("base", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "a", Type: sqltypes.Float}}, -1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql, above string
		batch      bool
	}{
		{"SELECT k, ROUND(CAST((a / b) * a AS FLOAT), 5) AS f, b FROM src", "", true},
		{"SELECT k, CEILING(a * (1.0 - ((k % 10) / 100.0))) AS p FROM src", "MOD(k, 2) = 0", true},
		{"SELECT k, a / b AS x FROM src", "", false},
		{"SELECT * FROM (SELECT k, (a / b) * a + 1.0 AS x FROM src) AS q WHERE x > 1.0", "", false},
		{"SELECT k, (a / 2.0) * a + 1.0 AS x FROM base", "", false},
	} {
		op, err := Build(batchPlan(t, rt, c.sql, c.above), rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := batchChainOf(op); ok != c.batch {
			t.Errorf("%s (filter over: %q): batch form %v, want %v", c.sql, c.above, ok, c.batch)
		}
	}
}

// TestBatchReplayMutantIsCaught seeds a batch that fails with the first
// error it meets instead of replaying its rows through the row path, and
// requires the error cases of the differential test to see it.
func TestBatchReplayMutantIsCaught(t *testing.T) {
	test.noReplay = true
	defer func() { test.noReplay = false }()
	rt := batchRuntime(t, 1025, 2, 600)
	caught := 0
	for _, c := range batchErrorCases() {
		if d := materializeBoth(rt, batchPlan(t, rt, c.sql, c.above), 2); d != "" {
			t.Logf("%s: %s", c.name, d)
			caught++
		}
	}
	if caught == 0 {
		t.Error("a batch that does not replay passed every error case")
	}
}

// TestBatchWarmRunAllocatesNothingNew: a project node's batch vectors
// and row slices, and an aggregate node's join → aggregate scratch, are
// their run state's, so once a run of the statement has grown them, the
// next run of the same plan allocates no more than the row path does,
// less what the row path allocates and the form does not: over two
// joins, the aggregate's key buffer and each join's output row. Under the
// race detector, sync.Pool drops what it is given at random, and fmt,
// which names an aggregate's output columns in every run, allocates its
// printers from one; so the aggregate's counts vary by a few objects
// from run to run there, and only the race-free build checks them.
func TestBatchWarmRunAllocatesNothingNew(t *testing.T) {
	rt := batchRuntime(t, 2100, 2, -1)
	joins := joinAggRuntime(t, 2100, 2)
	for _, c := range []struct {
		form  string
		rt    *StoreRuntime
		n     plan.Node
		saved float64
	}{
		{"batch form", rt, batchPlan(t, rt, "SELECT k, (a / b) * a + 1.0 AS x, b FROM src WHERE MOD(k, 3) = 0", "x > 0.0"), 0},
		{"join → aggregate form", joins, planSQL(t, joins, "SELECT p.k, p.a + p.g, SUM(r.d * e.w) FROM p LEFT JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src GROUP BY p.k, p.a + p.g"), 3},
	} {
		if raceEnabled && c.saved > 0 { // the aggregate's case
			continue
		}
		left := new(Leftovers)
		run := func() {
			m := left.Begin(nil, nil)
			if _, err := MaterializeContext(nil, c.n, c.rt.WithMemo(m), nil, "out", 2, nil); err != nil {
				t.Fatal(err)
			}
			left.End(m, true)
		}
		run()
		batch := testing.AllocsPerRun(5, run)
		rows := func() float64 {
			defer RowAtATime()()
			run()
			return testing.AllocsPerRun(5, run)
		}()
		if batch > rows-c.saved {
			t.Errorf("a warm run allocates %.0f objects in the %s, %.0f a row at a time, %.0f of which the form does not need", batch, c.form, rows, c.saved)
		}
	}
}

// BenchmarkProjectBatch materializes FF's iterative part — node,
// ROUND(CAST((friends / friendsPrev) * friends AS FLOAT), 5), friends —
// over a stored result of 4,000 rows in 4 partitions whose friends mix
// INTs, FLOATs and NULLs, as a warm run of a statement does (its memo
// over the statement's leftovers): batch, in the batch form; row, a row
// at a time.
func BenchmarkProjectBatch(b *testing.B) {
	for _, form := range []struct {
		name string
		rows bool
	}{{"batch", false}, {"row", true}} {
		b.Run(form.name, func(b *testing.B) {
			rt := batchRuntime(b, 4000, 4, -1)
			n := batchPlan(b, rt, "SELECT k, ROUND(CAST((a / b) * a AS FLOAT), 5) AS a, a AS b FROM src", "")
			if form.rows {
				defer RowAtATime()()
			}
			left := new(Leftovers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := left.Begin(nil, nil)
				t, err := MaterializeContext(nil, n, rt.WithMemo(m), nil, "out", 4, nil)
				if err != nil || t.Len() != 4000 {
					b.Fatal(err)
				}
				t.LetGo() // its rows go back to the statement's chunks
				left.End(m, true)
			}
		})
	}
}
