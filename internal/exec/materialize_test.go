package exec

import (
	"fmt"
	"math"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// layoutPool is the expression kernels' value pool (internal/expr's
// kernelPool): NULL and the zero Value, both booleans, the zeros, ±1 as
// INT and FLOAT, integers a float cannot hold, the INT extremes, the
// infinities, NaN, a fraction and two strings.
var layoutPool = []sqltypes.Value{
	null, {},
	sqltypes.NewBool(true), sqltypes.NewBool(false),
	i64(0), f64(math.Copysign(0, -1)),
	i64(1), i64(-1), f64(1), f64(-1),
	i64(1<<53 + 1), i64(-(1<<53 + 1)),
	i64(math.MaxInt64), i64(math.MinInt64),
	f64(math.Inf(1)), f64(math.Inf(-1)), f64(math.NaN()),
	f64(1.5),
	str("x"), str(""),
}

// layoutRuntime holds pool(k, v): every pool value as k, twice, with a
// row id v, and dim(k, w) over every third id, so a left join leaves
// NULL in w.
func layoutRuntime(t *testing.T) *StoreRuntime {
	t.Helper()
	cat := catalog.New(1)
	pool, err := cat.Create("pool", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := cat.Create("dim", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "w", Type: sqltypes.Int}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for id := range 2 * len(layoutPool) {
		pool.Insert(sqltypes.Row{layoutPool[id%len(layoutPool)], i64(int64(id))})
		if id%3 == 0 {
			dim.Insert(sqltypes.Row{i64(int64(id)), i64(int64(100 + id))})
		}
	}
	return NewStoreRuntime(cat, storage.NewResultStore())
}

// TestMaterializeMatchesDrainThenInsertBatch: MaterializeContext routes
// each row into its partition as the plan produces it, and must lay the
// result out exactly as draining the plan and handing the rows to
// InsertBatch does — the same partitions, the same order within each,
// the very rows the plan produced rather than copies — whatever size
// hint it is given: none, one of the wrong length, exact, too small or
// too large. Plans are projections, aggregates and joins whose first
// column (the distribution column) runs through the value pool — NULL,
// the zero Value, ±0, NaN and the rest — plus a projection of no
// columns, which is distributed round-robin; at 1 to 4 partitions.
func TestMaterializeMatchesDrainThenInsertBatch(t *testing.T) {
	rt := layoutRuntime(t)
	scanPool := planSQL(t, rt, "SELECT k, v FROM pool").(*plan.Project).Input
	plans := map[string]plan.Node{
		"no columns": &plan.Project{Input: scanPool},
	}
	for _, sql := range []string{
		"SELECT k, v FROM pool",
		"SELECT v, k FROM pool",
		"SELECT k, COUNT(*), MIN(v) FROM pool GROUP BY k",
		"SELECT COUNT(*) FROM pool",
		"SELECT DISTINCT k FROM pool",
		"SELECT p.k, d.w FROM pool AS p JOIN dim AS d ON p.v = d.k",
		"SELECT d.w, p.k FROM pool AS p LEFT JOIN dim AS d ON p.v = d.k",
	} {
		plans[sql] = planSQL(t, rt, sql)
	}
	for name, n := range plans {
		rows, err := Drain(mustBuild(t, n, rt))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The drained rows again, read back in drain order: a plan whose
		// rows are the drained ones themselves, so materializing it can
		// be checked for keeping them rather than copying.
		src := storage.NewTable("src", plan.Schema(n), 1)
		src.InsertBatch(rows)
		rt.Results.Put("src", src)
		reread := &plan.NamedResult{Name: "src", Cols: n.Columns()}
		for parts := 1; parts <= 4; parts++ {
			want := storage.NewTable("want", plan.Schema(n), parts)
			if len(want.Schema) > 0 {
				want.DistCol = 0
			}
			want.InsertBatch(rows)
			exact := make([]int, parts)
			for p, part := range want.Parts {
				exact[p] = len(part)
			}
			hints := map[string][]int{"none": nil, "wrong length": make([]int, parts+1), "exact": exact}
			small, large := make([]int, parts), make([]int, parts)
			for p, c := range exact {
				small[p], large[p] = c/2, 2*c+3
			}
			hints["too small"], hints["too large"] = small, large
			for hname, hint := range hints {
				what := fmt.Sprintf("%s, %d partitions, %s hint", name, parts, hname)
				got, err := MaterializeContext(nil, reread, rt, nil, "got", parts, hint)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameLayout(t, what, got, want, true)
				if hname == "exact" {
					for p, part := range got.Parts {
						if cap(part) != len(part) {
							t.Errorf("%s: partition %d holds %d rows in capacity %d", what, p, len(part), cap(part))
						}
					}
				}
				// The plan itself produces new rows: the same values in
				// the same places.
				fresh, err := MaterializeContext(nil, n, rt, nil, "fresh", parts, hint)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameLayout(t, what+", planned", fresh, want, false)
			}
		}
	}
}

func mustBuild(t *testing.T, n plan.Node, rt Runtime) Operator {
	t.Helper()
	op, err := Build(n, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// sameLayout fails the test unless got's partitions hold want's rows in
// want's order — the identical rows when identical is set.
func sameLayout(t *testing.T, what string, got, want *storage.Table, identical bool) {
	t.Helper()
	if got.DistCol != want.DistCol || len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: DistCol %d over %d partitions, want %d over %d", what, got.DistCol, len(got.Parts), want.DistCol, len(want.Parts))
	}
	for p := range want.Parts {
		if fmt.Sprint(got.Parts[p]) != fmt.Sprint(want.Parts[p]) {
			t.Fatalf("%s: partition %d is\n%v\nwant (drained, then InsertBatch)\n%v", what, p, got.Parts[p], want.Parts[p])
		}
		if !identical {
			continue
		}
		for i, r := range want.Parts[p] {
			if len(r) > 0 && &got.Parts[p][i][0] != &r[0] {
				t.Fatalf("%s: partition %d row %d is a copy, not the row the plan produced", what, p, i)
			}
		}
	}
}
