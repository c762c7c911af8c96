package dbspinner_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/exec"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/workload"
)

// TestJoinAggFormMatchesRowAtATime is the end-to-end differential of the
// join → aggregate form and, on the MPP machine, of the join → exchange
// form and the aggregate over an exchange (internal/exec, batch.go): PR,
// PR-VS, SSSP and SSSP-VS, whose loop bodies are each an aggregate over a
// chain of joins, run on two engines, one a row at a time
// (exec.RowAtATime), on the volcano executor at partitions 1 to 4 and on
// the MPP machine at 2 and 4, cold and three warm runs each, over a graph
// of 1,100 nodes whose edges a coin flip orients, so that SSSP's loop
// does work in every iteration; and so do the statements of
// joinAggEdgeCases, cold and once warm. Every run must return the same
// rows, cell for cell and bit for bit, or fail with the same error text,
// and leave the engines' Stats identical — but for a failing statement on
// the machine, whose cancelled partition's counters are timing. The
// chunks a released result hands back, and the exchange buffers the
// machine marks free, are poisoned, so a batch that kept a row of one
// reads it.
func TestJoinAggFormMatchesRowAtATime(t *testing.T) {
	defer sqltypes.Poison()()
	g := coinFlipGraph(1100, 55)
	queries := []struct{ name, sql string }{
		{"PR", bench.PRQuery(8)},
		{"PR-VS", bench.PRVSQuery(8)},
		{"SSSP", bench.SSSPQuery(1, 8)},
		{"SSSP-VS", bench.SSSPVSQuery(1, 8)},
	}
	for _, cfg := range []dbspinner.Config{
		{Partitions: 1}, {Partitions: 2}, {Partitions: 3}, {Partitions: 4},
		{Partitions: 2, Parallel: true}, {Partitions: 4, Parallel: true},
	} {
		batch, rows := graphEngine(t, g, cfg), graphEngine(t, g, cfg)
		for _, q := range queries {
			for run := 0; run < 4; run++ {
				got, gotErr := batch.Query(q.sql)
				restore := exec.RowAtATime()
				want, wantErr := rows.Query(q.sql)
				restore()
				what := fmt.Sprintf("%s, %d partitions (parallel %v), run %d", q.name, cfg.Partitions, cfg.Parallel, run)
				if d := outcomeDiff(got, gotErr, want, wantErr); d != "" {
					t.Fatalf("%s: %s", what, d)
				}
				if gs, ws := batch.Stats(), rows.Stats(); gs != ws {
					t.Fatalf("%s: join → aggregate form's Stats\n%+v\nrow path's\n%+v", what, gs, ws)
				}
			}
		}
		batch, rows = edgeCaseEngine(t, cfg), edgeCaseEngine(t, cfg)
		for _, q := range joinAggEdgeCases() {
			for run := 0; run < 2; run++ {
				batch.ResetStats()
				rows.ResetStats()
				got, gotErr := batch.Query(q.sql)
				restore := exec.RowAtATime()
				want, wantErr := rows.Query(q.sql)
				restore()
				what := fmt.Sprintf("%s, %d partitions (parallel %v), run %d", q.name, cfg.Partitions, cfg.Parallel, run)
				if d := outcomeDiff(got, gotErr, want, wantErr); d != "" {
					t.Fatalf("%s: %s", what, d)
				}
				if gs, ws := batch.Stats(), rows.Stats(); gs != ws && !(cfg.Parallel && gotErr != nil) {
					t.Fatalf("%s: join → aggregate form's Stats\n%+v\nrow path's\n%+v", what, gs, ws)
				}
			}
		}
	}
}

// edgeCaseEngine is an engine under cfg over joinAggEdgeCases' tables of
// 1,200 keys k:
//   - p(k, y, z): y the FLOAT 1 but 0 at k = 600, z the FLOAT 1 but 0 at
//     k = 604;
//   - e(src, dst, w, m): three edges into every k but those with k % 5 =
//     4 (604 among them); w a FLOAT, NaN, +Inf or -0; m the INT 1, 2 or 3;
//   - r(k, d): d a FLOAT, NULL, NaN, -0, +Inf or -Inf.
func edgeCaseEngine(t *testing.T, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	const n = 1200
	e := dbspinner.New(cfg)
	for _, sql := range []string{
		"CREATE TABLE p (k int, y float, z float)",
		"CREATE TABLE e (src int, dst int, w float, m int)",
		"CREATE TABLE r (k int, d float)",
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	i, f := sqltypes.NewInt, sqltypes.NewFloat
	var p, ed, r []sqltypes.Row
	for k := range int64(n) {
		y, z := 1.0, 1.0
		if k == 600 {
			y = 0
		}
		if k == 604 {
			z = 0
		}
		p = append(p, sqltypes.Row{i(k), f(y), f(z)})
		for j := int64(1); j <= 3 && k%5 != 4; j++ {
			w := f(float64(j) / 4)
			switch {
			case k%43 == 0 && j == 1:
				w = f(math.NaN())
			case k%19 == 0 && j == 2:
				w = f(math.Inf(1))
			case k%41 == 0 && j == 3:
				w = f(math.Copysign(0, -1))
			}
			ed = append(ed, sqltypes.Row{i((k*7 + j) % n), i(k), w, i(j)})
		}
		d := f(float64(k%9) + 0.25)
		switch {
		case k%11 == 0:
			d = sqltypes.NullValue
		case k%23 == 0:
			d = f(math.NaN())
		case k%29 == 0:
			d = f(math.Copysign(0, -1))
		case k%31 == 0:
			d = f(math.Inf(1))
		case k%37 == 0:
			d = f(math.Inf(-1))
		}
		r = append(r, sqltypes.Row{i(k), d})
	}
	for name, rows := range map[string][]sqltypes.Row{"p": p, "e": ed, "r": r} {
		if err := e.BulkInsert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// joinAggEdgeCases are statements whose final query the join → aggregate
// form runs on volcano: an aggregate over a chain of joins on the CTE c,
// whose a is an INT at k % 3 = 0 and a FLOAT elsewhere. Their typed
// arguments, under each of SUM, MIN, MAX, AVG and COUNT, read
// NULL-extended sides, INT×INT products (which the program bails on), and
// NaN, ±0 and ±Inf cells; one argument divides by zero at k = 600, and a
// group key divides by zero at k = 604, which has no edge: an inner join
// drops it, and the row path never evaluates its key; a left join keeps
// it.
func joinAggEdgeCases() []struct{ name, sql string } {
	const cte = `WITH ITERATIVE c (k, a, g, y, z) AS (
  SELECT k, CASE WHEN k % 3 = 0 THEN k ELSE k / 4.0 END, k % 10, y, z FROM p
 ITERATE SELECT k, a, g, y, z FROM c UNTIL 1 ITERATIONS) `
	const args = "COUNT(*), SUM(e.w * c.a), MIN(e.w * c.a), MAX(e.w + c.a), AVG(e.w * c.a), COUNT(e.w + c.a), " +
		"SUM(c.a * e.m), AVG(c.a * e.m), SUM(r.d * e.w), MIN(r.d + e.w), MAX(r.d * e.w), AVG(r.d * c.y), COUNT(r.d * e.w)"
	const chain = " FROM c LEFT JOIN e ON c.k = e.dst LEFT JOIN r ON r.k = e.src"
	return []struct{ name, sql string }{
		{"typed arguments by k", cte + "SELECT c.k, " + args + chain + " GROUP BY c.k"},
		{"typed arguments by g", cte + "SELECT c.g, " + args + chain + " GROUP BY c.g"},
		{"argument divides by zero", cte + "SELECT c.k, SUM(r.d * e.w), SUM(e.w / c.y)" + chain + " GROUP BY c.k"},
		{"group key fails on a dropped probe row", cte + "SELECT c.k / c.z, SUM(e.w * c.a) FROM c JOIN e ON c.k = e.dst GROUP BY c.k / c.z"},
		{"group key fails on a kept probe row", cte + "SELECT c.k / c.z, SUM(e.w * c.a)" + chain + " GROUP BY c.k / c.z"},
	}
}

// coinFlipGraph is a preferential-attachment graph of n nodes with each
// edge's ends swapped on a coin flip, so that it has cycles, weighted
// 1/outdegree of its source.
func coinFlipGraph(n int, seed int64) *workload.Graph {
	g := workload.PreferentialAttachment(n, 3, workload.WeightUnit, seed)
	rng := rand.New(rand.NewSource(seed))
	out := map[int64]int{}
	for i, e := range g.Edges {
		if rng.Intn(2) == 0 {
			g.Edges[i].Src, g.Edges[i].Dst = e.Dst, e.Src
		}
		out[g.Edges[i].Src]++
	}
	for i, e := range g.Edges {
		g.Edges[i].Weight = 1 / float64(out[e.Src])
	}
	return g
}

// graphEngine is an engine under cfg over g's edges and a vertexStatus
// with 80% of the nodes available.
func graphEngine(t *testing.T, g *workload.Graph, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	e := dbspinner.New(cfg)
	for _, sql := range []string{
		"CREATE TABLE edges (src int, dst int, weight float)",
		"CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)",
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkInsert("vertexStatus", workload.VertexStatus(g, 0.8, 99)); err != nil {
		t.Fatal(err)
	}
	return e
}

// outcomeDiff describes how two query outcomes differ, "" where they do
// not: the error text, the row count, or a cell's tag, payload or float
// bits.
func outcomeDiff(got *dbspinner.Result, gotErr error, want *dbspinner.Result, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, row path %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case len(got.Rows) != len(want.Rows):
		return fmt.Sprintf("%d rows, row path %d", len(got.Rows), len(want.Rows))
	}
	for i, r := range want.Rows {
		if len(got.Rows[i]) != len(r) {
			return fmt.Sprintf("row %d: %v, row path %v", i, got.Rows[i], r)
		}
		for j, v := range r {
			g := got.Rows[i][j]
			if g.T != v.T || g.I != v.I || g.S != v.S || math.Float64bits(g.F) != math.Float64bits(v.F) {
				return fmt.Sprintf("row %d: %v, row path %v", i, got.Rows[i], r)
			}
		}
	}
	return ""
}
