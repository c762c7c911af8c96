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
// does work in every iteration. Every run must return the same rows, cell
// for cell and bit for bit, or fail with the same error text, and leave
// the engines' Stats identical. The chunks a released result hands back,
// and the exchange buffers the machine marks free, are poisoned, so a
// batch that kept a row of one reads it.
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
