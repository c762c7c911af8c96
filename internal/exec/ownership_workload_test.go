package exec_test

import (
	"fmt"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/bench"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

// TestWorkloadQueriesSurviveScribbling runs the plans of the five
// workload queries and of a recursive CTE — R0, three rounds of Ri and
// Qf — with no operator borrowing and with every borrowed row scribbled
// over, and demands identical ordered rows from each plan. The CTE is a
// catalog table named like it, reloaded between rounds, so each part
// plans as an ordinary SELECT (the benchmark's layer probes do the
// same): an iterative CTE's next state is Ri's rows merged in by key, a
// recursive one's working table is Ri's rows.
func TestWorkloadQueriesSurviveScribbling(t *testing.T) {
	// Edges point from new nodes to old ones: paths start at the newest.
	const nodes = 120
	g := workload.PreferentialAttachment(nodes, 3, workload.WeightOutDegree, 5)
	for _, c := range []struct {
		name, sql string
		borrows   bool // some operator of Ri reuses its output row
	}{
		{"pr", bench.PRQuery(3), true},
		{"pr-vs", bench.PRVSQuery(3), true},
		{"sssp", bench.SSSPQuery(nodes, 3), true},
		{"sssp-vs", bench.SSSPVSQuery(nodes, 3), true},
		{"ff", bench.FFQuery(3, 2), false}, // Ri is a project feeding the materialization, which keeps rows
		{"recursive", `WITH RECURSIVE reach (node, hops) AS (
			SELECT 120, 0 UNION SELECT edges.dst, reach.hops + 1 FROM reach JOIN edges ON edges.src = reach.node WHERE reach.hops < 3
		) SELECT node, MIN(hops) FROM reach GROUP BY node ORDER BY node`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := graphRuntime(t, g)
			load := func(name string, schema sqltypes.Schema, rows []sqltypes.Row) {
				loadTable(t, rt.Catalog, name, schema, rows)
			}

			stmt, err := parser.Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			sel := stmt.(*ast.SelectStmt)
			cte := sel.With.CTEs[0]
			init, iter := cte.Init, cte.Iter
			if !cte.Iterative {
				union := cte.Select.Body.(*ast.UnionExpr)
				init, iter = &ast.SelectStmt{Body: union.Left}, &ast.SelectStmt{Body: union.Right}
			}
			final := *sel
			final.With = nil

			borrowers := 0
			// run plans one part, runs it both ways and returns the rows.
			run := func(part string, s *ast.SelectStmt) ([]sqltypes.Row, plan.Node) {
				node, err := plan.NewBuilder(rt).Build(s)
				if err != nil {
					t.Fatalf("%s: %v", part, err)
				}
				want, _, err := exec.RunOwnership(node, rt, exec.Retaining)
				if err != nil {
					t.Fatalf("%s: %v", part, err)
				}
				got, n, err := exec.RunOwnership(node, rt, exec.Scribbling)
				if err != nil {
					t.Fatalf("%s: %v", part, err)
				}
				if part != "R0" && part != "Qf" {
					borrowers += n
				}
				if len(want) == 0 {
					t.Errorf("%s: no rows, the part tests nothing", part)
				}
				if g, w := exec.RowsText(got), exec.RowsText(want); g != w {
					t.Errorf("%s: scribbled run differs from the retaining run\n got:\n%s\nwant:\n%s", part, g, w)
				}
				return want, node
			}

			rows, r0 := run("R0", init)
			schema := plan.Schema(r0)
			for i, name := range cte.Cols {
				schema[i].Name = name
			}
			for round := 1; round <= 3; round++ {
				load(cte.Name, schema, rows)
				next, _ := run(fmt.Sprint("Ri round ", round), iter)
				if cte.Iterative {
					next = mergeByFirstColumn(rows, next)
				}
				rows = next
			}
			load(cte.Name, schema, rows)
			run("Qf", &final)
			if (borrowers > 0) != c.borrows {
				t.Errorf("%d operators of Ri borrow, want borrowing = %v", borrowers, c.borrows)
			}
		})
	}
}

// loadTable (re)creates a catalog table holding rows.
func loadTable(t *testing.T, cat *catalog.Catalog, name string, schema sqltypes.Schema, rows []sqltypes.Row) {
	t.Helper()
	if err := cat.Drop(name, true); err != nil {
		t.Fatal(err)
	}
	tb, err := cat.Create(name, schema, -1)
	if err != nil {
		t.Fatal(err)
	}
	tb.InsertBatch(rows)
}

// graphRuntime is a two-partition runtime holding g in edges and a
// vertexStatus table with a fifth of the vertices unavailable.
func graphRuntime(t *testing.T, g *workload.Graph) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(2)
	loadTable(t, cat, "edges", sqltypes.Schema{{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float}}, workload.EdgeRows(g))
	loadTable(t, cat, "vertexStatus", sqltypes.Schema{{Name: "node", Type: sqltypes.Int}, {Name: "status", Type: sqltypes.Int}}, workload.VertexStatus(g, 0.8, 99))
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// mergeByFirstColumn returns old with each row replaced by the row of
// upd that has the same first column, if there is one.
func mergeByFirstColumn(old, upd []sqltypes.Row) []sqltypes.Row {
	keys := sqltypes.NewKeyTable(1, len(upd))
	for _, r := range upd {
		keys.Insert(r)
	}
	out := make([]sqltypes.Row, len(old))
	for i, r := range old {
		out[i] = r
		if id := keys.Find(r); id >= 0 {
			out[i] = upd[id]
		}
	}
	return out
}
