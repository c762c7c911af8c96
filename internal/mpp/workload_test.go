package mpp_test

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/bench"
	"dbspinner/internal/catalog"
	"dbspinner/internal/core"
	"dbspinner/internal/exec"
	"dbspinner/internal/mpp"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

// graphRuntime holds g in edges and a vertexStatus table with a fifth of
// the vertices unavailable, as bench.NewEngine loads them, in parts
// partitions.
func graphRuntime(t *testing.T, g *workload.Graph, parts int) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(parts)
	load := func(name string, schema sqltypes.Schema, pk int, rows []sqltypes.Row) {
		tb, err := cat.Create(name, schema, pk)
		if err != nil {
			t.Fatal(err)
		}
		tb.InsertBatch(rows)
	}
	load("edges", sqltypes.Schema{{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float}}, -1, workload.EdgeRows(g))
	load("vertexStatus", sqltypes.Schema{{Name: "node", Type: sqltypes.Int}, {Name: "status", Type: sqltypes.Int}}, 0, workload.VertexStatus(g, 0.8, 99))
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// runParallel rewrites sql and runs the program on the MPP machine over
// parts partitions (elisions taken and checked), showing watch — when it
// is set — every machine the run makes.
func runParallel(t *testing.T, rt *exec.StoreRuntime, sql string, parts int, watch func(*mpp.Machine)) (string, *core.Stats) {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallel, opts.Parts, opts.Paranoid = true, parts, true
	prog, err := core.Rewrite(stmt.(*ast.SelectStmt), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if watch != nil {
		defer mpp.OnNew(watch)()
	}
	var stats core.Stats
	rows, err := prog.Run(rt, &stats)
	if err != nil {
		t.Fatal(err)
	}
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = r.String()
	}
	return strings.Join(strs, "\n"), &stats
}

// TestWorkloadQueriesSurvivePoisonedReuse runs the five workload
// queries, ten iterations each, on machines that destroy every exchange
// buffer the moment they declare it reusable, and demands the rows of the
// unpoisoned run, byte for byte and in order. The loops of four of them
// route rows every iteration, so buffers were in fact freed.
func TestWorkloadQueriesSurvivePoisonedReuse(t *testing.T) {
	const nodes, iterations = 150, 10
	g := workload.PreferentialAttachment(nodes, 3, workload.WeightOutDegree, 5)
	for _, c := range []struct {
		name, sql string
		frees     bool
	}{
		{"pr", bench.PRQuery(iterations), true},
		{"pr-vs", bench.PRVSQuery(iterations), true},
		{"sssp", bench.SSSPQuery(nodes, iterations), true},
		{"sssp-vs", bench.SSSPVSQuery(nodes, iterations), true},
		{"ff", bench.FFQuery(iterations, 2), false},
	} {
		for _, parts := range []int{2, 3} {
			rt := graphRuntime(t, g, parts)
			want, _ := runParallel(t, rt, c.sql, parts, nil)
			var freed []*int
			got, _ := runParallel(t, rt, c.sql, parts, func(m *mpp.Machine) { freed = append(freed, mpp.Poison(m)) })
			if got != want {
				t.Errorf("%s/parts=%d: rows under poisoned reuse differ from the plain run\n got:\n%s\nwant:\n%s", c.name, parts, got, want)
			}
			if len(want) == 0 {
				t.Errorf("%s/parts=%d: no rows, the query tests nothing", c.name, parts)
			}
			n := 0
			for _, f := range freed {
				n += *f
			}
			if (n >= iterations) != c.frees {
				t.Errorf("%s/parts=%d: %d buffers freed and destroyed, want at least one per iteration = %v", c.name, parts, n, c.frees)
			}
		}
	}
}

// TestLoopFillsItsSitesInPlace: PR-VS routes the outputs of the two
// joins of Ri every iteration, both into readers — so the loop allocates
// its exchange buffers in the first iteration and none after: ten
// iterations make as many sites as one does. The back-edge sweep has
// dropped the buffers of the steps in front of the loop by then.
func TestLoopFillsItsSitesInPlace(t *testing.T) {
	const parts = 2
	g := workload.PreferentialAttachment(300, 3, workload.WeightOutDegree, 5)
	rt := graphRuntime(t, g, parts)
	made := func(iterations int) (made, held int, stats *core.Stats) {
		var top *mpp.Machine // the program's own: the first one made
		_, stats = runParallel(t, rt, bench.PRVSQuery(iterations), parts, func(m *mpp.Machine) {
			if top == nil {
				top = m
			}
		})
		return mpp.SitesMade(top), mpp.SitesHeld(top), stats
	}
	one, _, _ := made(1)
	ten, held, stats := made(10)
	if one == 0 || ten != one {
		t.Errorf("%d sites made in one iteration, %d in ten: iterations 2 to 10 must fill the first one's in place", one, ten)
	}
	if held >= ten {
		t.Errorf("%d of %d sites still held at the end: the sweep dropped none of the pre-loop exchanges'", held, ten)
	}
	t.Logf("PR-VS, %d partitions: %d sites made, %d held at the end; %d rows routed in 10 iterations", parts, ten, held, stats.RowsRouted)
}

// TestExchangeSkewOnPreferentialAttachment: hashing on the first key
// column spreads PR-VS's exchanges over the partitions although the
// graph's in-degrees are heavy-tailed: the fullest destination of each
// exchange gets less than 1.25 times its even share, at 2 and at 4
// partitions (1.06 and 1.16 on 2,000 nodes; the NULL keys of the outer
// joins all go to partition 0, and on a few hundred nodes the sample is
// small enough for 1.3).
func TestExchangeSkewOnPreferentialAttachment(t *testing.T) {
	g := workload.PreferentialAttachment(2000, 3, workload.WeightOutDegree, 5)
	for _, parts := range []int{2, 4} {
		_, stats := runParallel(t, graphRuntime(t, g, parts), bench.PRVSQuery(5), parts, nil)
		skew := mpp.Skew(stats.RowsToBusiest, stats.RowsRouted, parts)
		if stats.RowsRouted == 0 || skew < 1 || skew >= 1.25 {
			t.Errorf("parts=%d: exchange skew %.3f (%d of %d routed rows to the fullest destinations), want [1, 1.25)", parts, skew, stats.RowsToBusiest, stats.RowsRouted)
		}
		t.Logf("parts=%d: exchange skew %.3f over %d routed rows", parts, skew, stats.RowsRouted)
	}
}
