package mpp_test

import (
	"context"
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

// rewriteParallel rewrites sql into a program for the MPP machine over
// parts partitions (elisions taken and checked).
func rewriteParallel(t *testing.T, rt *exec.StoreRuntime, sql string, parts int) *core.Program {
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
	return prog
}

// runProgram runs prog as one run of its statement over st (nil: a fresh
// state), showing watch — when it is set — every machine the run makes.
func runProgram(t *testing.T, rt *exec.StoreRuntime, prog *core.Program, st *core.RunState, watch func(*mpp.Machine)) (string, *core.Stats) {
	t.Helper()
	if watch != nil {
		defer mpp.OnNew(watch)()
	}
	var stats core.Stats
	rows, err := prog.RunBound(context.Background(), rt, nil, st, &stats)
	if err != nil {
		t.Fatal(err)
	}
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = r.String()
	}
	return strings.Join(strs, "\n"), &stats
}

// runParallel rewrites sql and runs the program on the MPP machine over
// parts partitions, from a fresh state (runProgram).
func runParallel(t *testing.T, rt *exec.StoreRuntime, sql string, parts int, watch func(*mpp.Machine)) (string, *core.Stats) {
	t.Helper()
	return runProgram(t, rt, rewriteParallel(t, rt, sql, parts), nil, watch)
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
// iterations make as many sites as one does. Every site is filled before
// the first back-edge, by the steps in front of the loop or by its first
// iteration, so the sweeps drop none, and the statement's next run fills
// all of them again: a warm run makes no site. Under the old rule (the
// seeded mutant: the first sweep ages the sites filled before it) the
// sweeps drop the pre-loop exchanges' — the step-1 UNION's and the
// step-2 edges→dst one — and every warm run makes them anew.
func TestLoopFillsItsSitesInPlace(t *testing.T) {
	const parts = 2
	g := workload.PreferentialAttachment(300, 3, workload.WeightOutDegree, 5)
	rt := graphRuntime(t, g, parts)
	run := func(prog *core.Program, st *core.RunState, agePreLoop bool) (made, held int, stats *core.Stats) {
		var top *mpp.Machine // the program's own: the first one made
		_, stats = runProgram(t, rt, prog, st, func(m *mpp.Machine) {
			if top == nil {
				top = m
			}
			if agePreLoop {
				mpp.AgePreLoop(m)
			}
		})
		return mpp.SitesMade(top), mpp.SitesHeld(top), stats
	}
	one, _, _ := run(rewriteParallel(t, rt, bench.PRVSQuery(1), parts), nil, false)
	for _, agePreLoop := range []bool{false, true} {
		prog, st := rewriteParallel(t, rt, bench.PRVSQuery(10), parts), new(core.RunState)
		ten, held, stats := run(prog, st, agePreLoop)
		warm, _, _ := run(prog, st, agePreLoop)
		if one == 0 || ten != one {
			t.Errorf("agePreLoop=%v: %d sites made in one iteration, %d in ten: iterations 2 to 10 must fill the first one's in place", agePreLoop, one, ten)
		}
		if !agePreLoop && (held != ten || warm != 0) {
			t.Errorf("%d of %d sites held at the end, and the warm run made %d: the sweeps dropped sites filled before the first back-edge", held, ten, warm)
		}
		if agePreLoop && (held >= ten || warm == 0) {
			t.Errorf("under the old rule %d of %d sites held at the end, and the warm run made %d: the test cannot see the mutant", held, ten, warm)
		}
		t.Logf("PR-VS, %d partitions, agePreLoop=%v: %d sites made, %d held at the end, %d made by the warm run; %d rows routed in 10 iterations",
			parts, agePreLoop, ten, held, warm, stats.RowsRouted)
	}
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
