package exec_test

import (
	"context"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/bench"
	"dbspinner/internal/core"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

// aliasingStep runs the index memo's seeded mutant (exec.AliasByName)
// before the step it wraps. Loop steps stay bare: the step loop takes
// the back-edge only through a *core.LoopStep.
type aliasingStep struct {
	core.Step
	resolve func(rt *exec.StoreRuntime, name string) *storage.Table
}

func (s aliasingStep) Run(ctx *core.Context) error {
	ctx.RT.Indexes().AliasByName(func(name string) *storage.Table { return s.resolve(ctx.RT, name) })
	return s.Step.Run(ctx)
}

// recyclingStep runs the reuse's seeded mutant (exec.RecycleLive) before
// the step it wraps.
type recyclingStep struct{ core.Step }

func (s recyclingStep) Run(ctx *core.Context) error {
	ctx.RT.Indexes().RecycleLive()
	return s.Step.Run(ctx)
}

// wrapSteps runs prog with every step but the loop steps wrapped, and
// returns its rows, or the error as text.
func wrapSteps(t *testing.T, prog *core.Program, rt *exec.StoreRuntime, wrap func(core.Step) core.Step) string {
	t.Helper()
	for i, s := range prog.Steps {
		if _, loop := s.(*core.LoopStep); !loop {
			prog.Steps[i] = wrap(s)
		}
	}
	rows, err := prog.Run(rt, nil)
	if err != nil {
		return err.Error()
	}
	return exec.RowsText(rows)
}

// TestNameKeyedIndexMemoFailsParity seeds the bug the memo's key exists
// to exclude: identify a build side by the name it is read under, not by
// the table. A slot that is re-bound every iteration (PageRank AS
// IncomingRank, sssp AS IncomingDistance) would then be joined through
// the index of its first table for the whole loop. Every workload query
// with such a join must stop matching the unmutated run; the same
// wrapper resolving nothing must keep matching it, so it is the key, not
// the wrapping, that the comparison sees.
func TestNameKeyedIndexMemoFailsParity(t *testing.T) {
	const nodes = 120
	g := workload.PreferentialAttachment(nodes, 3, workload.WeightOutDegree, 5)
	rt := graphRuntime(t, g)

	byName := func(rt *exec.StoreRuntime, name string) *storage.Table {
		if tb := rt.Results.Get(name); tb != nil {
			return tb
		}
		return rt.Catalog.Get(name)
	}
	nothing := func(*exec.StoreRuntime, string) *storage.Table { return nil }

	for _, c := range []struct{ name, sql string }{
		{"pr", bench.PRQuery(5)},
		{"pr-vs", bench.PRVSQuery(5)},
		{"sssp", bench.SSSPQuery(nodes, 5)},
		{"sssp-vs", bench.SSSPVSQuery(nodes, 5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := parser.Parse(c.sql + " ORDER BY Node")
			if err != nil {
				t.Fatal(err)
			}
			run := func(resolve func(*exec.StoreRuntime, string) *storage.Table) string {
				prog, err := core.Rewrite(stmt.(*ast.SelectStmt), rt, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if resolve != nil {
					for i, s := range prog.Steps {
						if _, loop := s.(*core.LoopStep); !loop {
							prog.Steps[i] = aliasingStep{s, resolve}
						}
					}
				}
				rows, err := prog.Run(rt, nil)
				if err != nil {
					t.Fatal(err)
				}
				return exec.RowsText(rows)
			}
			want := run(nil)
			if strings.Count(want, "\n") < nodes/2 {
				t.Fatalf("the query returns too few rows to compare:\n%s", want)
			}
			if run(nothing) != want {
				t.Error("wrapping the steps alone changed the rows")
			}
			if run(byName) == want {
				t.Error("a memo keyed on the slot name returns the same rows: the parity check cannot see a stale index")
			}
		})
	}
}

// TestRecyclingLiveIndexFailsParity seeds the bug the reuse must never
// have: take back the storage of an index the memo still serves, as a
// Sweep that recycled the entries the last iteration used would. The
// next build then fills an index some join is about to probe — the
// loop-invariant edges index, or the CTE's — and every workload query
// must stop matching the unmutated run (wrong rows or a failed run).
func TestRecyclingLiveIndexFailsParity(t *testing.T) {
	const nodes = 120
	g := workload.PreferentialAttachment(nodes, 3, workload.WeightOutDegree, 5)
	rt := graphRuntime(t, g)
	for _, c := range []struct{ name, sql string }{
		{"pr", bench.PRQuery(5)},
		{"pr-vs", bench.PRVSQuery(5)},
		{"sssp", bench.SSSPQuery(nodes, 5)},
		{"sssp-vs", bench.SSSPVSQuery(nodes, 5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := parser.Parse(c.sql + " ORDER BY Node")
			if err != nil {
				t.Fatal(err)
			}
			run := func(wrap func(core.Step) core.Step) string {
				prog, err := core.Rewrite(stmt.(*ast.SelectStmt), rt, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				return wrapSteps(t, prog, rt, wrap)
			}
			want := run(func(s core.Step) core.Step { return s })
			if strings.Count(want, "\n") < nodes/2 {
				t.Fatalf("the query returns too few rows to compare:\n%s", want)
			}
			if run(func(s core.Step) core.Step { return recyclingStep{s} }) == want {
				t.Error("taking back the indexes the memo still serves returns the same rows: the parity check cannot see a live index refilled")
			}
		})
	}
}

// TestCarriedIndexEntriesFailDataChanges seeds the bug a statement's run
// state must never have: carry the index memo's entries into the
// statement's next run (exec.SeedCarryEntries). Between runs a base table
// changes in place — rows added to edges under the same address, as
// INSERT adds them — so an entry's witness still holds and its index no
// longer lists the table's rows. Run after the change over the run state
// of two earlier runs, PR and SSSP, which join edges unfiltered in the
// loop body, must return what a fresh run does, and with the mutant they
// must not.
func TestCarriedIndexEntriesFailDataChanges(t *testing.T) {
	const nodes = 120
	g := workload.PreferentialAttachment(nodes, 3, workload.WeightOutDegree, 5)
	added := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewFloat(0.5)},
		{sqltypes.NewInt(2), sqltypes.NewInt(1), sqltypes.NewFloat(0.5)},
		{sqltypes.NewInt(7), sqltypes.NewInt(nodes - 1), sqltypes.NewFloat(0.25)},
	}
	for _, c := range []struct{ name, sql string }{
		{"pr", bench.PRQuery(5)},
		{"sssp", bench.SSSPQuery(1, 5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := parser.Parse(c.sql + " ORDER BY Node")
			if err != nil {
				t.Fatal(err)
			}
			run := func(rt *exec.StoreRuntime, st *core.RunState) string {
				prog, err := core.Rewrite(stmt.(*ast.SelectStmt), rt, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				var rows []sqltypes.Row
				for i := 0; i < 3; i++ {
					if i == 2 {
						for _, r := range added {
							rt.Catalog.Get("edges").Insert(r)
						}
					}
					if rows, err = prog.RunBound(context.Background(), rt, nil, st, nil); err != nil {
						t.Fatal(err)
					}
				}
				return exec.RowsText(rows)
			}
			// The third run of each is after the change: over the run state
			// of the two before, and over a fresh state every time.
			want := run(graphRuntime(t, g), nil)
			if got := run(graphRuntime(t, g), new(core.RunState)); got != want {
				t.Error("the run after the data change returns other rows than a fresh run")
			}
			restore := exec.SeedCarryEntries()
			defer restore()
			if run(graphRuntime(t, g), new(core.RunState)) == want {
				t.Error("carrying the index memo's entries into the next run returns the same rows: the test cannot see a stale index")
			}
		})
	}
}
