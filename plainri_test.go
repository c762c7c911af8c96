package dbspinner_test

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/core"
)

// TestRiRunsInFullUnderEveryBaseline guards what is left of the frontier
// license, which the engine no longer has: two step types and four
// counters that stay only because the benchmark module names them
// (ROADMAP item 7). Every root oracle query — the five workload queries
// and the two recursive ones — runs under every subset of the five
// optimizations Config.Baseline can withhold, on volcano over four
// partitions and on the MPP machine over two, with Paranoid armed. No
// program the engine ran may hold a core.DeltaMaterializeStep or a
// core.MaintainAggStep, the Ri and Agg counters must read 0, and every
// subset returns the rows the default returns on the same machine, in
// some order: the workload queries have no ORDER BY, and the copy-back
// baseline lays the CTE out in other partitions than the rename does.
func TestRiRunsInFullUnderEveryBaseline(t *testing.T) {
	g := coinFlipGraph(200, 42)
	all := dbspinner.OptRename | dbspinner.OptCommonResults | dbspinner.OptPushdown |
		dbspinner.OptColumnPruning | dbspinner.OptShuffleElision
	queries := workloadQueries()
	maps.Copy(queries, dbspinner.RecursiveQueries())
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			for _, m := range []dbspinner.Config{{Partitions: 4}, {Partitions: 2, Parallel: true}} {
				var want string
				for b := dbspinner.Opt(0); b <= all; b++ {
					cfg := m
					cfg.Baseline, cfg.Paranoid = b, true
					e, err := bench.NewEngine(g, bench.Config{AvailFrac: 0.8}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Query(sql)
					if err != nil {
						t.Fatalf("%+v: %v", cfg, err)
					}
					rows := make([]string, len(res.Rows))
					for i, r := range res.Rows {
						rows[i] = r.String()
					}
					slices.Sort(rows)
					if got := strings.Join(rows, "\n"); b == 0 {
						want = got
					} else if got != want {
						t.Errorf("parallel=%v baseline=%05b: rows differ from the default's", m.Parallel, b)
					}
					prog := dbspinner.ProgramOf(e, sql)
					if prog == nil {
						t.Fatalf("%+v: the engine cached no program", cfg)
					}
					for i, s := range prog.Steps {
						switch s.(type) {
						case *core.DeltaMaterializeStep, *core.MaintainAggStep:
							t.Errorf("parallel=%v baseline=%05b: step %d is a %T", m.Parallel, b, i+1, s)
						}
					}
					if st := e.Stats(); st.RiFullRows != 0 || st.RiInputRows != 0 || st.AggFullRows != 0 || st.AggInputRows != 0 {
						t.Errorf("parallel=%v baseline=%05b: Ri %d of %d, Agg %d of %d; want all 0",
							m.Parallel, b, st.RiInputRows, st.RiFullRows, st.AggInputRows, st.AggFullRows)
					}
				}
			}
		})
	}
}
