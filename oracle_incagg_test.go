// Oracle tests for incremental evaluation and the frontier license
// behind it (internal/aggprop): every workload query must return
// byte-identical ordered rows with incremental evaluation on and off
// across partition counts — with the dynamic cross-check armed so a
// stale cached group fails the query instead of silently reshaping
// results — through the restricted step the query's shape selects,
// which must choose the restricted or the full plan in each iteration
// exactly as the frontier's size dictates, the same at every partition
// count.
package dbspinner_test

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/workload"
)

// incaggGraph is the deterministic dataset the incremental oracle runs
// on: a 300-node preferential-attachment graph with the dblp-small
// shape. The cyclic generator the shuffle oracle uses would keep every
// PageRank delta live forever (every node sits on a cycle); the
// scale-free graph has sources whose deltas die out, which is the
// change frontier the restricted steps exploit.
func incaggGraph() *workload.Graph {
	return workload.PreferentialAttachment(300, 3, workload.WeightOutDegree, 42)
}

// incaggRun executes sql on a fresh engine over the oracle dataset and
// returns the rendered rows plus the engine stats after the query; the
// statement cache must then reproduce the rows (preparedParity).
func incaggRun(t *testing.T, cfg dbspinner.Config, sql string) (string, dbspinner.Stats) {
	t.Helper()
	fresh := func() *dbspinner.Engine {
		e, err := bench.NewEngine(incaggGraph(), bench.Config{Partitions: 1, AvailFrac: 0.8}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := fresh()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	stats := e.Stats()
	if d := preparedParity(t, e, fresh, sql, res); d != "" {
		t.Errorf("%+v: %s", cfg, d)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String(), stats
}

// riDecisions renders a traced run's per-iteration choice of Ri, one
// letter each: F the full plan on the first iteration, R the restricted
// plan, D the full plan on a dense frontier; any other reason in full.
func riDecisions(tr *dbspinner.IterationTrace) string {
	if tr == nil {
		return ""
	}
	letters := map[string]string{"full: first iteration": "F", "restricted": "R", "full: dense frontier": "D", "": "-"}
	var b strings.Builder
	for _, s := range tr.Spans {
		l, ok := letters[s.Ri]
		if !ok {
			l = "[" + s.Ri + "]"
		}
		b.WriteString(l)
	}
	return b.String()
}

// TestIncrementalAggParityMatrix is the incremental-evaluation oracle
// gate: {default, OptIncremental baseline} x partitions {1, 2, 4} x the five
// workload queries and the two recursive ones (RecursiveQueries, which
// engage neither step and trace one span per round) must return
// byte-identical ordered rows — row order
// and float SUM accumulation order included, which is the contract —
// with the dynamic cross-check (Config.Paranoid) armed so a
// divergent cached group fails the query. Per query the step its shape selects must be the one that
// ran: PR has no WHERE in Ri (rename path), so maintenance; PR-VS, SSSP
// and SSSP-VS have one (merge path), so the delta step; FF has neither
// an aggregate nor a WHERE, so neither. And per iteration that step
// must have chosen as pinned below — the choice is a function of key
// counts, never of layout, so one sequence per query holds at every
// partition count. On this graph PR's
// frontier is dense for three iterations and thin from the fifth, and
// SSSP's wave never reaches half the keys; PR-VS keeps most of its keys
// changing throughout, so after the first iteration it must run the
// full plan every time and feed every row.
// Under Parallel neither step engages on any query, and EXPLAIN says
// why. CI runs this under -race via the root-package coverage in the
// Makefile.
func TestIncrementalAggParityMatrix(t *testing.T) {
	engaged := map[string]string{"PR": "maintenance", "PR-VS": "delta", "SSSP": "delta", "SSSP-VS": "delta", "FF": ""}
	decisions := map[string]string{"PR": "FDDDRRRRRR", "PR-VS": "FDDDDDDDDD", "SSSP": "FRRRRRRRRR", "SSSP-VS": "FRRRRRRRRR", "FF": "----------",
		"Reach": "------", "Series": "------------"}
	recursive := dbspinner.RecursiveQueries()
	queries := workloadQueries()
	maps.Copy(queries, recursive)
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			for _, parts := range []int{1, 2, 4} {
				on := dbspinner.Config{Partitions: parts, Paranoid: true, TraceIterations: true}
				off := dbspinner.Config{Partitions: parts, Baseline: dbspinner.OptIncremental}
				gotOn, st := incaggRun(t, on, sql)
				gotOff, stOff := incaggRun(t, off, sql)
				if gotOn != gotOff {
					t.Errorf("parts=%d: incremental evaluation changes results:\n  on: %s\n off: %s", parts, gotOn, gotOff)
				}
				if stOff.RiFullRows != 0 || stOff.AggFullRows != 0 {
					t.Errorf("parts=%d: the OptIncremental baseline still ran a restricted step: %+v", parts, stOff)
				}
				delta, maint := st.RiFullRows > 0, st.AggFullRows > 0
				if want := engaged[name]; delta != (want == "delta") || maint != (want == "maintenance") {
					t.Errorf("parts=%d: want the %q step; delta engaged=%v maintenance engaged=%v", parts, want, delta, maint)
				}
				got := riDecisions(st.Trace)
				if got != decisions[name] {
					t.Errorf("parts=%d: Ri per iteration %s, want %s", parts, got, decisions[name])
				}
				// The counters must tell the same story as the trace:
				// fewer rows fed exactly when some iteration restricted.
				fed, full := st.RiInputRows+st.AggInputRows, st.RiFullRows+st.AggFullRows
				if restricted := strings.Contains(got, "R"); restricted != (fed < full) {
					t.Errorf("parts=%d: fed %d of %d rows over %s", parts, fed, full, got)
				}
			}
			// The parallel machine keeps the full plan, and says so.
			par := dbspinner.Config{Partitions: 4, Parallel: true, Paranoid: true}
			gotPar, st := incaggRun(t, par, sql)
			gotOff, _ := incaggRun(t, dbspinner.Config{Partitions: 4, Parallel: true, Baseline: dbspinner.OptIncremental}, sql)
			if gotPar != gotOff {
				t.Errorf("parallel: the switch changes results:\n  on: %s\n off: %s", gotPar, gotOff)
			}
			if st.RiFullRows != 0 || st.AggFullRows != 0 {
				t.Errorf("parallel: a restricted step engaged: %+v", st)
			}
			e, err := bench.NewEngine(incaggGraph(), bench.Config{Partitions: 1, AvailFrac: 0.8}, par)
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Explain(sql)
			if err != nil {
				t.Fatal(err)
			}
			// A recursive CTE has no incremental form to withhold.
			if _, rec := recursive[name]; !rec && !strings.Contains(out, ": withheld: parallel machine.") {
				t.Errorf("parallel: EXPLAIN does not say why the full plan runs:\n%s", out)
			}
		})
	}
}

// TestSwitchingFeedKeepsOneGroupTable: a licensed SSSP-VS whose delta
// step feeds Ri the affected rows, then the whole CTE, then the affected
// rows again — from a source along a chain into a hub of 36 leaves, one
// of which leads on down a second chain: the hub's wave is dense, the
// chains are thin — runs one plan in every iteration, so its aggregate
// fills one group table across the switches and its vertexStatus index
// is built once. Warm, the query allocates within a few objects of
// itself under the OptIncremental baseline (772 against 763). With a
// second plan for the whole CTE, whose aggregate's spare group table
// the back-edge sweep dropped while the other plan ran, it made 947
// against 773.
func TestSwitchingFeedKeepsOneGroupTable(t *testing.T) {
	edges := []string{"(1, 2, 1.0)", "(2, 3, 1.0)", "(4, 41, 1.0)", "(41, 42, 1.0)", "(42, 43, 1.0)", "(43, 44, 1.0)"}
	status := []string{"(1, 1)", "(2, 1)", "(3, 1)", "(41, 1)", "(42, 1)", "(43, 1)", "(44, 1)"}
	for leaf := 4; leaf < 40; leaf++ {
		edges = append(edges, fmt.Sprintf("(3, %d, 1.0)", leaf))
		status = append(status, fmt.Sprintf("(%d, 1)", leaf))
	}
	sql := bench.SSSPVSQuery(1, 8)
	engine := func(cfg dbspinner.Config) *dbspinner.Engine {
		e := dbspinner.New(cfg)
		execAll(t, e, []string{
			"CREATE TABLE edges (src int, dst int, weight float)",
			"CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)",
			"INSERT INTO edges VALUES " + strings.Join(edges, ", "),
			"INSERT INTO vertexStatus VALUES " + strings.Join(status, ", "),
		})
		return e
	}
	traced := engine(dbspinner.Config{Partitions: 4, TraceIterations: true})
	if _, err := traced.Query(sql); err != nil {
		t.Fatal(err)
	}
	if got, want := riDecisions(traced.Stats().Trace), "FRDDDRRR"; got != want {
		t.Fatalf("Ri per iteration %s, want %s", got, want)
	}
	warmAllocs := func(cfg dbspinner.Config) float64 {
		e := engine(cfg)
		query := func() {
			if _, err := e.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
		query()
		return testing.AllocsPerRun(5, query)
	}
	const slack = 16
	licensed := warmAllocs(dbspinner.Config{Partitions: 4})
	baseline := warmAllocs(dbspinner.Config{Partitions: 4, Baseline: dbspinner.OptIncremental})
	if licensed > baseline+slack {
		t.Errorf("%.0f objects per warm query, %.0f under the OptIncremental baseline: more than %d apart", licensed, baseline, slack)
	}
	t.Logf("%.0f objects per warm query, %.0f under the OptIncremental baseline", licensed, baseline)
}

// TestIncrementalAggSavingsFloor pins the headline saving the license
// is designed for: on PR (maintenance step) and SSSP (delta step) at 10
// iterations, the restricted step feeds Ri at least 40% fewer rows than
// the full plan reads once the change frontier shrinks.
func TestIncrementalAggSavingsFloor(t *testing.T) {
	queries := workloadQueries()
	for _, name := range []string{"PR", "SSSP"} {
		t.Run(name, func(t *testing.T) {
			sql := queries[name]
			got, stats := incaggRun(t, dbspinner.Config{Paranoid: true}, sql)
			want, _ := incaggRun(t, dbspinner.Config{Baseline: dbspinner.OptIncremental}, sql)
			if got != want {
				t.Fatalf("incremental evaluation changes results:\n  on: %s\n off: %s", got, want)
			}
			full, fed := stats.AggFullRows, stats.AggInputRows
			if name == "SSSP" {
				full, fed = stats.RiFullRows, stats.RiInputRows
			}
			if full == 0 {
				t.Fatal("the restricted step never engaged; the measurement is vacuous")
			}
			saved := float64(full-fed) / float64(full)
			t.Logf("%s: full=%d fed=%d (saved %.1f%%)", name, full, fed, 100*saved)
			if saved < 0.40 {
				t.Errorf("the restricted step saves only %.1f%% of Ri's input rows (want >= 40%%): full=%d fed=%d",
					100*saved, full, fed)
			}
		})
	}
}

// TestAnyAggregateEngagesMaintenance: the three shapes a
// decomposability lattice would refuse — MIN with no LEAST envelope,
// MAX with no GREATEST envelope under UNTIL DELTA, COUNT(DISTINCT) —
// are licensed like any other aggregate, because an affected key's
// whole group is re-evaluated and an unaffected key's row reused
// verbatim. On the rename path each must engage the maintenance step
// and match the full plan byte for byte, cross-check armed.
func TestAnyAggregateEngagesMaintenance(t *testing.T) {
	const body = `WITH ITERATIVE c (node, val) AS (
  SELECT src, src %% 7 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE SELECT c.node, %s
  FROM c LEFT JOIN edges AS e ON c.node = e.dst
    LEFT JOIN c AS n ON n.node = e.src
  GROUP BY c.node, c.val
 UNTIL %s) SELECT node, val FROM c ORDER BY node`
	for name, sql := range map[string]string{
		"MIN without envelope": fmt.Sprintf(body, "COALESCE(MIN(n.val), c.val)", "8 ITERATIONS"),
		"MAX under DELTA":      fmt.Sprintf(body, "COALESCE(MAX(n.val), c.val)", "DELTA < 1"),
		"COUNT DISTINCT":       fmt.Sprintf(body, "COUNT(DISTINCT n.val)", "6 ITERATIONS"),
	} {
		t.Run(name, func(t *testing.T) {
			for _, parts := range []int{1, 4} {
				got, st := incaggRun(t, dbspinner.Config{Partitions: parts, Paranoid: true}, sql)
				want, _ := incaggRun(t, dbspinner.Config{Partitions: parts, Baseline: dbspinner.OptIncremental}, sql)
				if got != want {
					t.Errorf("parts=%d: maintenance changes results:\n  on: %s\n off: %s", parts, got, want)
				}
				if st.AggFullRows == 0 {
					t.Errorf("parts=%d: the maintenance step never engaged", parts)
				}
				if st.AggInputRows >= st.AggFullRows {
					t.Errorf("parts=%d: maintenance fed %d of %d rows", parts, st.AggInputRows, st.AggFullRows)
				}
			}
		})
	}
}
