// Oracle tests for the static effect-set analysis and the parallel
// step scheduler it licenses: every workload query must EXPLAIN with a
// per-step effect set and a region schedule (the common-result queries
// with exploitable width), and running with the scheduler on must be
// byte-identical to the sequential pc-loop across partition counts.
package dbspinner_test

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
)

func schedWorkloadQueries() map[string]string {
	return map[string]string{
		"PR":      bench.PRQuery(10),
		"PR-VS":   bench.PRVSQuery(10),
		"SSSP":    bench.SSSPQuery(1, 10),
		"SSSP-VS": bench.SSSPVSQuery(1, 10),
		"FF":      bench.FFQuery(10, 2),
	}
}

// TestParallelStepsParityMatrix is the scheduler's oracle gate: for
// every workload query and every partition configuration, turning
// ParallelSteps on must return rows byte-identical to the sequential
// pc-loop on the same configuration. (MPP with Parallel on already
// returns rows in partition order, so cross-configuration byte
// identity is not the scheduler's contract — within-configuration
// identity is.) CI runs this under -race, so an unsound schedule shows
// up either as a diff or as a race report.
func TestParallelStepsParityMatrix(t *testing.T) {
	for name, sql := range schedWorkloadQueries() {
		t.Run(name, func(t *testing.T) {
			for _, base := range []dbspinner.Config{
				{Partitions: 1},
				{Partitions: 4},
				{Partitions: 4, Parallel: true},
			} {
				want, wantStats := queryRowsAndStats(t, base, sql)
				sched := base
				sched.ParallelSteps = 4
				got, gotStats := queryRowsAndStats(t, sched, sql)
				if got != want {
					t.Errorf("Partitions=%d Parallel=%v: ParallelSteps=4 diverges from the sequential pc-loop:\n got: %s\nwant: %s",
						base.Partitions, base.Parallel, got, want)
				}
				// A scheduled step counts into its own Stats, merged after
				// the region: the aggregate counters must survive the merge.
				type aggCounters struct{ AggFullRows, AggInputRows, RowsAggInput int64 }
				g := aggCounters{gotStats.AggFullRows, gotStats.AggInputRows, gotStats.RowsAggInput}
				w := aggCounters{wantStats.AggFullRows, wantStats.AggInputRows, wantStats.RowsAggInput}
				if g != w {
					t.Errorf("Partitions=%d Parallel=%v: ParallelSteps=4 counts %+v, the sequential pc-loop %+v",
						base.Partitions, base.Parallel, g, w)
				}
			}
			// Partitioned storage without MPP must also match the
			// single-partition run byte-for-byte, scheduler on or off.
			single := queryRowsText(t, dbspinner.Config{Partitions: 1}, sql)
			parts := queryRowsText(t, dbspinner.Config{Partitions: 4, ParallelSteps: 4}, sql)
			if parts != single {
				t.Errorf("Partitions=4 ParallelSteps=4 diverges from the single-partition run:\n got: %s\nwant: %s",
					parts, single)
			}
		})
	}
}

func queryRowsText(t *testing.T, cfg dbspinner.Config, sql string) string {
	t.Helper()
	text, _ := queryRowsAndStats(t, cfg, sql)
	return text
}

// queryRowsAndStats runs sql on a fresh engine and returns the rendered
// rows and the engine's counters after the query; the statement cache
// must then reproduce the rows (preparedParity).
func queryRowsAndStats(t *testing.T, cfg dbspinner.Config, sql string) (string, dbspinner.Stats) {
	t.Helper()
	e := newVerdictEngine(t, cfg)
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	stats := e.Stats()
	if d := preparedParity(t, e, func() *dbspinner.Engine { return newVerdictEngine(t, cfg) }, sql, res); d != "" {
		t.Errorf("%+v: %s", cfg, d)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%v\n", r)
	}
	return b.String(), stats
}

var (
	schedLineRE  = regexp.MustCompile(`Schedule: (\d+) regions; max width (\d+); critical path (\d+) of (\d+) steps\.`)
	regionLineRE = regexp.MustCompile(`(?m)^Schedule region \d+: (barrier step \d+ \((loop control|observes stats)\)|steps \d+-\d+; width \d+; critical path \d+)\.$`)
)

// TestExplainShowsEffectsAndSchedule is the golden EXPLAIN gate: every
// workload query's EXPLAIN must render one effect line per step and a
// schedule whose region lines are well-formed and account for every
// step; the common-result queries (PR-VS, SSSP-VS) must show a region
// of width >= 2 — the seed and the Common#1 block are independent.
func TestExplainShowsEffectsAndSchedule(t *testing.T) {
	e := newVerdictEngine(t, dbspinner.Config{Partitions: 2})
	for name, sql := range schedWorkloadQueries() {
		t.Run(name, func(t *testing.T) {
			out, err := e.Explain(sql)
			if err != nil {
				t.Fatal(err)
			}
			steps := strings.Count(out, "\nStep ") + 1 // "Step 1:" opens the output
			effectLines := 0
			for i := 1; i <= steps; i++ {
				if strings.Contains(out, fmt.Sprintf("Effects step %d: ", i)) {
					effectLines++
				}
			}
			if effectLines != steps {
				t.Errorf("%d steps but %d effect lines:\n%s", steps, effectLines, out)
			}
			distLines := 0
			for i := 1; i <= steps; i++ {
				if strings.Contains(out, fmt.Sprintf("Distribution step %d: ", i)) {
					distLines++
				}
			}
			if distLines != steps {
				t.Errorf("%d steps but %d distribution lines:\n%s", steps, distLines, out)
			}
			if !strings.Contains(out, "Distribution final: ") {
				t.Errorf("EXPLAIN prints no final distribution property:\n%s", out)
			}
			m := schedLineRE.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("EXPLAIN prints no schedule summary:\n%s", out)
			}
			regions, _ := strconv.Atoi(m[1])
			width, _ := strconv.Atoi(m[2])
			crit, _ := strconv.Atoi(m[3])
			total, _ := strconv.Atoi(m[4])
			if total != steps {
				t.Errorf("schedule covers %d steps, EXPLAIN lists %d", total, steps)
			}
			if crit > total || crit < 1 || width < 1 {
				t.Errorf("implausible schedule summary: %s", m[0])
			}
			if got := len(regionLineRE.FindAllString(out, -1)); got != regions {
				t.Errorf("summary says %d regions but %d region lines rendered:\n%s", regions, got, out)
			}
			if strings.Contains(name, "-VS") {
				if width < 2 {
					t.Errorf("%s should expose a width->=2 region (seed || Common#1), got width %d:\n%s", name, width, out)
				}
				if crit >= total {
					t.Errorf("%s critical path (%d) should be shorter than the step count (%d)", name, crit, total)
				}
				// Under a parallel configuration the VS loop bodies
				// join on the loop-invariant CTE key, so EXPLAIN must
				// list the licensed elided exchanges.
				pe := newVerdictEngine(t, dbspinner.Config{Partitions: 2, Parallel: true})
				pout, err := pe.Explain(sql)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(pout, "Elided exchange step ") {
					t.Errorf("%s under a parallel config lists no elided exchanges:\n%s", name, pout)
				}
			}
			// Spot-check the effect vocabulary: materializations write,
			// the loop controls.
			if !strings.Contains(out, "writes {") || !strings.Contains(out, "control") {
				t.Errorf("effect lines miss expected verbs:\n%s", out)
			}
		})
	}
}
