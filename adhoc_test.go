package dbspinner_test

import (
	"fmt"
	"runtime"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/workload"
)

// The adhoc workload of the regression benchmark (benchmark/, workload
// "adhoc") in the root package: seven short statements over a 64-node
// graph, four iterative CTEs and Friends Forecast at three iterations, a
// plain join-and-group SELECT and a recursive CTE. A literal changes
// every round, so no two rounds send the same text. Most of such a
// statement's cost is in front of its first row (lex, parse, plan,
// rewrite, analyses, verify), which is what BenchmarkAdhocStatements
// profiles and TestAllocBudgetAdhoc gates.

const (
	adhocIterations = 3
	adhocVariants   = 4

	adhocFF = `WITH ITERATIVE forecast (node, friends, friendsPrev)
AS( SELECT src AS node, count(dst) AS friends,
      ceiling(count(dst) * (1.0-(src%%10)/100.0)) AS friendsPrev
    FROM edges GROUP BY src
 ITERATE
   SELECT node AS node,
      round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends,
      friends AS friendsPrev
   FROM forecast
 UNTIL %d ITERATIONS )
SELECT node, friends
FROM forecast WHERE MOD(node, %d) = 0
ORDER BY friends DESC LIMIT %d`

	adhocInDegree = `SELECT e.dst AS node, COUNT(*) AS indeg, SUM(e.weight) AS w
FROM edges AS e JOIN vertexStatus AS v ON v.node = e.dst
WHERE v.status != 0
GROUP BY e.dst
ORDER BY node LIMIT %d`

	adhocReach = `WITH RECURSIVE reach (node) AS (
  SELECT %d
  UNION
  SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node
) SELECT node FROM reach ORDER BY node LIMIT %d`
)

// adhocStatements is one round of the workload. The LIMIT is new every
// round and above every row count, so it never changes an answer; the
// SSSP source, reachability start and FF modulus cycle through
// adhocVariants values, which do.
func adhocStatements(round int) []string {
	v := round % adhocVariants
	src, mod, limit := v+1, v+2, 100000+round
	suffix := fmt.Sprintf(" ORDER BY Node LIMIT %d", limit)
	return []string{
		bench.PRQuery(adhocIterations) + suffix,
		bench.PRVSQuery(adhocIterations) + suffix,
		bench.SSSPQuery(src, adhocIterations) + suffix,
		bench.SSSPVSQuery(src, adhocIterations) + suffix,
		fmt.Sprintf(adhocFF, adhocIterations, mod, limit),
		fmt.Sprintf(adhocInDegree, limit),
		fmt.Sprintf(adhocReach, src, limit),
	}
}

// adhocEngine loads a 64-node random graph (about 3.3 edges per node, as
// the benchmark's) into an engine with cfg.
func adhocEngine(tb testing.TB, cfg dbspinner.Config) *dbspinner.Engine {
	tb.Helper()
	g := workload.Uniform(64, 210, workload.WeightOutDegree, 13)
	e, err := bench.NewEngine(g, bench.Config{Partitions: cfg.Partitions}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// adhocOp runs one round's seven statements.
func adhocOp(tb testing.TB, e *dbspinner.Engine, round int) {
	for _, sql := range adhocStatements(round) {
		if _, err := e.Query(sql); err != nil {
			tb.Fatalf("round %d: %v\n%s", round, err, sql)
		}
	}
}

// BenchmarkAdhocStatements is one op of the adhoc workload per
// iteration, the front end's profile: make profile BENCH=AdhocStatements.
func BenchmarkAdhocStatements(b *testing.B) {
	e := adhocEngine(b, dbspinner.Config{Partitions: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adhocOp(b, e, i)
	}
}

// TestAllocBudgetAdhoc gates what one round of the seven adhoc statements
// allocates, most of it in front of the first row. Deriving partition
// properties only for programs the machine runs, and compiling each plan
// node's expressions once per run instead of once per iteration and
// step, took the round from 18.8k objects and 1.87 MB to 12.0k and
// 1.30 MB; both budgets are that measurement plus 25%.
func TestAllocBudgetAdhoc(t *testing.T) {
	e := adhocEngine(t, dbspinner.Config{Partitions: 4})
	round := 0
	op := func() {
		adhocOp(t, e, round)
		round++
	}
	const budget, bytesBudget = 14_950, 1_620_000
	got := testing.AllocsPerRun(adhocVariants, op)
	if got > budget {
		t.Errorf("adhoc: %.0f allocations per round, budget %d", got, budget)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < adhocVariants; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	gotBytes := (after.TotalAlloc - before.TotalAlloc) / adhocVariants
	if gotBytes > bytesBudget {
		t.Errorf("adhoc: %d bytes per round, budget %d", gotBytes, bytesBudget)
	}
	t.Logf("adhoc: %.0f allocations (budget %d) and %d bytes (budget %d) per round", got, budget, gotBytes, bytesBudget)
}
