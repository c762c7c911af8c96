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
// every round, so no two rounds send the same text, but every round has
// the same seven shapes: after the first, each statement lexes its text,
// binds its literals and runs the program prepared for its shape. That
// path is what BenchmarkAdhocStatements profiles and TestAllocBudgetAdhoc
// gates.

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

// TestAdhocRoundRunsPrepared: once a round of each variant has run, a
// round with a LIMIT no round used takes all seven programs from the
// statement cache — no literal the rounds vary is one a program was
// built from — and answers as an engine that never saw the earlier
// rounds. ResetStats zeroes the hit and miss counters.
func TestAdhocRoundRunsPrepared(t *testing.T) {
	e := adhocEngine(t, dbspinner.Config{Partitions: 4})
	for round := 0; round < adhocVariants; round++ {
		adhocOp(t, e, round)
	}
	e.ResetStats()
	if st := e.Stats(); st.PreparedHits != 0 || st.PreparedMisses != 0 {
		t.Fatalf("ResetStats left %d hits and %d misses", st.PreparedHits, st.PreparedMisses)
	}
	cold := adhocEngine(t, dbspinner.Config{Partitions: 4})
	for _, sql := range adhocStatements(adhocVariants) {
		got, err := e.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("the prepared program answers differently:\n%s", sql)
		}
	}
	if st := e.Stats(); st.PreparedHits != 7 || st.PreparedMisses != 0 {
		t.Errorf("round with a new LIMIT: %d of 7 statements hit, %d missed", st.PreparedHits, st.PreparedMisses)
	}
}

// BenchmarkAdhocStatements is one op of the adhoc workload per
// iteration: make profile BENCH=AdhocStatements.
func BenchmarkAdhocStatements(b *testing.B) {
	e := adhocEngine(b, dbspinner.Config{Partitions: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adhocOp(b, e, i)
	}
}

// TestAllocBudgetAdhoc gates what one round of the seven adhoc statements
// allocates. Every statement runs a prepared program, so the round pays
// for lexing its texts and running them, not for parsing, rewriting,
// verifying and planning them: 12.0k objects and 1.30 MB became 4.8k and
// 0.89 MB. Compiling each join key once and resolving a column without a
// slice then took it to 4,458 objects and 0.81 MB, with the larger
// closures of operands read in place counted. With four fifths of the
// vertices loaded as available, as the benchmark loads them, instead of
// none, the round made 4,876 objects and 1.22 MB; routing each step's
// rows straight into their partitions, instead of draining them into one
// slice and copying them, made 4,461 and 1.16 MB. Since each statement's
// run fills the hash tables, exchange buffers and key tables its last run
// let go (core.RunState) instead of allocating them, the round makes 4.0k
// objects and 0.77 MB (0.79 MB under -race), where building them anew
// every run made 1.00 MB. The object budget is the earlier measurement
// plus 25%; the byte budget is the -race measurement plus 5%, below the
// 1.00 MB. With each statement's tables carved from the row chunks its
// last run handed back (exec.Leftovers), the round makes 492,064 bytes
// (501,212 under -race), and the byte budget, that -race reading plus
// 5%, fails chunks that stop outliving the run (593,174).
func TestAllocBudgetAdhoc(t *testing.T) {
	e := adhocEngine(t, dbspinner.Config{Partitions: 4})
	round := 0
	op := func() {
		adhocOp(t, e, round)
		round++
	}
	const budget, bytesBudget = 5_570, 527_000
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
