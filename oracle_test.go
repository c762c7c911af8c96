package dbspinner

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dbspinner/internal/graphalgo"
	"dbspinner/internal/workload"
)

// loadGraph creates an engine with the edges and vertexStatus tables
// filled from a generated graph.
func loadGraph(t *testing.T, g *workload.Graph, availFrac float64) *Engine {
	t.Helper()
	e := New(Config{Partitions: 4})
	mustExec(t, e, "CREATE TABLE edges (src int, dst int, weight float)")
	if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)")
	if err := e.BulkInsert("vertexStatus", workload.VertexStatus(g, availFrac, 99)); err != nil {
		t.Fatal(err)
	}
	return e
}

func prSQL(iterations int) string {
	return fmt.Sprintf(`WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node, PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL %d ITERATIONS )
SELECT Node, Rank FROM PageRank ORDER BY Node`, iterations)
}

// recursiveQueries are the WITH RECURSIVE statements the oracle matrices
// run beside the workload queries, one per form of the recursive merge:
// the nodes reachable from node 25 under UNION, and a series under
// UNION ALL.
func recursiveQueries() map[string]string {
	return map[string]string{
		"Reach": `WITH RECURSIVE reach (node) AS (
  SELECT 25 UNION SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node
) SELECT node FROM reach ORDER BY node`,
		"Series": `WITH RECURSIVE series (n, x) AS (
  SELECT 1, 0.5 UNION ALL SELECT n + 1, x * 2 FROM series WHERE n < 12
) SELECT n, x FROM series ORDER BY n`,
	}
}

func ssspSQL(source, iterations int) string {
	return fmt.Sprintf(`WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = %d THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
  WHERE IncomingDistance.Delta != 9999999
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL %d ITERATIONS)
SELECT Node, Distance FROM sssp ORDER BY Node`, source, iterations)
}

func ffSQL(iterations, mod int) string {
	return fmt.Sprintf(`WITH ITERATIVE forecast (node, friends, friendsPrev)
AS( SELECT src AS node, count(dst) AS friends,
      ceiling(count(dst) * (1.0-(src%%10)/100.0)) AS friendsPrev
    FROM edges GROUP BY src
 ITERATE
   SELECT node AS node,
      round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends,
      friends AS friendsPrev
   FROM forecast
 UNTIL %d ITERATIONS )
SELECT node, friends FROM forecast WHERE MOD(node, %d) = 0 ORDER BY node`, iterations, mod)
}

func TestPageRankMatchesOracle(t *testing.T) {
	g := workload.PreferentialAttachment(300, 3, workload.WeightOutDegree, 11)
	e := loadGraph(t, g, 1.0)
	r := mustQuery(t, e, prSQL(5))
	oracle := graphalgo.PageRank(g.Edges, 5)
	if len(r.Rows) != len(oracle) {
		t.Fatalf("SQL returned %d nodes, oracle %d", len(r.Rows), len(oracle))
	}
	for _, row := range r.Rows {
		node := row[0].Int()
		want := oracle[node]
		if math.IsNaN(want) {
			if !row[1].IsNull() {
				t.Errorf("node %d: SQL %v, oracle NULL", node, row[1])
			}
			continue
		}
		got := row[1].Float()
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("node %d: SQL %v, oracle %v", node, got, want)
		}
	}
}

func TestSSSPMatchesOracle(t *testing.T) {
	g := workload.Uniform(150, 600, workload.WeightUniform, 13)
	e := loadGraph(t, g, 1.0)
	const iters = 12
	r := mustQuery(t, e, ssspSQL(1, iters))
	oracle := graphalgo.SSSP(g.Edges, 1, iters)
	for _, row := range r.Rows {
		node := row[0].Int()
		got := row[1].Float()
		want := oracle[node]
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("node %d: SQL %v, oracle %v", node, got, want)
		}
	}
}

func TestSSSPConvergesToDijkstra(t *testing.T) {
	// Run enough iterations for the recurrence to reach the true
	// shortest paths on a small graph, and compare against Dijkstra.
	g := workload.Uniform(60, 240, workload.WeightUniform, 17)
	e := loadGraph(t, g, 1.0)
	r := mustQuery(t, e, ssspSQL(1, 40))
	exact := graphalgo.Dijkstra(g.Edges, 1)
	for _, row := range r.Rows {
		node := row[0].Int()
		if node == 1 {
			continue // the query's source-node quirk, see graphalgo.SSSP
		}
		got := row[1].Float()
		want := exact[node]
		if math.IsInf(want, 1) {
			if got != graphalgo.Infinity {
				t.Errorf("unreachable node %d: SQL %v", node, got)
			}
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("node %d: SQL %v, dijkstra %v", node, got, want)
		}
	}
}

func TestForecastMatchesOracle(t *testing.T) {
	g := workload.PreferentialAttachment(400, 4, workload.WeightUnit, 19)
	e := loadGraph(t, g, 1.0)
	r := mustQuery(t, e, ffSQL(5, 1))
	oracle := graphalgo.Forecast(g.Edges, 5)
	if len(r.Rows) != len(oracle) {
		t.Fatalf("SQL returned %d nodes, oracle %d", len(r.Rows), len(oracle))
	}
	for _, row := range r.Rows {
		node := row[0].Int()
		got := row[1].Float()
		want := oracle[node]
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("node %d: SQL %v, oracle %v", node, got, want)
		}
	}
}

func TestPageRankVSMatchesOracle(t *testing.T) {
	g := workload.PreferentialAttachment(200, 3, workload.WeightOutDegree, 23)
	e := loadGraph(t, g, 0.8)
	q := `WITH ITERATIVE PageRank (Node, Rank, Delta)
AS ( SELECT src, 0, 0.15
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node, PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
    JOIN vertexStatus AS avail_pr ON avail_pr.node = IncomingEdges.dst
  WHERE avail_pr.status != 0
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta
 UNTIL 5 ITERATIONS )
SELECT Node, Rank FROM PageRank ORDER BY Node`
	r := mustQuery(t, e, q)

	status := map[int64]int64{}
	for _, row := range workload.VertexStatus(g, 0.8, 99) {
		status[row[0].Int()] = row[1].Int()
	}
	oracle := graphalgo.PageRankVS(g.Edges, status, 5)
	for _, row := range r.Rows {
		node := row[0].Int()
		want := oracle[node]
		if math.IsNaN(want) {
			if !row[1].IsNull() {
				t.Errorf("node %d: SQL %v, oracle NULL", node, row[1])
			}
			continue
		}
		got := row[1].Float()
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("node %d: SQL %v, oracle %v", node, got, want)
		}
	}
}

// TestOptimizationsPreserveResultsOnGeneratedGraphs runs the three
// paper queries over the optimization lattice (see
// checkOptimizationLattice).
func TestOptimizationsPreserveResultsOnGeneratedGraphs(t *testing.T) {
	g := workload.PreferentialAttachment(150, 3, workload.WeightOutDegree, 31)
	checkOptimizationLattice(t, g, []latticeQuery{
		{"PR", prSQL(4)},
		{"SSSP", ssspSQL(1, 6)},
		{"FF", ffSQL(4, 2)},
	})
}

// TestTerminationFormsPreserveResultsAcrossConfigs runs the three
// data-dependent termination forms over the optimization lattice (see
// checkOptimizationLattice). Data and delta termination observe whole
// rows, so this doubles as the check that column pruning withholds
// correctly under every termination form.
func TestTerminationFormsPreserveResultsAcrossConfigs(t *testing.T) {
	g := workload.PreferentialAttachment(150, 3, workload.WeightOutDegree, 43)

	// PageRank over available vertices, with an explicit iteration
	// counter so UNTIL ANY fires deterministically. The WHERE clause
	// makes the body eligible for both filter hoisting and delta
	// iteration.
	anyQ := `WITH ITERATIVE PageRank (Node, Rank, Delta, Iter)
AS ( SELECT src, 0, 0.15, 0
     FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT PageRank.node, PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight),
    PageRank.iter + 1
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
    JOIN vertexStatus AS avail ON avail.node = IncomingEdges.dst
  WHERE avail.status != 0
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta, PageRank.iter + 1
 UNTIL ANY (iter >= 4) )
SELECT Node, Rank FROM PageRank ORDER BY Node`

	// Friend forecast with the same counter trick: every row carries
	// the same counter, so UNTIL ALL stops after exactly three rounds.
	allQ := `WITH ITERATIVE forecast (node, friends, friendsPrev, it)
AS( SELECT src AS node, count(dst) AS friends,
      ceiling(count(dst) * (1.0-(src%10)/100.0)) AS friendsPrev, 0 AS it
    FROM edges GROUP BY src
 ITERATE
   SELECT node AS node,
      round(cast((friends / friendsPrev) * friends AS numeric), 5) AS friends,
      friends AS friendsPrev, it + 1 AS it
   FROM forecast
 UNTIL ALL (it >= 3) )
SELECT node, friends FROM forecast ORDER BY node`

	// SSSP to a fixed point: positive weights make the relaxation
	// converge, so UNTIL DELTA < 1 terminates on its own.
	deltaQ := strings.Replace(ssspSQL(1, 999), "UNTIL 999 ITERATIONS", "UNTIL DELTA < 1", 1)

	checkOptimizationLattice(t, g, []latticeQuery{
		{"until-any", anyQ},
		{"until-all", allQ},
		{"until-delta", deltaQ},
	})
}

type latticeQuery struct {
	name string
	sql  string
}

// checkOptimizationLattice: every subset of the six optimizations
// Config.Baseline can withhold — all 64 — returns the rows the default
// returns on the same machine, byte for byte (MPP partitions sum floats
// in another order), for each query, on volcano over one and four
// partitions and on the MPP machine over two, always with the Paranoid
// cross-checks armed. Each engine holds g's edges and vertex status.
func checkOptimizationLattice(t *testing.T, g *workload.Graph, queries []latticeQuery) {
	t.Helper()
	machines := []Config{{Partitions: 1}, {Partitions: 4}, {Partitions: 2, Parallel: true}}
	all := OptRename | OptCommonResults | OptPushdown | OptColumnPruning | OptShuffleElision | OptIncremental
	for _, m := range machines {
		want := make([][]string, len(queries))
		for b := Opt(0); b <= all; b++ {
			cfg := m
			cfg.Baseline, cfg.Paranoid = b, true
			e := New(cfg)
			mustExec(t, e, "CREATE TABLE edges (src int, dst int, weight float)")
			if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, "CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)")
			if err := e.BulkInsert("vertexStatus", workload.VertexStatus(g, 0.8, 99)); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				got := resultStrings(mustQuery(t, e, q.sql))
				if b == 0 {
					if len(got) == 0 {
						t.Fatalf("%s partitions=%d parallel=%v: the default returned no rows", q.name, m.Partitions, m.Parallel)
					}
					want[qi] = got
					continue
				}
				if d := rowsDiff(got, want[qi]); d != "" {
					t.Errorf("%s partitions=%d parallel=%v baseline=%06b: %s", q.name, m.Partitions, m.Parallel, b, d)
				}
			}
		}
	}
}

// rowsDiff describes the first difference between two rendered row
// lists, or returns "" when they are identical.
func rowsDiff(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: %q, want %q", i, got[i], want[i])
		}
	}
	return ""
}

func TestParallelModeMatchesSequential(t *testing.T) {
	// MPP execution (fragments + shuffles) must return the same rows as
	// the volcano executor for all three paper queries, and must
	// actually shuffle data.
	g := workload.PreferentialAttachment(200, 3, workload.WeightOutDegree, 37)
	load := func(cfg Config) *Engine {
		e := New(cfg)
		mustExec(t, e, "CREATE TABLE edges (src int, dst int, weight float)")
		if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, q := range []string{prSQL(3), ssspSQL(1, 5), ffSQL(3, 2)} {
		seq := load(Config{Partitions: 4})
		par := load(Config{Partitions: 4, Parallel: true})
		rs := mustQuery(t, seq, q)
		rp := mustQuery(t, par, q)
		if len(rs.Rows) != len(rp.Rows) {
			t.Fatalf("row counts differ: %d vs %d", len(rs.Rows), len(rp.Rows))
		}
		for i := range rs.Rows {
			a, b := rs.Rows[i], rp.Rows[i]
			if a[0].Int() != b[0].Int() {
				t.Fatalf("row %d key: %v vs %v", i, a[0], b[0])
			}
			if a[1].IsNull() != b[1].IsNull() {
				t.Fatalf("row %d null: %v vs %v", i, a[1], b[1])
			}
			if !a[1].IsNull() && math.Abs(a[1].Float()-b[1].Float()) > 1e-9*(1+math.Abs(a[1].Float())) {
				t.Errorf("row %d: %v vs %v", i, a[1], b[1])
			}
		}
		if st := par.Stats(); st.RowsShuffled == 0 {
			t.Errorf("parallel run of %q shuffled nothing", q[:40])
		}
	}
	// The recursive queries run on the machine as step programs too, at
	// two and at four partitions, and answer byte for byte as volcano.
	for name, q := range recursiveQueries() {
		for _, parts := range []int{2, 4} {
			rs := mustQuery(t, load(Config{Partitions: parts}), q)
			par := load(Config{Partitions: parts, Parallel: true})
			rp := mustQuery(t, par, q)
			if got, want := fmt.Sprint(rp.Rows), fmt.Sprint(rs.Rows); got != want {
				t.Errorf("%s, %d partitions: parallel rows\n%s\nsequential rows\n%s", name, parts, got, want)
			}
			if len(rs.Rows) < 2 {
				t.Errorf("%s answers %d rows; the recursion never ran", name, len(rs.Rows))
			}
			if st := par.Stats(); st.RowsShuffled == 0 {
				t.Errorf("parallel run of %s at %d partitions shuffled nothing", name, parts)
			}
		}
	}
}

func TestParallelPlainSelect(t *testing.T) {
	g := workload.PreferentialAttachment(200, 3, workload.WeightOutDegree, 41)
	e := New(Config{Partitions: 4, Parallel: true})
	mustExec(t, e, "CREATE TABLE edges (src int, dst int, weight float)")
	if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, e, "SELECT src, COUNT(*) FROM edges GROUP BY src ORDER BY src")
	seq := New(Config{Partitions: 4})
	mustExec(t, seq, "CREATE TABLE edges (src int, dst int, weight float)")
	if err := seq.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		t.Fatal(err)
	}
	r2 := mustQuery(t, seq, "SELECT src, COUNT(*) FROM edges GROUP BY src ORDER BY src")
	a, b := resultStrings(r), resultStrings(r2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestIndexMemoEndsWithTheQuery: the hash indexes an iterative query
// memoizes for its loop are gone when it returns. A row inserted into
// edges between two PageRank queries therefore shows in the second one,
// which indexes the changed table afresh and matches the oracle over
// the changed graph.
func TestIndexMemoEndsWithTheQuery(t *testing.T) {
	g := workload.PreferentialAttachment(80, 3, workload.WeightOutDegree, 17)
	e := loadGraph(t, g, 1.0)
	const iters = 5
	first := mustQuery(t, e, prSQL(iters))
	indexedFirst := e.Stats().RowsIndexed
	nodes, edges := int64(len(first.Rows)), int64(len(g.Edges))
	if want := edges + iters*nodes; indexedFirst != want {
		t.Fatalf("first query: RowsIndexed = %d, want %d (edges once, the CTE per iteration)", indexedFirst, want)
	}

	mustExec(t, e, "INSERT INTO edges VALUES (1, 2, 0.5)")
	second := mustQuery(t, e, prSQL(iters))
	if got, want := e.Stats().RowsIndexed-indexedFirst, edges+1+iters*nodes; got != want {
		t.Errorf("second query: RowsIndexed = %d, want %d (the new edge included)", got, want)
	}
	oracle := graphalgo.PageRank(append(append([]graphalgo.Edge(nil), g.Edges...), graphalgo.Edge{Src: 1, Dst: 2, Weight: 0.5}), iters)
	changed := false
	for i, row := range second.Rows {
		want := oracle[row[0].Int()]
		if got := row[1].Float(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("node %d after the insert: SQL %v, oracle %v", row[0].Int(), got, want)
		}
		if row.String() != first.Rows[i].String() {
			changed = true
		}
	}
	if !changed {
		t.Error("the inserted edge changed no rank: the second query did not see it")
	}
}
