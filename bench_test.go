// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VII). Run with:
//
//	go test -bench=. -benchmem
//
// Sub-benchmark names encode the experiment: BenchmarkFig8/FF/rename
// vs BenchmarkFig8/FF/copyback is the Figure 8 comparison, and so on.
// The cmd/benchrunner binary prints the same experiments as the
// paper-style tables with improvement percentages.
package dbspinner_test

import (
	"fmt"
	"runtime"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/middleware"
	"dbspinner/internal/proc"
	"dbspinner/internal/workload"
)

// benchConfig is the shared workload scale: the dblp-small preset (the
// paper's DBLP graph scaled 1:79) with 10 iterations, matching the
// PR/SSSP experiments; Figure 10/11 use 25 iterations as in the paper.
var benchConfig = bench.Config{Preset: "dblp-small", Iterations: 10, Partitions: 4}

// engines are cached per (preset, engine-config) across benchmark
// iterations; building the graph dominates setup otherwise.
func newBenchEngine(b testing.TB, cfg bench.Config, ecfg dbspinner.Config) *dbspinner.Engine {
	b.Helper()
	g, err := benchGraph(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := bench.NewEngine(g, cfg, ecfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

var graphCache = map[string]*workload.Graph{}

func benchGraph(cfg bench.Config) (*workload.Graph, error) {
	key := fmt.Sprintf("%s/%d", cfg.Preset, cfg.Nodes)
	if g, ok := graphCache[key]; ok {
		return g, nil
	}
	p, ok := workload.Presets[cfg.Preset]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", cfg.Preset)
	}
	nodes := p.Nodes
	if cfg.Nodes > 0 {
		nodes = cfg.Nodes
	}
	g := workload.PreferentialAttachment(nodes, p.OutDeg, p.Mode, 42)
	graphCache[key] = g
	return g, nil
}

func runQuery(b *testing.B, e *dbspinner.Engine, sql string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI measures the rewrite itself: parsing the PR query and
// expanding it into the Table I step program.
func BenchmarkTableI_Rewrite(b *testing.B) {
	e := newBenchEngine(b, benchConfig, dbspinner.Config{})
	sql := bench.PRQuery(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 — minimizing data movement: rename vs copy-back.
func BenchmarkFig8(b *testing.B) {
	queries := map[string]string{
		"FF": bench.FFQuery(benchConfig.Iterations, 2),
		"PR": bench.PRQuery(benchConfig.Iterations),
	}
	for name, sql := range queries {
		b.Run(name+"/copyback", func(b *testing.B) {
			e := newBenchEngine(b, benchConfig, dbspinner.Config{Baseline: dbspinner.OptRename})
			runQuery(b, e, sql)
		})
		b.Run(name+"/rename", func(b *testing.B) {
			e := newBenchEngine(b, benchConfig, dbspinner.Config{})
			runQuery(b, e, sql)
		})
	}
}

// BenchmarkFig9 — common-result materialization on PR-VS and SSSP-VS
// over the DBLP-like and Pokec-like datasets.
func BenchmarkFig9(b *testing.B) {
	queries := map[string]string{
		"PR-VS":   bench.PRVSQuery(benchConfig.Iterations),
		"SSSP-VS": bench.SSSPVSQuery(1, benchConfig.Iterations),
	}
	for _, preset := range []string{"dblp-small", "pokec-small"} {
		cfg := benchConfig
		cfg.Preset = preset
		for name, sql := range queries {
			b.Run(fmt.Sprintf("%s/%s/baseline", name, preset), func(b *testing.B) {
				e := newBenchEngine(b, cfg, dbspinner.Config{Baseline: dbspinner.OptCommonResults})
				runQuery(b, e, sql)
			})
			b.Run(fmt.Sprintf("%s/%s/common", name, preset), func(b *testing.B) {
				e := newBenchEngine(b, cfg, dbspinner.Config{})
				runQuery(b, e, sql)
			})
		}
	}
}

// BenchmarkFig10 — predicate push down on FF at 25 iterations across
// selectivities (1/X of the nodes survive MOD(node, X) = 0).
func BenchmarkFig10(b *testing.B) {
	cfg := benchConfig
	cfg.Iterations = 25
	for _, mod := range []int{2, 10, 100} {
		sql := bench.FFQuery(cfg.Iterations, mod)
		b.Run(fmt.Sprintf("sel=1of%d/baseline", mod), func(b *testing.B) {
			e := newBenchEngine(b, cfg, dbspinner.Config{Baseline: dbspinner.OptPushdown})
			runQuery(b, e, sql)
		})
		b.Run(fmt.Sprintf("sel=1of%d/pushed", mod), func(b *testing.B) {
			e := newBenchEngine(b, cfg, dbspinner.Config{})
			runQuery(b, e, sql)
		})
	}
}

// BenchmarkFig11 — optimized iterative CTEs vs stored procedures at 25
// iterations.
func BenchmarkFig11(b *testing.B) {
	cfg := benchConfig
	cfg.Iterations = 25
	items := []struct {
		name string
		sql  string
		mk   func() *proc.Procedure
	}{
		{"PR-VS", bench.PRVSQuery(cfg.Iterations), func() *proc.Procedure { return proc.PageRank(cfg.Iterations, true) }},
		{"SSSP-VS", bench.SSSPVSQuery(1, cfg.Iterations), func() *proc.Procedure { return proc.SSSP(1, cfg.Iterations, true) }},
		{"FF50", bench.FFQuery(cfg.Iterations, 2), func() *proc.Procedure { return proc.Forecast(cfg.Iterations, 2) }},
	}
	for _, it := range items {
		b.Run(it.name+"/storedproc", func(b *testing.B) {
			e := newBenchEngine(b, cfg, dbspinner.Config{})
			p := it.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := proc.Run(e, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(it.name+"/cte", func(b *testing.B) {
			e := newBenchEngine(b, cfg, dbspinner.Config{})
			runQuery(b, e, it.sql)
		})
	}
}

// BenchmarkMiddleware — the §I/§II ablation: external middleware driver
// vs the native single plan.
func BenchmarkMiddleware(b *testing.B) {
	b.Run("middleware", func(b *testing.B) {
		e := newBenchEngine(b, benchConfig, dbspinner.Config{})
		c := middleware.NewClient(e)
		p := proc.PageRank(benchConfig.Iterations, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunIterative(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native", func(b *testing.B) {
		e := newBenchEngine(b, benchConfig, dbspinner.Config{})
		runQuery(b, e, bench.PRQuery(benchConfig.Iterations))
	})
}

// BenchmarkParallel — MPP fragment execution vs the single-threaded
// volcano executor on the PR query.
func BenchmarkParallel(b *testing.B) {
	sql := bench.PRQuery(benchConfig.Iterations)
	b.Run("serial", func(b *testing.B) {
		e := newBenchEngine(b, benchConfig, dbspinner.Config{Partitions: 4})
		runQuery(b, e, sql)
	})
	for _, parts := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", parts), func(b *testing.B) {
			e := newBenchEngine(b, benchConfig, dbspinner.Config{Partitions: parts, Parallel: true})
			runQuery(b, e, sql)
		})
	}
}

// BenchmarkRecursive — the recursive-CTE substrate (reachability) for
// context against the iterative path.
func BenchmarkRecursive(b *testing.B) {
	e := newBenchEngine(b, benchConfig, dbspinner.Config{})
	sql := `WITH RECURSIVE reach (node) AS (
		SELECT 1 UNION SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node
	) SELECT COUNT(*) FROM reach`
	runQuery(b, e, sql)
}

// TestAllocBudgetPageRank gates what one 10-iteration PageRank over a
// fixed 300-node graph allocates, and the bytes of the same PageRank
// with the vertexStatus join (PR-VS, four fifths of the vertices
// available). The loop body is two hash joins and a hash aggregate per
// iteration, so a per-row or per-group allocation creeping back into a
// kernel multiplies into thousands of objects (the Go-map kernels made
// 109k), and a join that materializes the rows its aggregate folds into
// megabytes (10.3 MB before rows were borrowed). PageRank makes 757
// objects and 745,464 bytes (759–760 and 746,549–746,674 under -race),
// PR-VS 878,696 bytes (879,768–880,128), the same from run to run, when
// every iteration takes back what the one before let go: the aggregate resets and fills its node's group
// table and accumulators, a join indexes the new CTE table in the
// storage of the index the memo swept, the maintenance step's diff,
// affected keys and row indexes reuse the run's key tables, and the CTE
// table the rename displaced hands its row chunks back once the run
// memo's entry on it and the maintenance snapshot let go of it
// (storage.Table.Hold) — while both pinned every CTE table for good,
// PageRank made 786 objects and 892,469 bytes. The first iteration of
// each query takes back what the statement's last query let go
// (core.RunState). While the memo's sweep handed its indexes' storage
// and chunks back in map order, not in the order the run asked for the
// indexes, the bytes changed from run to run: 745,640–768,386 for
// PageRank, 896,357–917,946 for PR-VS. Earlier, PageRank made 1.42 MB starting each query
// from empty, 2.18 MB building the tables anew every iteration, 4.54 MB
// indexing edges once per iteration instead of once per query (before
// the run memo kept join indexes, exec.Memo), and 3.14 MB paying for a
// diff, a closure and a splice on every dense iteration. The object
// budget is the 768 objects PageRank made before the ordered sweep plus
// 2%; both byte budgets are the -race bytes plus 5%, so any of these
// fails go test, not a benchmark run, and so does a memo entry or a
// snapshot that never lets go of its table. With the row chunks the
// statement's last query handed back carried into its next one
// (exec.Leftovers), PR-VS makes 772,258 bytes (773,397 under -race),
// and its byte budget, 773,397 plus 5%, fails a query that carves its
// tables from new chunks again (878,690).
func TestAllocBudgetPageRank(t *testing.T) {
	cfg := bench.Config{Preset: "dblp-small", Nodes: 300, Iterations: 10, Partitions: 1}
	g, err := benchGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := bench.NewEngine(g, cfg, dbspinner.Config{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, sql   string
		budget      float64 // objects; 0: not gated
		bytesBudget uint64
	}{
		{"PageRank", bench.PRQuery(cfg.Iterations), 783, 785_000},
		{"PR-VS", bench.PRVSQuery(cfg.Iterations), 0, 813_000},
	} {
		query := func() {
			if _, err := e.Query(c.sql); err != nil {
				t.Fatal(err)
			}
		}
		if c.budget > 0 {
			got := testing.AllocsPerRun(3, query)
			if got > c.budget {
				t.Errorf("%s on %d nodes: %.0f allocations per query, budget %.0f", c.name, cfg.Nodes, got, c.budget)
			}
			t.Logf("%s on %d nodes: %.0f allocations per query (budget %.0f)", c.name, cfg.Nodes, got, c.budget)
		}

		// The same for bytes, which testing has no AllocsPerRun for.
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			const runs = 3
			query() // warm-up, as AllocsPerRun does
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				query()
			}
			runtime.ReadMemStats(&after)
			gotBytes := (after.TotalAlloc - before.TotalAlloc) / runs
			if gotBytes > c.bytesBudget {
				t.Errorf("%s on %d nodes: %d bytes per query, budget %d", c.name, cfg.Nodes, gotBytes, c.bytesBudget)
			}
			t.Logf("%s on %d nodes: %d bytes per query (budget %d)", c.name, cfg.Nodes, gotBytes, c.bytesBudget)
		}()
	}
}

// TestAllocBudgetForecast gates what one 10-iteration Friends Forecast
// (Figure 8's FF) over the benchmark graph allocates. Its iterative part
// is one projection, round(cast((friends / friendsPrev) * friends AS
// numeric), 5), so an allocation per evaluated row — an argument slice
// per function call, a boxed error, a partition grown by doubling —
// multiplies by rows × iterations: the query made 30.5k objects and
// 10.06 MB before expressions were bound at compile time and
// materialized partitions sized once. Draining each step's rows into one
// slice and copying them into the partitions after made 843 objects and
// 7.13 MB; routing each row straight into its partition, presized from
// what the step wrote there last iteration, made 718 and 5.47 MB. Its one
// aggregate, which runs once per query, building its rows in its group
// table instead of copying them out of it made 714 and 5.17 MB. The
// statement's run filling the tables its last run let go (core.RunState)
// made 640 and 4.45 MB. Each iteration carving its rows from the chunks
// of the table the last rename released, instead of allocating them
// (storage.ResultStore, the run memo's sqltypes.ChunkPool), made 405 and
// 1.639 MB. The aggregate's group table and accumulators, let go before
// the loop's first back-edge, surviving the loop's sweeps to be filled
// again by the statement's next run (sqltypes.Spares), makes 378 and
// 1.115 MB, the same under -race. The object budget is the 714 plus 25%,
// the byte budget 1.115 MB plus 5%: a loop that stops recycling its rows
// makes 4.45 MB again and fails it, and so does a sweep that drops the
// pre-loop aggregate's storage again (1.639 MB). Each query carving its
// tables from the row chunks the statement's last query handed back,
// instead of from new ones (exec.Leftovers), makes 331 objects and
// 195,192 bytes (195,938 under -race); the byte budget is now that -race
// reading plus 5%, so chunks that stop outliving the run (1.115 MB)
// fail it.
func TestAllocBudgetForecast(t *testing.T) {
	e := newBenchEngine(t, benchConfig, dbspinner.Config{})
	sql := bench.FFQuery(benchConfig.Iterations, 2)
	query := func() {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	const budget, bytesBudget = 900, 206_000
	got := testing.AllocsPerRun(3, query)
	if got > budget {
		t.Errorf("FF: %.0f allocations per query, budget %d", got, budget)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	query() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	gotBytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if gotBytes > bytesBudget {
		t.Errorf("FF: %d bytes per query, budget %d", gotBytes, bytesBudget)
	}
	t.Logf("FF: %.0f allocations (budget %d) and %d bytes (budget %d) per query", got, budget, gotBytes, bytesBudget)
}

// TestAllocBudgetSSSPVS gates what one 10-iteration SSSP-VS over the
// benchmark graph, four fifths of its vertices available, allocates. Its
// WHERE conjunct on IncomingDistance.delta is placed on the join's build
// side and makes both left joins inner, and the join indexes only the
// rows of sssp that pass it, straight from the table. Draining each
// step's rows into one slice and copying them into the partitions after,
// the query made 1.87k objects and 8.67 MB; routing each row straight
// into its partition, and giving an empty partition room for 16 rows at
// once, it made 1.72k and 7.95 MB. With the aggregates' output rows their
// group tables' own cells, presized from the previous iteration, and the
// merge's partitions presized from the CTE's, it made 1.50k and 6.48 MB.
// With the first iteration filling the tables the statement's last run
// let go (core.RunState), it made 1.31k and 5.26–5.49 MB (5.49 MB under
// -race). With the incremental steps' state on the loop instead of in
// the result store — no Delta# table, no per-merge key table — it made
// 999–1,002 objects (1,039–1,044 with the two tables) and 4.81–5.59 MB,
// the same spread as with them: an index build took the newest spare
// index, and which one that was followed the map order the memo gave
// them back in, so the delta step's build of the reached vertices often
// grew a key table in storage too small for it. With the delta step
// running one plan, not a full and a restricted one with an aggregate
// group table and a filtered vertexStatus index each, and each index
// build taking a spare large enough for its rows, it makes 869–870
// objects (873 under -race) and 4.457 MB, the same from run to run
// (4.458 MB under -race). The object budget is the 873 plus 2%, not
// this file's usual 25%, and the byte budget the 4.458 MB plus 5%, so
// that a second plan, or a build taking the newest spare again, fails
// it. Each query carving its tables from the row chunks the statement's
// last query handed back (exec.Leftovers) makes 810 objects and 3,103,538
// bytes (3,105,152 under -race). With the keyed merge owning its output,
// adopting the working table's chunks and copying the surviving CTE rows
// into chunks of its own, so that each displaced CTE hands its storage
// back, it makes 762 objects and 1,886,642 bytes (1,888,138 at most under
// -race); the byte budget is that -race reading plus 5%, which a merge
// that pins its inputs again (about 3.10 MB) and chunks that stop
// outliving the run fail.
// (With every vertex unavailable, as the engine was loaded before
// the harness applied its defaults, filtering above the outer join after
// indexing all of sssp every iteration made 8.97 MB against placement's
// 4.83.)
func TestAllocBudgetSSSPVS(t *testing.T) {
	e := newBenchEngine(t, benchConfig, dbspinner.Config{})
	sql := bench.SSSPVSQuery(1, benchConfig.Iterations)
	query := func() {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	const budget, bytesBudget = 890, 1_983_000
	got := testing.AllocsPerRun(3, query)
	if got > budget {
		t.Errorf("SSSP-VS: %.0f allocations per query, budget %d", got, budget)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	query() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	gotBytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if gotBytes > bytesBudget {
		t.Errorf("SSSP-VS: %d bytes per query, budget %d", gotBytes, bytesBudget)
	}
	t.Logf("SSSP-VS: %.0f allocations (budget %d) and %d bytes (budget %d) per query", got, budget, gotBytes, bytesBudget)
}

// TestAllocBudgetPageRankMPP gates the bytes of PR-VS on the MPP machine
// (2 partitions, 10 iterations) on a 1,300-node graph with four fifths
// of the vertices available, where every iteration routes the outputs of
// Ri's two joins — about 3,100 rows of 6 and of 9 columns, 7,467 routed
// rows per iteration, logged below — through hash exchanges. A fragment
// that feeds an exchange lends its rows to the routing loop, which copies
// them into buffers the machine keeps across the back-edge, so the loop
// pays for them once, each partition's output slice starts at the size
// the step wrote there last iteration, and each partition's aggregate
// builds its output rows in its group table, and every partition's
// aggregate and shuffled-build join take back the tables the iteration
// before let go; and each query's first iteration fills the exchange
// buffers, hash tables and key tables the statement's last query let go
// (core.RunState): 3.38 MB per query (3.56–3.58 MB under -race). Of
// those the sweeps at the loop's back-edges keep what the run filled or
// let go before the first one; sweeping the exchanges in front of the
// loop, so that each query made their sites anew, was 5.59–5.63 MB.
// Starting each query from empty was 10.03 MB; building those tables
// anew every iteration, the aggregate's presized from the node's previous
// group count, 13.00 MB; copying every group out of a table grown from
// empty, 14.22 MB; letting the step's output slice grow by doubling
// besides, 14.36 MB.
// Materializing the joins' output for the exchange to walk a second
// time, and building the exchange's memory anew every iteration, was
// 45.55 MB. With the machine's results owning their rows — the root
// fragment's projected rows carved into chunks the step's table owns, the
// drained slices taken from the run's free list, fragment scans pinning
// only under a keeper, and the keyed merge adopting and copying as on the
// volcano executor — every displaced table hands its storage back: 1.09
// MB per query (1.11–1.25 MB under -race; 3.35 MB while the machine's
// tables owned nothing). The budget is the highest -race measurement plus
// 5%, so that the race run fits under it and a machine whose results or
// merges pin again, or that sweeps the pre-loop sites, does not.
func TestAllocBudgetPageRankMPP(t *testing.T) {
	cfg := bench.Config{Preset: "dblp-small", Nodes: 1300, Iterations: 10, Partitions: 2, AvailFrac: 0.8}
	g, err := benchGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := bench.NewEngine(g, cfg, dbspinner.Config{Partitions: 2, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	sql := bench.PRVSQuery(cfg.Iterations)
	query := func() {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	const bytesBudget = 1_311_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	query() // warm-up
	routed := e.Stats().RowsRouted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	gotBytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if gotBytes > bytesBudget {
		t.Errorf("PR-VS on the MPP machine, %d nodes: %d bytes per query, budget %d", cfg.Nodes, gotBytes, bytesBudget)
	}
	t.Logf("PR-VS on the MPP machine, %d nodes: %d bytes per query (budget %d); %d rows routed per query, %d per iteration",
		cfg.Nodes, gotBytes, bytesBudget, routed, routed/int64(cfg.Iterations))
}
