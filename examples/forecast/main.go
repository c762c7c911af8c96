// Friends forecast (the paper's FF query, Figure 6) with predicate
// push down: the final query samples 1% of the nodes, and the
// optimizer pushes that filter into the non-iterative part so every
// iteration processes 100x less data. The example shows the plan with
// and without the optimization and measures both.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"dbspinner"
	"dbspinner/internal/workload"
)

const (
	iterations = 25
	mod        = 100 // MOD(node, 100) = 0 keeps 1% of the nodes
)

func query() string {
	return fmt.Sprintf(`
		WITH ITERATIVE forecast (node, friends, friendsPrev) AS (
			SELECT src AS node, count(dst) AS friends,
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
		ORDER BY friends DESC, node LIMIT 10`, iterations, mod)
}

func load(e *dbspinner.Engine, g *workload.Graph) {
	if _, err := e.Exec("CREATE TABLE edges (src int, dst int, weight float)"); err != nil {
		log.Fatal(err)
	}
	if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		log.Fatal(err)
	}
}

func main() {
	g := workload.PreferentialAttachment(20000, 5, workload.WeightUnit, 3)
	fmt.Printf("graph: %d nodes, %d edges; forecasting %d iterations, sampling 1/%d\n",
		g.NumNodes, len(g.Edges), iterations, mod)

	optimized := dbspinner.New(dbspinner.Config{})
	baseline := dbspinner.New(dbspinner.Config{Baseline: dbspinner.OptPushdown})
	load(optimized, g)
	load(baseline, g)

	// Show where the predicate ends up in each plan.
	showPlanHead := func(label string, e *dbspinner.Engine) {
		plan, err := e.Explain(query())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s — step 1 of the program:\n", label)
		head := plan[:strings.Index(plan, "Step 2")]
		for _, line := range strings.Split(strings.TrimRight(head, "\n"), "\n") {
			fmt.Println(line)
		}
	}
	showPlanHead("baseline (filter stays in Qf)", baseline)
	showPlanHead("optimized (filter pushed into R0)", optimized)

	run := func(e *dbspinner.Engine) (time.Duration, *dbspinner.Result) {
		start := time.Now()
		res, err := e.Query(query())
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), res
	}
	baseTime, baseRes := run(baseline)
	optTime, optRes := run(optimized)

	fmt.Printf("\nbaseline:  %v\n", baseTime.Round(time.Microsecond))
	fmt.Printf("optimized: %v  (%.1fx faster)\n", optTime.Round(time.Microsecond),
		float64(baseTime)/float64(optTime))

	// Both return the same answer.
	if len(baseRes.Rows) != len(optRes.Rows) {
		log.Fatalf("row counts differ: %d vs %d", len(baseRes.Rows), len(optRes.Rows))
	}
	for i := range baseRes.Rows {
		if baseRes.Rows[i].String() != optRes.Rows[i].String() {
			log.Fatalf("row %d differs: %v vs %v", i, baseRes.Rows[i], optRes.Rows[i])
		}
	}
	fmt.Println("\ntop forecasts (identical for both plans):")
	fmt.Print(optRes.String())
}
