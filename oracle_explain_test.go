// Oracle tests for what EXPLAIN reports about every workload query: the
// distribution property the partition-property analysis claims for each
// step.
package dbspinner_test

import (
	"fmt"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
)

// workloadQueries are the paper's five workload queries at 10
// iterations, the query set the cross-config oracles run.
func workloadQueries() map[string]string {
	return map[string]string{
		"PR":      bench.PRQuery(10),
		"PR-VS":   bench.PRVSQuery(10),
		"SSSP":    bench.SSSPQuery(1, 10),
		"SSSP-VS": bench.SSSPVSQuery(1, 10),
		"FF":      bench.FFQuery(10, 2),
	}
}

// TestExplainShowsDistribution: every workload query's EXPLAIN must
// render one distribution line per step plus the final query's
// distribution, and under a parallel configuration the common-result
// queries (PR-VS, SSSP-VS) must list the exchanges the analysis
// licensed the machine to skip.
func TestExplainShowsDistribution(t *testing.T) {
	e := newWorkloadEngine(t, dbspinner.Config{Partitions: 2})
	for name, sql := range workloadQueries() {
		t.Run(name, func(t *testing.T) {
			out, err := e.Explain(sql)
			if err != nil {
				t.Fatal(err)
			}
			steps := strings.Count(out, "\nStep ") + 1 // "Step 1:" opens the output
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
			if strings.Contains(name, "-VS") {
				// Under a parallel configuration the VS loop bodies
				// join on the loop-invariant CTE key, so EXPLAIN must
				// list the licensed elided exchanges.
				pe := newWorkloadEngine(t, dbspinner.Config{Partitions: 2, Parallel: true})
				pout, err := pe.Explain(sql)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(pout, "Elided exchange step ") {
					t.Errorf("%s under a parallel config lists no elided exchanges:\n%s", name, pout)
				}
			}
		})
	}
}
