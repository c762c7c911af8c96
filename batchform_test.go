package dbspinner

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbspinner/internal/exec"
	"dbspinner/internal/workload"
)

// TestBatchFormMatchesRowAtATime is the end-to-end differential of the
// batch form (internal/exec, batch.go): FF, and small generated CTEs whose
// steps are scans, filters and projects over results of 1,023, 1,024 and
// 1,025 rows, run on two engines, one a row at a time (exec.RowAtATime),
// at partitions 1 to 4 and on the MPP machine at 2 and 4, cold and five
// warm runs each. Every run must return the same rows, cell for cell and
// bit for bit, or fail with the same error text, and leave the engines'
// Stats identical. The generated steps include a project item and a
// filter that each fail on one row, the filter's row before the item's and
// after it. TestMain's poison is armed, so a batch that kept a row of a
// table handed back, or of an exchange's buffers the machine marked free,
// reads it.
func TestBatchFormMatchesRowAtATime(t *testing.T) {
	type query struct{ name, sql string }
	var queries []query
	queries = append(queries, query{"FF", ffSQL(10, 2)})
	rng := rand.New(rand.NewSource(54))
	for _, rows := range []int{1023, 1024, 1025} {
		for i := 0; i < 4; i++ {
			queries = append(queries, query{fmt.Sprintf("generated %d over %d rows", i, rows), generatedBatchCTE(rng, rows)})
		}
		queries = append(queries,
			query{fmt.Sprintf("item fails before filter, %d rows", rows), failingBatchCTE(rows, 400, 900)},
			query{fmt.Sprintf("filter fails before item, %d rows", rows), failingBatchCTE(rows, 900, 400)})
	}
	g := workload.PreferentialAttachment(2100, 3, workload.WeightUnit, 54)
	for _, cfg := range differentialConfigs() {
		batch, rows := batchEngine(t, g, cfg), batchEngine(t, g, cfg)
		for _, q := range queries {
			for run := 0; run < 6; run++ {
				if cfg.Parallel {
					batch.ResetStats()
					rows.ResetStats()
				}
				got, gotErr := batch.Query(q.sql)
				restore := exec.RowAtATime()
				want, wantErr := rows.Query(q.sql)
				restore()
				what := fmt.Sprintf("%s, %d partitions (parallel %v), run %d", q.name, cfg.Partitions, cfg.Parallel, run)
				if cfg.Parallel && gotErr != nil && wantErr != nil {
					// The machine's partitions run side by side, and where two
					// fail on different rows, which failure ends the run first
					// is a matter of timing, in either form, and so are the
					// counters of the partition it cancels.
					if g, w := failedStep(gotErr), failedStep(wantErr); g != w {
						t.Fatalf("%s: failed in %s, row path in %s", what, g, w)
					}
					continue
				}
				if d := resultDiff(got, gotErr, want, wantErr); d != "" {
					t.Fatalf("%s: %s", what, d)
				}
				if gs, ws := batch.Stats(), rows.Stats(); gs != ws {
					t.Fatalf("%s: batch form's Stats\n%+v\nrow path's\n%+v", what, gs, ws)
				}
			}
		}
	}
}

// failedStep is err's text up to its cause: the step it names.
func failedStep(err error) string {
	msg := err.Error()
	if i := strings.LastIndex(msg, "): "); i >= 0 {
		return msg[:i]
	}
	return msg
}

// differentialConfigs are the engines the batch forms' end-to-end
// differentials run on: volcano at 1 to 4 partitions, and the MPP
// machine at 2 and 4.
func differentialConfigs() []Config {
	return []Config{
		{Partitions: 1}, {Partitions: 2}, {Partitions: 3}, {Partitions: 4},
		{Partitions: 2, Parallel: true}, {Partitions: 4, Parallel: true},
	}
}

// batchEngine is an engine under cfg over g's edges and the table t(k,
// a, b, c) of 1,025 rows: k the row's INT id; a an INT, a FLOAT or NULL; b
// a non-zero FLOAT or INT, or NULL; c the FLOAT 1.
func batchEngine(t *testing.T, g *workload.Graph, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	mustExec(t, e, "CREATE TABLE edges (src int, dst int, weight float)")
	if err := e.BulkInsert("edges", workload.EdgeRows(g)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (k int, a int, b float, c float)")
	var rows []Row
	for i := range 1025 {
		a := NewFloat(float64(i) / 3)
		switch {
		case i%7 == 0:
			a = Null
		case i%3 == 0:
			a = NewInt(int64(i))
		}
		b := NewFloat(float64(i%4) + 0.5)
		switch {
		case i%11 == 0:
			b = Null
		case i%2 == 0:
			b = NewInt(int64(i%3 + 1))
		}
		rows = append(rows, Row{NewInt(int64(i)), a, b, NewFloat(1)})
	}
	if err := e.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

// Typed items, items the batch evaluates a row at a time, and filters
// with and without a typed program, over the CTE's columns (k, a, b).
var (
	batchItems = []string{
		"ROUND(CAST((a / b) * a AS FLOAT), 5)",
		"CEILING(a * (1.0 - ((k % 10) / 100.0)))",
		"FLOOR(b * 2.0 - a)",
		"(a + 1.5) * b",
		"COALESCE(a, b)",
	}
	batchFilters = []string{
		"MOD(k, 3) = 0",
		"a * 2.0 > b",
		"a IS NOT NULL",
		"k < 2000",
	}
)

// generatedBatchCTE is a CTE over the first rows rows of t whose
// iterative step is a project of typed and untyped items over a filter,
// and whose final query filters it again — a filter the rewrite may push
// into the base term, over its project.
func generatedBatchCTE(rng *rand.Rand, rows int) string {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	return fmt.Sprintf(`WITH ITERATIVE c (k, a, b) AS (
  SELECT k, %s, b FROM t WHERE k < %d
 ITERATE
  SELECT k, %s, %s FROM c WHERE %s
 UNTIL 3 ITERATIONS)
SELECT k, a, b FROM c WHERE %s ORDER BY k`,
		batchItems[0], rows, pick(batchItems[:4]), pick(batchItems), pick(batchFilters), pick(batchFilters))
}

// failingBatchCTE is a CTE whose iterative step's typed item divides by 0
// at k = itemAt and whose filter fails a cast at k = filterAt.
func failingBatchCTE(rows, itemAt, filterAt int) string {
	return fmt.Sprintf(`WITH ITERATIVE c (k, a, b) AS (
  SELECT k, a, b FROM t WHERE k < %d
 ITERATE
  SELECT k, (a / (k - %d.0)) * a + 1.5, b FROM c
  WHERE CAST(CASE WHEN k = %d THEN 'x' ELSE '1' END AS INT) > -5
 UNTIL 2 ITERATIONS)
SELECT k, a, b FROM c ORDER BY k`, rows, itemAt, filterAt)
}

// resultDiff describes how two query outcomes differ, "" where they do
// not: the error text, the columns, or a cell's tag, payload or float
// bits.
func resultDiff(got *Result, gotErr error, want *Result, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, row path %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case strings.Join(got.Columns, ",") != strings.Join(want.Columns, ","):
		return fmt.Sprintf("columns %v, row path %v", got.Columns, want.Columns)
	case len(got.Rows) != len(want.Rows):
		return fmt.Sprintf("%d rows, row path %d", len(got.Rows), len(want.Rows))
	}
	for i, r := range want.Rows {
		if len(got.Rows[i]) != len(r) {
			return fmt.Sprintf("row %d: %v, row path %v", i, got.Rows[i], r)
		}
		for j, v := range r {
			g := got.Rows[i][j]
			if g.T != v.T || g.I != v.I || g.S != v.S || math.Float64bits(g.F) != math.Float64bits(v.F) {
				return fmt.Sprintf("row %d: %v, row path %v", i, got.Rows[i], r)
			}
		}
	}
	return ""
}
