// Oracle tests for the static termination/convergence analysis: every
// workload query of the paper's evaluation must get a proved verdict
// in EXPLAIN (a regression here fails CI), and an adversarial
// oscillating query must be stopped by the planner-installed iteration
// guard with the structured error.
package dbspinner_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
)

// newVerdictEngine loads the small 4-edge graph the engine tests use.
func newVerdictEngine(t *testing.T, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	e := dbspinner.New(cfg)
	for _, sql := range []string{
		"CREATE TABLE edges (src int, dst int, weight float)",
		"INSERT INTO edges VALUES (1,2,0.5), (1,3,0.5), (2,3,1.0), (3,1,1.0)",
		"CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)",
		"INSERT INTO vertexStatus VALUES (1,1), (2,1), (3,1)",
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return e
}

// TestWorkloadQueriesGetProvenVerdicts is the verdict-regression gate:
// every evaluation query (PR, PR-VS, SSSP, SSSP-VS, FF) must EXPLAIN
// with a proved Terminates/Converges verdict and an evidence chain —
// never Unknown — and its prepared program must reproduce its rows
// (preparedParity). On this graph partitioned storage must not show in
// the answer: one and four partitions return the two partitions' rows
// byte for byte.
func TestWorkloadQueriesGetProvenVerdicts(t *testing.T) {
	cfg := dbspinner.Config{Partitions: 2}
	e := newVerdictEngine(t, cfg)
	queries := map[string]string{
		"PR":      bench.PRQuery(10),
		"PR-VS":   bench.PRVSQuery(10),
		"SSSP":    bench.SSSPQuery(1, 10),
		"SSSP-VS": bench.SSSPVSQuery(1, 10),
		"FF":      bench.FFQuery(10, 2),
	}
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			out, err := e.Explain(sql)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "Termination") {
				t.Fatalf("EXPLAIN prints no termination verdict:\n%s", out)
			}
			if strings.Contains(out, ": Unknown") {
				t.Errorf("%s got an Unknown verdict:\n%s", name, out)
			}
			if !strings.Contains(out, ": Terminates") && !strings.Contains(out, ": Converges") {
				t.Errorf("%s verdict is neither Terminates nor Converges:\n%s", name, out)
			}
			if !strings.Contains(out, "evidence [") {
				t.Errorf("%s verdict carries no evidence chain:\n%s", name, out)
			}
			cold, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if d := preparedParity(t, e, func() *dbspinner.Engine { return newVerdictEngine(t, cfg) }, sql, cold); d != "" {
				t.Error(d)
			}
			for _, parts := range []int{1, 4} {
				res, err := newVerdictEngine(t, dbspinner.Config{Partitions: parts}).Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprint(resultRows(res)), fmt.Sprint(resultRows(cold)); got != want {
					t.Errorf("Partitions=%d diverges from Partitions=2:\n got: %s\nwant: %s", parts, got, want)
				}
			}
		})
	}
}

// oscillatingQuery recomputes every value as 1 - partner's value each
// iteration: from (0.0, 0.3) the states alternate (0.7, 1.0) and
// (0.0, 0.3) forever, so DELTA < 1 never fires. The analysis cannot
// prove termination (the value column feeds a frontier-expanding body
// through float arithmetic), so the rewrite must install the cap.
const oscillatingQuery = `WITH ITERATIVE osc (node, val) AS (
	SELECT node, val FROM vals
 ITERATE
	SELECT p.b, 1.0 - o.val FROM osc AS o JOIN pairs AS p ON p.a = o.node
 UNTIL DELTA < 1)
SELECT node, val FROM osc`

func newOscillatingEngine(t *testing.T, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	e := dbspinner.New(cfg)
	for _, sql := range []string{
		"CREATE TABLE vals (node int, val float)",
		"INSERT INTO vals VALUES (1, 0.0), (2, 0.3)",
		"CREATE TABLE pairs (a int, b int)",
		"INSERT INTO pairs VALUES (1, 2), (2, 1)",
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return e
}

func TestOscillatingQueryStoppedByGuard(t *testing.T) {
	e := newOscillatingEngine(t, dbspinner.Config{Partitions: 2, MaxIterations: 25})
	_, err := e.Query(oscillatingQuery)
	if err == nil {
		t.Fatal("oscillating query should hit the iteration cap")
	}
	if !errors.Is(err, dbspinner.ErrIterationCapExceeded) {
		t.Fatalf("error does not wrap ErrIterationCapExceeded: %v", err)
	}
	var capErr *dbspinner.IterationCapError
	if !errors.As(err, &capErr) {
		t.Fatalf("error is not a structured IterationCapError: %v", err)
	}
	if !strings.EqualFold(capErr.CTE, "osc") || capErr.Cap != 25 {
		t.Errorf("cap error fields: CTE=%q Cap=%d, want osc/25", capErr.CTE, capErr.Cap)
	}
	if len(capErr.Diags) == 0 {
		t.Error("cap error carries no analysis diagnostics")
	}
}

func TestOscillatingQueryExplainShowsGuard(t *testing.T) {
	e := newOscillatingEngine(t, dbspinner.Config{Partitions: 2, MaxIterations: 25})
	out, err := e.Explain(oscillatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Termination osc: Unknown") {
		t.Errorf("EXPLAIN does not report the Unknown verdict:\n%s", out)
	}
	if !strings.Contains(out, "guard: fail after 25 iterations with ErrIterationCapExceeded") {
		t.Errorf("EXPLAIN does not report the installed guard:\n%s", out)
	}
	if !strings.Contains(out, "unproved:") {
		t.Errorf("EXPLAIN does not report why termination is unproved:\n%s", out)
	}
}

// TestDefaultCapProtectsByDefault: with no MaxIterations configured the
// default cap still stops the runaway (sized down here only so the test
// does not spin 100000 iterations — the default is exercised by leaving
// Config.MaxIterations zero and checking the explain line).
func TestDefaultCapAdvertisedInExplain(t *testing.T) {
	e := newOscillatingEngine(t, dbspinner.Config{Partitions: 2})
	out, err := e.Explain(oscillatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "guard: fail after 100000 iterations") {
		t.Errorf("default cap not advertised:\n%s", out)
	}
}
