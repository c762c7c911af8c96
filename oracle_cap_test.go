// Oracle tests for the iteration cap every loop carries: the evaluation
// queries agree across partition counts and through their prepared
// programs, a loop that stops by itself past the cap fails at it, a
// declared UNTIL n ITERATIONS never trips it, and an adversarial
// oscillating query is stopped by it with the structured error.
package dbspinner_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
)

// newWorkloadEngine loads the small 4-edge graph the engine tests use.
func newWorkloadEngine(t *testing.T, cfg dbspinner.Config) *dbspinner.Engine {
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

// TestWorkloadQueriesAgreeAcrossPartitions: every evaluation query (PR,
// PR-VS, SSSP, SSSP-VS, FF) must reproduce its rows through its prepared
// program (preparedParity), and on this graph partitioned storage must
// not show in the answer: one and four partitions return the two
// partitions' rows byte for byte.
func TestWorkloadQueriesAgreeAcrossPartitions(t *testing.T) {
	cfg := dbspinner.Config{Partitions: 2}
	e := newWorkloadEngine(t, cfg)
	queries := map[string]string{
		"PR":      bench.PRQuery(10),
		"PR-VS":   bench.PRVSQuery(10),
		"SSSP":    bench.SSSPQuery(1, 10),
		"SSSP-VS": bench.SSSPVSQuery(1, 10),
		"FF":      bench.FFQuery(10, 2),
	}
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			cold, err := e.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if d := preparedParity(t, e, func() *dbspinner.Engine { return newWorkloadEngine(t, cfg) }, sql, cold); d != "" {
				t.Error(d)
			}
			for _, parts := range []int{1, 4} {
				res, err := newWorkloadEngine(t, dbspinner.Config{Partitions: parts}).Query(sql)
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
// (0.0, 0.3) forever, so DELTA < 1 never fires and only the cap stops
// the loop.
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
}

func TestOscillatingQueryExplainShowsGuard(t *testing.T) {
	e := newOscillatingEngine(t, dbspinner.Config{Partitions: 2, MaxIterations: 25})
	out, err := e.Explain(oscillatingQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "guard: fail after 25 iterations.") {
		t.Errorf("EXPLAIN does not report the installed guard:\n%s", out)
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

// capWalk walks a path from node 1 one edge per iteration; the merge
// keeps every node reached. Under UNTIL DELTA < 1 it stops by itself
// once an iteration reaches no new node: after 8 iterations on the
// 7-edge path 1→2→…→8.
const capWalk = `WITH ITERATIVE r (n) AS (SELECT src FROM edges WHERE src = 1
 ITERATE SELECT e.dst FROM r JOIN edges e ON e.src = r.n WHERE r.n > 0
 UNTIL %s) SELECT n FROM r`

// TestEveryLoopIsCapped: every loop carries the iteration cap, whatever
// its condition. Under MaxIterations 3, a walk that would stop by itself
// after 8 iterations fails at the cap, a declared count above the cap
// still runs all its iterations, a recursion that never reaches a fixed
// point fails at the cap, and a cap failure is not retried.
func TestEveryLoopIsCapped(t *testing.T) {
	capped := dbspinner.Config{MaxIterations: 3}
	retried := dbspinner.Config{MaxIterations: 3, RetryPolicy: dbspinner.RetryPolicy{MaxAttempts: 2}}
	for _, c := range []struct {
		name string
		cfg  dbspinner.Config
		sql  string
		want string // the rows; "" when the loop must fail at the cap
	}{
		{"walk stops by itself after the cap", capped, fmt.Sprintf(capWalk, "DELTA < 1"), ""},
		{"declared count above the cap", capped, fmt.Sprintf(capWalk, "5 ITERATIONS"), "[1 2 3 4 5 6]"},
		{"recursion without a fixed point", capped,
			"WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r) SELECT n FROM r", ""},
		{"cap failure under RetryPolicy", retried, fmt.Sprintf(capWalk, "DELTA < 1"), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := dbspinner.New(c.cfg)
			for _, sql := range []string{
				"CREATE TABLE edges (src int, dst int)",
				"INSERT INTO edges VALUES (1,2), (2,3), (3,4), (4,5), (5,6), (6,7), (7,8)",
			} {
				if _, err := e.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			res, err := e.Query(c.sql)
			if c.want != "" {
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(resultRows(res)); got != c.want {
					t.Errorf("rows = %s, want %s", got, c.want)
				}
				return
			}
			var capErr *dbspinner.IterationCapError
			if !errors.As(err, &capErr) || !errors.Is(err, dbspinner.ErrIterationCapExceeded) {
				t.Fatalf("want an iteration-cap failure, got %v", err)
			}
			if capErr.CTE != "r" || capErr.Cap != 3 {
				t.Errorf("cap error fields: CTE=%q Cap=%d, want r/3", capErr.CTE, capErr.Cap)
			}
			if st := e.Stats(); st.Retries != 0 || st.Degradations != 0 {
				t.Errorf("the cap failure was retried: %d retries, %d degradations", st.Retries, st.Degradations)
			}
		})
	}
}
