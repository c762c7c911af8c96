// Query-lifecycle tests: cooperative cancellation, per-query
// deadlines, goroutine hygiene, and the guarantee that a context that
// never fires (and iteration tracing itself) leaves results
// byte-identical. The matrix crosses SSSP and PageRank with
// single-partition vs MPP execution, since each exercises a different
// set of checkpoint sites (step boundaries, partition batches, scan
// strides).
package dbspinner_test

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/workload"
)

// lifecycleGraph is big enough that a 100000-iteration query runs for
// many seconds if nothing stops it, so a ~20ms cancel always lands
// mid-flight.
func lifecycleGraph(t testing.TB) *workload.Graph {
	t.Helper()
	return workload.PreferentialAttachment(500, 4, workload.WeightUnit, 42)
}

func lifecycleEngine(t testing.TB, parts int, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	cfg.Partitions = parts
	e, err := bench.NewEngine(lifecycleGraph(t), bench.Config{Partitions: parts}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// settleGoroutines retries until the goroutine count returns to within
// slack of before, tolerating runtime bookkeeping goroutines; partition
// workers of a canceled batch need a moment to observe the context.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancellation", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type lifecycleCase struct {
	name  string
	sql   string
	parts int
	cfg   dbspinner.Config
}

func lifecycleCases(iterations int) []lifecycleCase {
	queries := []struct {
		name string
		sql  string
	}{
		{"SSSP", bench.SSSPQuery(1, iterations)},
		{"PR", bench.PRQuery(iterations)},
	}
	var cases []lifecycleCase
	for _, q := range queries {
		for _, parts := range []int{1, 4} {
			cases = append(cases, lifecycleCase{
				name:  fmt.Sprintf("%s/parts=%d", q.name, parts),
				sql:   q.sql,
				parts: parts,
				cfg:   dbspinner.Config{Parallel: parts > 1},
			})
		}
	}
	return cases
}

// TestCancelMidIteration cancels a deliberately unbounded query ~20ms
// in and requires a prompt, structured ErrQueryCanceled with no
// goroutines left behind.
func TestCancelMidIteration(t *testing.T) {
	for _, tc := range lifecycleCases(100000) {
		t.Run(tc.name, func(t *testing.T) {
			e := lifecycleEngine(t, tc.parts, tc.cfg)
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := e.QueryContext(ctx, tc.sql)
			elapsed := time.Since(start)
			if !errors.Is(err, dbspinner.ErrQueryCanceled) {
				t.Fatalf("err = %v, want ErrQueryCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not unwrap to context.Canceled", err)
			}
			var le *dbspinner.QueryLifecycleError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v is not a QueryLifecycleError", err)
			}
			if !strings.Contains(err.Error(), "iteration") {
				t.Fatalf("error %q does not name the iteration reached", err)
			}
			// Bounded kill latency: a checkpoint fires within an
			// iteration boundary, partition batch, or scan stride —
			// never after the full 100000-iteration run.
			if elapsed > 10*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestQueryTimeout arms the engine-level deadline knob and requires a
// structured ErrQueryTimeout.
func TestQueryTimeout(t *testing.T) {
	for _, tc := range lifecycleCases(100000) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.QueryTimeout = 25 * time.Millisecond
			e := lifecycleEngine(t, tc.parts, cfg)
			before := runtime.NumGoroutine()
			start := time.Now()
			_, err := e.Query(tc.sql)
			elapsed := time.Since(start)
			if !errors.Is(err, dbspinner.ErrQueryTimeout) {
				t.Fatalf("err = %v, want ErrQueryTimeout", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
			}
			var le *dbspinner.QueryLifecycleError
			if !errors.As(err, &le) {
				t.Fatalf("err = %v is not a QueryLifecycleError", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("deadline enforcement took %v", elapsed)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestExplainAnalyzeHonorsQueryTimeout: EXPLAIN ANALYZE runs the
// statement it explains under Config.QueryTimeout like any query. The
// PageRank loop here finishes in about 1.6 s on a 2-vCPU x86-64 machine
// when nothing stops it, sixty times the deadline, so an EXPLAIN ANALYZE
// that ignored the deadline would return its trace instead of an error.
func TestExplainAnalyzeHonorsQueryTimeout(t *testing.T) {
	e := lifecycleEngine(t, 1, dbspinner.Config{QueryTimeout: 25 * time.Millisecond})
	start := time.Now()
	_, err := e.Explain("EXPLAIN ANALYZE " + bench.PRQuery(10000))
	if !errors.Is(err, dbspinner.ErrQueryTimeout) {
		t.Fatalf("err = %v after %v, want ErrQueryTimeout", err, time.Since(start))
	}
}

// TestCallerDeadlineWinsOverConfig: an explicit context deadline is
// respected even when Config.QueryTimeout is longer — the knob is a
// default, not an override.
func TestCallerDeadlineWinsOverConfig(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true, QueryTimeout: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := e.QueryContext(ctx, bench.SSSPQuery(1, 100000))
	if !errors.Is(err, dbspinner.ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout from caller deadline", err)
	}
}

// TestRecursiveBaseTermHonorsDeadline: the base term of a WITH RECURSIVE
// query, step 1 of its program, polls the deadline like every round
// after it. This one pairs
// 2,000 rows with each other, about four million pairs, and keeps none,
// so the recursion after it has nothing to do: a base term that ignored
// the deadline would run to its end and the query would succeed.
func TestRecursiveBaseTermHonorsDeadline(t *testing.T) {
	e := dbspinner.New(dbspinner.Config{})
	if _, err := e.Exec("CREATE TABLE t (a int)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]dbspinner.Row, 2000)
	for i := range rows {
		rows[i] = dbspinner.Row{dbspinner.NewInt(int64(i))}
	}
	if err := e.BulkInsert("t", rows); err != nil {
		t.Fatal(err)
	}
	const deadline = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := e.QueryContext(ctx, `WITH RECURSIVE r (a) AS (
		SELECT x.a FROM t AS x CROSS JOIN t AS y WHERE x.a + y.a < 0
		UNION
		SELECT a FROM r WHERE a < 0
	) SELECT a FROM r`)
	elapsed := time.Since(start)
	if !errors.Is(err, dbspinner.ErrQueryTimeout) {
		t.Fatalf("err = %v after %v, want ErrQueryTimeout", err, elapsed)
	}
	var le *dbspinner.QueryLifecycleError
	if !errors.As(err, &le) || le.Step != 1 || le.Iteration != 0 {
		t.Fatalf("err = %v is not a QueryLifecycleError of the base term", err)
	}
	if elapsed > 10*deadline {
		t.Errorf("the deadline took %v to stop the base term", elapsed)
	}
	if n := e.LiveResults(); n != 0 {
		t.Errorf("%d intermediate results left", n)
	}
}

// TestPreCanceledContext: a context that is already dead fails fast,
// before any execution work, for both queries and statements.
func TestPreCanceledContext(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := e.QueryContext(ctx, bench.SSSPQuery(1, 100000)); !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("QueryContext err = %v, want ErrQueryCanceled", err)
	}
	if _, err := e.ExecContext(ctx, "INSERT INTO edges VALUES (1, 2, 1.0)"); !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("ExecContext err = %v, want ErrQueryCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled context took %v to fail", elapsed)
	}
}

// TestStatsSurviveFailure: a canceled statement still publishes the
// work it did — Stats must not be zeroed by the error path. The
// cancellation fires at the poll a whole two-iteration run ends at, so
// the run it stops has finished an iteration however slow it runs.
func TestStatsSurviveFailure(t *testing.T) {
	polls := countPolls(t, lifecycleEngine(t, 4, dbspinner.Config{Parallel: true}), bench.PRQuery(2))
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true})
	_, err := e.QueryContext(newPollCtx(polls, context.Canceled), bench.PRQuery(100000))
	if !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("err = %v, want ErrQueryCanceled", err)
	}
	if s := e.Stats(); s.Iterations == 0 {
		t.Fatalf("stats lost on failure: %+v", s)
	}
}

// TestNonFiringContextIsInvisible: running under a cancellable context
// that never fires, with or without tracing, must give byte-identical
// results to the plain path.
func TestNonFiringContextIsInvisible(t *testing.T) {
	for _, q := range []struct {
		name string
		sql  string
	}{
		{"SSSP", bench.SSSPQuery(1, 5)},
		{"PR", bench.PRQuery(5)},
	} {
		t.Run(q.name, func(t *testing.T) {
			base := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true})
			want, err := base.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for _, variant := range []struct {
				name string
				cfg  dbspinner.Config
			}{
				{"context", dbspinner.Config{Parallel: true}},
				{"traced", dbspinner.Config{Parallel: true, TraceIterations: true}},
				{"timeout", dbspinner.Config{Parallel: true, QueryTimeout: time.Hour}},
			} {
				e := lifecycleEngine(t, 4, variant.cfg)
				got, err := e.QueryContext(ctx, q.sql)
				if err != nil {
					t.Fatalf("%s: %v", variant.name, err)
				}
				if fmt.Sprint(resultRows(want)) != fmt.Sprint(resultRows(got)) {
					t.Fatalf("%s: results diverge from plain run", variant.name)
				}
				if variant.cfg.TraceIterations {
					tr := e.Stats().Trace
					if tr == nil || len(tr.Spans) != 5 {
						t.Fatalf("traced run has trace %+v, want 5 spans", tr)
					}
				}
			}
		})
	}
}

// TestCancelLeavesNoAccumulatorState: a mid-iteration cancel must leak
// neither what a loop keeps across the back-edge — its per-run state and
// the keyed merge's key index of the table it last produced (SSSP) — nor
// any intermediate result in the engine's result store: the steps that
// clear them never run on the error path, so the run-end cleanup has to.
// The canceled run must have completed a back-edge, so that there was
// loop state to leak. A retried query on the same engine must then be
// byte-identical to a fresh engine's answer.
func TestCancelLeavesNoAccumulatorState(t *testing.T) {
	for _, q := range []struct {
		name      string
		unbounded string
		bounded   string
		engaged   func(dbspinner.Stats) bool
	}{
		{"PR", bench.PRQuery(100000), bench.PRQuery(10),
			func(s dbspinner.Stats) bool { return s.Iterations >= 2 }},
		{"SSSP", bench.SSSPQuery(1, 100000), bench.SSSPQuery(1, 10),
			func(s dbspinner.Stats) bool { return s.Iterations >= 2 }},
	} {
		t.Run(q.name, func(t *testing.T) {
			cfg := dbspinner.Config{}
			e := lifecycleEngine(t, 1, cfg)
			// The canceled run must have taken a back-edge, or the leak
			// check below is vacuous: under the race detector the first
			// iterations can outlast a short delay, so cancel later until
			// one has finished.
			for _, delay := range []time.Duration{20 * time.Millisecond, 200 * time.Millisecond, 2 * time.Second} {
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(delay, cancel)
				_, err := e.QueryContext(ctx, q.unbounded)
				timer.Stop()
				cancel()
				if !errors.Is(err, dbspinner.ErrQueryCanceled) {
					t.Fatalf("err = %v, want ErrQueryCanceled", err)
				}
				if q.engaged(e.Stats()) {
					break
				}
			}
			if !q.engaged(e.Stats()) {
				t.Fatal("canceled run never took a back-edge")
			}
			if n := e.LiveResults(); n != 0 {
				t.Errorf("%d intermediate results survived the cancel", n)
			}
			// Retry on the same engine: parity with a fresh engine
			// catches any loop state that survived the cancel.
			got, err := e.Query(q.bounded)
			if err != nil {
				t.Fatalf("retry after cancel: %v", err)
			}
			want, err := lifecycleEngine(t, 1, cfg).Query(q.bounded)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
				t.Fatal("retry after cancel diverges from a fresh engine: state leaked across the cancel")
			}
		})
	}
}

// TestExecScriptContext: scripts honor cancellation at statement
// boundaries, and each statement runs under its own
// Config.QueryTimeout window — a fast statement succeeds before an
// unbounded one times out.
func TestExecScriptContext(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true, QueryTimeout: 25 * time.Millisecond})
	start := time.Now()
	err := e.ExecScriptContext(context.Background(),
		"INSERT INTO edges VALUES (991, 992, 1.0); "+bench.SSSPQuery(1, 100000))
	if !errors.Is(err, dbspinner.ErrQueryTimeout) {
		t.Fatalf("err = %v, want ErrQueryTimeout from the unbounded statement", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("script deadline enforcement took %v", elapsed)
	}
	// The first statement committed before the second timed out.
	n, err := e.TableRowCount("edges")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("fast statement did not run")
	}
	// A pre-canceled context stops the script before any statement.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.ExecScriptContext(ctx, "INSERT INTO edges VALUES (993, 994, 1.0)"); !errors.Is(err, dbspinner.ErrQueryCanceled) {
		t.Fatalf("pre-canceled script err = %v, want ErrQueryCanceled", err)
	}
	// A bounded script under a generous timeout runs to completion.
	if err := e.ExecScriptContext(context.Background(),
		"INSERT INTO edges VALUES (995, 996, 1.0); SELECT src FROM edges WHERE src = 995"); err != nil {
		t.Fatalf("bounded script failed: %v", err)
	}
}

func resultRows(r *dbspinner.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	return out
}

// TestExplainAnalyzeReportsExchangeSkew: on the MPP machine every traced
// iteration that routed rows says how evenly its hash exchanges spread
// them, and Stats carries the two counts the ratio is made of.
func TestExplainAnalyzeReportsExchangeSkew(t *testing.T) {
	const parts = 2
	e := lifecycleEngine(t, parts, dbspinner.Config{Parallel: true})
	out, err := e.Explain("EXPLAIN ANALYZE " + bench.PRQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`Iteration (\d): [^\n]*indexed \d+\. Exchange skew (\d\.\d\d)\.\n`)
	lines := line.FindAllStringSubmatch(out, -1)
	if len(lines) != 3 {
		t.Fatalf("EXPLAIN ANALYZE reports the exchange skew of %d iterations, want 3:\n%s", len(lines), out)
	}
	for _, m := range lines {
		if skew, _ := strconv.ParseFloat(m[2], 64); skew < 1 || skew > parts {
			t.Errorf("iteration %s: exchange skew %s outside [1, %d]", m[1], m[2], parts)
		}
	}
	st := e.Stats()
	if st.RowsRouted == 0 || st.RowsRouted > st.RowsShuffled || st.RowsToBusiest*parts < st.RowsRouted || st.RowsToBusiest > st.RowsRouted {
		t.Errorf("RowsShuffled %d, RowsRouted %d, RowsToBusiest %d", st.RowsShuffled, st.RowsRouted, st.RowsToBusiest)
	}
	// Without the machine nothing is routed and the line ends as before.
	serial, err := lifecycleEngine(t, parts, dbspinner.Config{}).Explain("EXPLAIN ANALYZE " + bench.PRQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(serial, "Exchange skew") {
		t.Errorf("a volcano run reports an exchange skew:\n%s", serial)
	}
}

// TestExplainAnalyzeTrace: EXPLAIN ANALYZE on an iterative query must
// print per-iteration wall-clock, row, and frontier lines plus a
// total.
func TestExplainAnalyzeTrace(t *testing.T) {
	e := lifecycleEngine(t, 4, dbspinner.Config{Parallel: true})
	out, err := e.Explain("EXPLAIN ANALYZE " + bench.PRQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	iterLine := regexp.MustCompile(`Iteration 1: \S+ wall, \d+ rows, frontier \d+, scanned \d+, indexed \d+\.`)
	if !iterLine.MatchString(out) {
		t.Fatalf("EXPLAIN ANALYZE missing per-iteration line:\n%s", out)
	}
	for i := 1; i <= 3; i++ {
		if !strings.Contains(out, fmt.Sprintf("Iteration %d:", i)) {
			t.Fatalf("EXPLAIN ANALYZE missing iteration %d:\n%s", i, out)
		}
	}
	if !strings.Contains(out, "Total:") {
		t.Fatalf("EXPLAIN ANALYZE missing Total line:\n%s", out)
	}
	if !strings.Contains(out, "Step 1 timing:") {
		t.Fatalf("EXPLAIN ANALYZE missing step timings:\n%s", out)
	}
	// Plain EXPLAIN must stay trace-free.
	plain, err := e.Explain(bench.PRQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "Iteration 1:") {
		t.Fatalf("plain EXPLAIN leaked trace output:\n%s", plain)
	}
}
