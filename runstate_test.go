package dbspinner_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbspinner"
	"dbspinner/internal/bench"
)

// The run state a prepared statement carries from one run to the next
// (core.RunState): storage and size hints only, handed back by clean runs
// alone, and gone with the statement.

// runStateConfigs are the executors a run state serves: volcano, and the
// MPP machine, whose exchange sites it carries too.
var runStateConfigs = []struct {
	name string
	cfg  dbspinner.Config
}{
	{"volcano", dbspinner.Config{Partitions: 2}},
	{"machine", dbspinner.Config{Partitions: 2, Parallel: true}},
}

// runStateQueries are the statements whose runs carry the most: joins
// whose indexes go back, aggregates whose tables do, and a merge. The VS
// variants read edges and vertexStatus only through a filtered join in
// front of the loop; PR and SSSP join edges unfiltered in the loop body,
// an index the memo keeps for the whole run.
var runStateQueries = []struct{ name, sql string }{
	{"PR-VS", bench.PRVSQuery(6)},
	{"SSSP-VS", bench.SSSPVSQuery(1, 6)},
	{"PR", bench.PRQuery(6)},
	{"SSSP", bench.SSSPQuery(1, 6)},
}

// dataChanges change both tables the statements read, in place.
var dataChanges = []string{
	"INSERT INTO edges VALUES (1, 5, 2.5), (5, 1, 0.5), (2, 9, 1.5), (31, 1, 1.0)",
	"UPDATE edges SET weight = weight + 1.5 WHERE src % 3 = 0",
	"DELETE FROM edges WHERE dst % 7 = 0",
	"INSERT INTO vertexStatus VALUES (31, 1)",
	"UPDATE vertexStatus SET status = 1 - status WHERE node % 4 = 0",
	"DELETE FROM vertexStatus WHERE node % 9 = 0",
}

func execAll(t *testing.T, e *dbspinner.Engine, stmts []string) {
	t.Helper()
	for _, sql := range stmts {
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

func queryRows(t *testing.T, e *dbspinner.Engine, sql string) string {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(resultRows(res))
}

// TestPreparedRunsSeeDataChanges runs each statement twice, so that its
// run state holds what a run let go, changes the tables it reads with
// INSERT, UPDATE and DELETE — in place: the catalog keeps the same
// tables — and runs the same text again. The prepared run must return
// what a fresh engine over the changed tables does: nothing a run
// computed from the rows, such as an index of a table whose address did
// not change, may serve the next run.
func TestPreparedRunsSeeDataChanges(t *testing.T) {
	for _, c := range runStateConfigs {
		for _, q := range runStateQueries {
			t.Run(c.name+"/"+q.name, func(t *testing.T) {
				e := newShuffleEngine(t, c.cfg)
				before := queryRows(t, e, q.sql)
				if queryRows(t, e, q.sql) != before {
					t.Fatal("the warm run diverges from the cold one")
				}
				if dbspinner.RunStateOf(e, q.sql) == nil {
					t.Fatal("the statement holds no run state after two clean runs")
				}
				edges, status := dbspinner.CatalogTable(e, "edges"), dbspinner.CatalogTable(e, "vertexStatus")
				execAll(t, e, dataChanges)
				if dbspinner.CatalogTable(e, "edges") != edges || dbspinner.CatalogTable(e, "vertexStatus") != status {
					t.Fatal("the data changes replaced a table; the test needs them made in place")
				}
				hits := e.Stats().PreparedHits
				got := queryRows(t, e, q.sql)
				if e.Stats().PreparedHits != hits+1 {
					t.Fatal("the run after the data changes did not take the prepared program")
				}
				fresh := newShuffleEngine(t, c.cfg)
				execAll(t, fresh, dataChanges)
				want := queryRows(t, fresh, q.sql)
				if want == before {
					t.Fatal("the data changes do not change the answer; the test shows nothing")
				}
				if got != want {
					t.Errorf("the prepared run after the data changes returns\n  %s\na fresh engine\n  %s", got, want)
				}
			})
		}
	}
}

// pollCtx is a context whose Err reports err from its n-th poll on: a
// cancellation or deadline that fires part way into a run, wherever the
// run polls, without a clock.
type pollCtx struct {
	context.Context
	left atomic.Int64
	err  error
	once sync.Once
	done chan struct{}
}

func newPollCtx(n int64, err error) *pollCtx {
	c := &pollCtx{Context: context.Background(), err: err, done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return c.err
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

// Deadline makes a deadline-class context look armed to the engine, which
// then arms no deadline of its own.
func (c *pollCtx) Deadline() (time.Time, bool) {
	if errors.Is(c.err, context.DeadlineExceeded) {
		return time.Now().Add(time.Hour), true
	}
	return time.Time{}, false
}

// countPolls returns how many times a clean run of sql on e polls its
// context.
func countPolls(t *testing.T, e *dbspinner.Engine, sql string) int64 {
	t.Helper()
	const many = 1 << 40
	c := newPollCtx(many, context.Canceled)
	if _, err := e.QueryContext(c, sql); err != nil {
		t.Fatal(err)
	}
	return many - c.left.Load()
}

// failedRun is one way a run of sql on e fails mid-loop, after which
// the statement's runs are clean again.
type failedRun struct {
	name string
	fail func(*testing.T, *dbspinner.Engine, string) error
}

// failedRuns are the fault-matrix cells the clean run follows: a step
// fault at the third iteration's loop step, as an error and as a panic,
// with no retry; a cancellation and a deadline halfway through the run's
// polls.
func failedRuns() []failedRun {
	fault := func(mode dbspinner.FaultMode) failedRun {
		return failedRun{"fault-" + string(mode), func(t *testing.T, e *dbspinner.Engine, sql string) error {
			dbspinner.SetFaultSchedule(e, []dbspinner.Fault{{Point: "step", Hit: loopStepHit(t, e, sql, 3), Mode: mode}})
			defer dbspinner.SetFaultSchedule(e, nil)
			_, err := e.Query(sql)
			return err
		}}
	}
	stop := func(name string, cause error) failedRun {
		return failedRun{name, func(t *testing.T, e *dbspinner.Engine, sql string) error {
			_, err := e.QueryContext(newPollCtx(countPolls(t, e, sql)/2, cause), sql)
			return err
		}}
	}
	return []failedRun{
		fault(dbspinner.FaultModeError), fault(dbspinner.FaultModePanic),
		stop("canceled", context.Canceled), stop("timed-out", context.DeadlineExceeded),
	}
}

// checkFailedRunsCarryNothing runs, for every failed-run cell, configuration
// and statement: two clean runs, the failed one, then a clean run, which
// must return a fresh engine's rows byte for byte — and the statement must
// hold no run state between the failure and the clean run. arm, when set,
// seeds a mutant on each engine. It returns what went wrong, "" when
// nothing did.
func checkFailedRunsCarryNothing(t *testing.T, arm func(*dbspinner.Engine)) string {
	t.Helper()
	for _, f := range failedRuns() {
		for _, c := range runStateConfigs {
			for _, q := range runStateQueries {
				cell := f.name + "/" + c.name + "/" + q.name
				want := queryRows(t, newShuffleEngine(t, c.cfg), q.sql)
				e := newShuffleEngine(t, c.cfg)
				if arm != nil {
					arm(e)
				}
				for i := 0; i < 2; i++ {
					if got := queryRows(t, e, q.sql); got != want {
						return cell + ": a clean run diverges from a fresh engine's"
					}
				}
				if err := f.fail(t, e, q.sql); err == nil {
					t.Fatalf("%s: the run meant to fail succeeded", cell)
				}
				if dbspinner.RunStateOf(e, q.sql) != nil {
					return cell + ": the statement holds a run state after a failed run"
				}
				if got := queryRows(t, e, q.sql); got != want {
					return fmt.Sprintf("%s: the clean run after the failure returns\n  %s\na fresh engine\n  %s", cell, got, want)
				}
				if n := e.LiveResults(); n != 0 {
					return fmt.Sprintf("%s: %d intermediate results leaked", cell, n)
				}
			}
		}
	}
	return ""
}

// TestFailedRunCarriesNothing: a run that fails mid-loop — faulted, with
// an error or a panic, cancelled or timed out — hands back no run state,
// and the clean run after it returns a fresh engine's rows.
func TestFailedRunCarriesNothing(t *testing.T) {
	if d := checkFailedRunsCarryNothing(t, nil); d != "" {
		t.Error(d)
	}
}

// TestFailedRunCarriesNothingCatchesKeptState seeds the mutant that hands
// a statement's run state back after a failed run: the check must see it.
func TestFailedRunCarriesNothingCatchesKeptState(t *testing.T) {
	if checkFailedRunsCarryNothing(t, dbspinner.SeedKeepFailed) == "" {
		t.Error("a statement that keeps its run state after a failed run passes the check")
	}
}

// TestRunStateGoesWithItsStatement: a statement's run state is reachable
// from the statement cache alone. DDL, which empties the cache, and
// eviction, which drops the statement used least recently, leave it to
// the garbage collector, which must then collect it. (A finalizer tells:
// package weak is newer than the go line of go.mod.)
func TestRunStateGoesWithItsStatement(t *testing.T) {
	sql := bench.PRVSQuery(4)
	for _, c := range []struct {
		name string
		drop func(*testing.T, *dbspinner.Engine)
	}{
		{"DDL", func(t *testing.T, e *dbspinner.Engine) {
			execAll(t, e, []string{"CREATE TABLE unrelated (x int)"})
		}},
		{"eviction", func(t *testing.T, e *dbspinner.Engine) {
			for i := 0; i < 64; i++ {
				queryRows(t, e, fmt.Sprintf("SELECT src AS c%d FROM edges WHERE src = 1", i))
			}
		}},
	} {
		for _, rc := range runStateConfigs {
			t.Run(c.name+"/"+rc.name, func(t *testing.T) {
				e := newShuffleEngine(t, rc.cfg)
				queryRows(t, e, sql)
				queryRows(t, e, sql)
				collected := make(chan struct{})
				func() {
					st := dbspinner.RunStateOf(e, sql)
					if st == nil {
						t.Fatal("the statement does not hold a run state; the test shows nothing")
					}
					runtime.SetFinalizer(st, func(any) { close(collected) })
				}()
				c.drop(t, e)
				if dbspinner.RunStateOf(e, sql) != nil {
					t.Fatal("the statement is still cached")
				}
				runtime.GC()
				select {
				case <-collected:
				case <-time.After(5 * time.Second):
					t.Error("the run state outlives its statement")
				}
			})
		}
	}
}
