package storage_test

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"testing"
	"time"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

// The lifetime of recycled rows, end to end: a table the executor carved
// every row of hands its row chunks back to the run when the store
// releases it unpinned, and the run's next table is carved from them.
// These checks run the workload queries with the chunks poisoned the
// moment they are handed back (sqltypes.Poison), so a reader that kept
// rows of a released table reads <reused> in every run.

func lifetimeEngine(t *testing.T, parts int, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	cfg.Partitions = parts
	g := workload.PreferentialAttachment(200, 3, workload.WeightOutDegree, 7)
	e, err := bench.NewEngine(g, bench.Config{Partitions: parts, AvailFrac: 0.8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// rowsText runs sql on e and returns its rows as text, or the error.
func rowsText(e *dbspinner.Engine, sql string) (string, *dbspinner.Result) {
	res, err := e.Query(sql)
	if err != nil {
		return "error: " + err.Error(), nil
	}
	return resultText(res), res
}

func resultText(res *dbspinner.Result) string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, r.String())
	}
	return fmt.Sprint(out)
}

var lifetimeQueries = []struct {
	name, sql string
	cfg       dbspinner.Config
}{
	{"FF", bench.FFQuery(6, 2), dbspinner.Config{}},
	{"PR", bench.PRQuery(6), dbspinner.Config{}},
	{"PR-VS", bench.PRVSQuery(6), dbspinner.Config{}},
	{"SSSP", bench.SSSPQuery(1, 6), dbspinner.Config{}},
	{"SSSP-VS", bench.SSSPVSQuery(1, 6), dbspinner.Config{}},
	{"PR-copy-back", bench.PRQuery(6), dbspinner.Config{Baseline: dbspinner.OptRename}},
	// A recursive UNION's merge keeps the rows of both its inputs, which
	// it pins.
	{"Reach", `WITH RECURSIVE reach (node) AS (
  SELECT 25 UNION SELECT edges.dst FROM reach JOIN edges ON edges.src = reach.node
) SELECT node FROM reach ORDER BY node`, dbspinner.Config{}},
}

// checkRecycledRowsKeepAnswers runs every lifetime query with arm's
// mutant armed (nil: none) over one and two partitions — cold, then warm
// through the prepared program — and says what differs from the rows an
// unarmed engine returns, "" when nothing does. The cold run's rows must
// still read the same after the warm run, which fills the storage the
// cold one let go.
func checkRecycledRowsKeepAnswers(t *testing.T, arm func() func()) string {
	t.Helper()
	defer sqltypes.Poison()()
	parts := []int{1, 2}
	want := map[string]string{}
	for _, q := range lifetimeQueries {
		for _, p := range parts {
			want[fmt.Sprint(q.name, p)], _ = rowsText(lifetimeEngine(t, p, q.cfg), q.sql)
		}
	}
	if arm != nil {
		defer arm()()
	}
	for _, q := range lifetimeQueries {
		for _, p := range parts {
			cell, want := fmt.Sprintf("%s/parts=%d", q.name, p), want[fmt.Sprint(q.name, p)]
			e := lifetimeEngine(t, p, q.cfg)
			cold, res := rowsText(e, q.sql)
			if cold != want {
				return cell + ": the cold run diverges from an unarmed engine's"
			}
			if warm, _ := rowsText(e, q.sql); warm != want {
				return cell + ": the warm run diverges from an unarmed engine's"
			}
			if res != nil && resultText(res) != cold {
				return cell + ": the warm run wrote into the rows the cold run returned"
			}
		}
	}
	return ""
}

func TestLifetimeRecycledRowsKeepAnswers(t *testing.T) {
	if d := checkRecycledRowsKeepAnswers(t, nil); d != "" {
		t.Error(d)
	}
}

// TestLifetimeCatchesRecycleWithoutPin seeds the release that ignores
// pins: rows a merge put into its output, or Qf into its result, are
// handed back, and the check must see it.
func TestLifetimeCatchesRecycleWithoutPin(t *testing.T) {
	d := checkRecycledRowsKeepAnswers(t, func() func() { return storage.SeedMutant("ignore-pins") })
	if d == "" {
		t.Fatal("recycling rows without the pin check passes the lifetime check")
	}
	t.Log("caught: " + d)
}

// loopStepHit is the step-fault hit at which sql's one loop step runs in
// the given iteration.
func loopStepHit(t *testing.T, e *dbspinner.Engine, sql string, iteration int) int {
	t.Helper()
	out, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`Step (\d+): Go to step (\d+) if`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no loop step in\n%s", out)
	}
	loop, _ := strconv.Atoi(m[1])
	body, _ := strconv.Atoi(m[2])
	return body - 1 + iteration*(loop-body+1)
}

// checkRestoredRowsKeepAnswers faults every lifetime query once, at its
// loop step in the third iteration, with retries armed: the run restores
// the back-edge checkpoint of the second, whose clones share rows with
// the tables the third iteration's steps release. With arm's mutant
// armed (nil: none) the retried rows must be the unfaulted run's; it
// says what differs, "" when nothing does.
func checkRestoredRowsKeepAnswers(t *testing.T, arm func() func()) string {
	t.Helper()
	defer sqltypes.Poison()()
	var want []string
	var faulted []dbspinner.Config
	for _, q := range lifetimeQueries {
		clean := lifetimeEngine(t, 1, q.cfg)
		rows, _ := rowsText(clean, q.sql)
		want = append(want, rows)
		cfg := q.cfg
		cfg.MaxRetries = 2
		cfg.FaultSchedule = []dbspinner.Fault{{Point: "step", Hit: loopStepHit(t, clean, q.sql, 3), Mode: dbspinner.FaultModeError}}
		faulted = append(faulted, cfg)
	}
	if arm != nil {
		defer arm()()
	}
	for i, q := range lifetimeQueries {
		e := lifetimeEngine(t, 1, faulted[i])
		got, _ := rowsText(e, q.sql)
		if got != want[i] {
			return q.name + ": the retried run diverges from the unfaulted one"
		}
		if e.Stats().Retries == 0 {
			t.Fatalf("%s: the fault never caused a retry", q.name)
		}
	}
	return ""
}

func TestLifetimeRestoredRowsKeepAnswers(t *testing.T) {
	if d := checkRestoredRowsKeepAnswers(t, nil); d != "" {
		t.Error(d)
	}
}

// TestLifetimeCatchesUnpinnedClone seeds the clone that does not pin its
// table: the third iteration hands back rows the checkpoint of the
// second shares, and the check must see the restore read them.
func TestLifetimeCatchesUnpinnedClone(t *testing.T) {
	d := checkRestoredRowsKeepAnswers(t, func() func() { return storage.SeedMutant("unpinned-clones") })
	if d == "" {
		t.Fatal("recycling rows a checkpoint's clone shares passes the lifetime check")
	}
	t.Log("caught: " + d)
}

// TestLifetimeLeavesNoHold runs PageRank on the volcano executor and on
// the MPP machine, whose partitions take the run memo's holds
// concurrently, to the end clean, failed at the loop step of its third
// iteration, cancelled while it iterates, and retried from a checkpoint
// after that fault: no hold a reader took — a run memo entry, a
// checkpoint's clone — outlives the run.
func TestLifetimeLeavesNoHold(t *testing.T) {
	defer sqltypes.Poison()()
	sql := bench.PRQuery(6)
	for _, parts := range []int{1, 2} {
		cfg := dbspinner.Config{Parallel: parts > 1}
		fault := []dbspinner.Fault{{Point: "step", Hit: loopStepHit(t, lifetimeEngine(t, parts, cfg), sql, 3), Mode: dbspinner.FaultModeError}}
		failing, retrying := cfg, cfg
		failing.FaultSchedule = fault
		retrying.FaultSchedule, retrying.MaxRetries = fault, 1
		for _, c := range []struct {
			name string
			run  func() error
		}{
			{"clean", func() error { _, err := lifetimeEngine(t, parts, cfg).Query(sql); return err }},
			{"failed", func() error {
				if _, err := lifetimeEngine(t, parts, failing).Query(sql); err == nil {
					return errors.New("the fault did not fail the run")
				}
				return nil
			}},
			{"cancelled", func() error {
				ctx, cancel := context.WithCancel(context.Background())
				defer time.AfterFunc(20*time.Millisecond, cancel).Stop()
				_, err := lifetimeEngine(t, parts, cfg).QueryContext(ctx, bench.PRQuery(100000))
				if !errors.Is(err, dbspinner.ErrQueryCanceled) {
					return fmt.Errorf("err = %v, want ErrQueryCanceled", err)
				}
				return nil
			}},
			{"retried", func() error {
				e := lifetimeEngine(t, parts, retrying)
				if _, err := e.Query(sql); err != nil {
					return err
				}
				if e.Stats().Retries == 0 {
					return errors.New("the fault never caused a retry")
				}
				return nil
			}},
		} {
			before := storage.Outstanding()
			if err := c.run(); err != nil {
				t.Fatalf("parts=%d, %s: %v", parts, c.name, err)
			}
			if n := storage.Outstanding() - before; n != 0 {
				t.Errorf("parts=%d, %s: %d holds outlive the run", parts, c.name, n)
			}
		}
	}
}
