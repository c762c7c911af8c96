// Fault-tolerance tests: deterministic fault injection across every
// registered fault point, panic containment, iteration-granular
// checkpoint/retry and the graceful-degradation ladder. The contract
// under test is the robustness matrix: every fault point × mode ×
// partition count either retries to byte-identical ordered rows or
// fails with a structured provenance error — never a process crash,
// never a leaked goroutine or result slot.
package dbspinner_test

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
)

// faultCfg is the common fault-test configuration: MPP execution when
// partitioned, so partition faults are reachable.
func faultCfg(parts int) dbspinner.Config {
	return dbspinner.Config{Parallel: parts > 1}
}

// exchangeCounts are the Stats counters the MPP machine's exchanges
// feed.
type exchangeCounts struct {
	RowsShuffled, RowsRouted, RowsToBusiest, ShufflesElided, RowsElided int64
}

func exchangesOf(s dbspinner.Stats) exchangeCounts {
	return exchangeCounts{s.RowsShuffled, s.RowsRouted, s.RowsToBusiest, s.ShufflesElided, s.RowsElided}
}

// recordScheduleOnFailure appends the failing fault schedule to
// fault-matrix-failures.txt, which CI uploads as an artifact: the
// schedule is the complete, deterministic reproducer.
func recordScheduleOnFailure(t *testing.T, sched []dbspinner.Fault) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.OpenFile("fault-matrix-failures.txt", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return
		}
		defer f.Close()
		fmt.Fprintf(f, "%s: %s\n", t.Name(), dbspinner.FormatFaultSchedule(sched))
	})
}

// faultModes is the injection-mode axis of the matrix.
var faultModes = []dbspinner.FaultMode{dbspinner.FaultModeError, dbspinner.FaultModePanic}

// TestFaultMatrixRetriesToIdenticalRows injects one fault at every
// registered point, in both modes, at both partition counts, with
// retry armed: the query must succeed with rows byte-identical to an
// unfaulted run, leave zero live result slots and settle its
// goroutines. On the machine the retried run's exchange counters must
// be the unfaulted run's too: the restore rolls back the rows the
// abandoned attempt shuffled, as it rolls back every other counter.
// The query is SSSP and, under the subtests named after them, the
// recursive ones (RecursiveQueries).
func TestFaultMatrixRetriesToIdenticalRows(t *testing.T) {
	queries := map[string]string{"": bench.SSSPQuery(1, 8)}
	for name, sql := range dbspinner.RecursiveQueries() {
		queries[name+"/"] = sql
	}
	for prefix, sql := range queries {
		for _, parts := range []int{1, 4} {
			faultMatrixCells(t, prefix, sql, parts)
		}
	}
}

// faultMatrixCells runs TestFaultMatrixRetriesToIdenticalRows' cells of
// sql at parts partitions, as subtests named prefix+point/mode/parts.
func faultMatrixCells(t *testing.T, prefix, sql string, parts int) {
	clean := lifecycleEngine(t, parts, faultCfg(parts))
	want, err := clean.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	wantExchanges := exchangesOf(clean.Stats())
	for _, point := range dbspinner.FaultPoints() {
		for _, mode := range faultModes {
			t.Run(fmt.Sprintf("%s%s/%s/parts=%d", prefix, point, mode, parts), func(t *testing.T) {
				sched := []dbspinner.Fault{{Point: point, Hit: 2, Mode: mode}}
				recordScheduleOnFailure(t, sched)
				cfg := faultCfg(parts)
				cfg.FaultSchedule = sched
				cfg.MaxRetries = 2
				e := lifecycleEngine(t, parts, cfg)
				before := runtime.NumGoroutine()
				got, err := e.Query(sql)
				if err != nil {
					t.Fatalf("faulted query did not retry to success: %v", err)
				}
				if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
					t.Error("retried query diverges from the unfaulted run")
				}
				// A partition fault needs partitions to fire; every
				// other point is reachable in every configuration, and
				// a fault that fired must have been retried.
				if mustFire := point != "partition" || parts > 1; mustFire && e.Stats().Retries == 0 {
					t.Errorf("fault at %s never caused a retry; the injection never fired", point)
				}
				if parts > 1 {
					if g := exchangesOf(e.Stats()); g != wantExchanges {
						t.Errorf("retried run counts exchanges %+v, the unfaulted run %+v", g, wantExchanges)
					}
				}
				if n := e.LiveResults(); n != 0 {
					t.Errorf("%d intermediate results leaked", n)
				}
				settleGoroutines(t, before)
				// The prepared program retries to the same rows, with
				// its own literals and with another text's.
				if d := preparedParity(t, e, func() *dbspinner.Engine { return lifecycleEngine(t, parts, cfg) }, sql, got); d != "" {
					t.Error(d)
				}
				if n := e.LiveResults(); n != 0 {
					t.Errorf("%d intermediate results leaked by the warm runs", n)
				}
			})
		}
	}
}

// loopWork are the Stats counters a step program's iterations feed.
type loopWork struct {
	Iterations, Renames, MovedRows, CommonBlocks, UpdatedRows int64
	RiFullRows, RiInputRows, AggFullRows, AggInputRows        int64
	MaterializedCells                                         int64
}

func loopWorkOf(s dbspinner.Stats) loopWork {
	return loopWork{s.Iterations, s.Renames, s.MovedRows, s.CommonBlocks, s.UpdatedRows,
		s.RiFullRows, s.RiInputRows, s.AggFullRows, s.AggInputRows, s.MaterializedCells}
}

// spanWork is what one traced iteration did, without its timing and
// without the index work, which a restore's fresh table clones redo.
type spanWork struct {
	Iteration                 int
	Rows, Frontier, Fed, Full int64
	Ri                        string
}

func spanWorkOf(tr *dbspinner.IterationTrace) []spanWork {
	var out []spanWork
	for _, sp := range tr.Spans {
		out = append(out, spanWork{sp.Iteration, sp.Rows, sp.Frontier, sp.Fed, sp.Full, sp.Ri})
	}
	return out
}

// loopStepHit returns the step-fault hit at which sql's one loop step
// runs in the given iteration: the steps in front of the loop body run
// once, then every iteration runs the body, which ends at the loop step.
func loopStepHit(t *testing.T, e *dbspinner.Engine, sql string, iteration int) int {
	t.Helper()
	out, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`Step (\d+): Go to step (\d+) if`).FindAllStringSubmatch(out, -1)
	if len(m) != 1 {
		t.Fatalf("want one loop step, EXPLAIN shows %d:\n%s", len(m), out)
	}
	loop, _ := strconv.Atoi(m[0][1])
	body, _ := strconv.Atoi(m[0][2])
	return body - 1 + iteration*(loop-body+1)
}

// TestFaultMidLoopRetryResumesAtBackEdge injects one step fault in the
// third iteration, at its loop step, after the body has rebound every
// slot it owns: the retry must restore the back-edge checkpoint of
// iteration 2, not the one taken before the first step. Each program
// carries different state across the back-edge: PR's maintenance step
// (the rename, and the snapshot it diffs against on its loop's state),
// SSSP-VS's merge (the change set its delta step restricts by, on the
// loop's state), PR on the copy-back baseline, and the two recursive
// merges (RecursiveQueries): Delta#, the row set a UNION merge keeps
// from round to round, and the working sets a UNION ALL one has seen.
// The retried run must return byte-identical rows, leak no slot, and
// redo the iteration exactly as the unfaulted run did: the same counters
// and, per iteration, the same rows, frontier and choice of Ri. A
// restore that loses loop state can still return the same rows, since
// the restricted steps fall back to reading the whole CTE, so the rows
// alone would not show it.
func TestFaultMidLoopRetryResumesAtBackEdge(t *testing.T) {
	const parts, iteration = 4, 3
	// Four in five vertices available, so SSSP-VS reaches past its source.
	engine := func(cfg dbspinner.Config) *dbspinner.Engine {
		cfg.Partitions = parts
		e, err := bench.NewEngine(lifecycleGraph(t), bench.Config{Partitions: parts, AvailFrac: 0.8}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, c := range []struct {
		name, sql string
		cfg       dbspinner.Config
	}{
		{"PR", bench.PRQuery(6), dbspinner.Config{}},
		{"SSSP-VS", bench.SSSPVSQuery(500, 8), dbspinner.Config{}},
		{"PR-copy-back", bench.PRQuery(6), dbspinner.Config{Baseline: dbspinner.OptRename}},
		{"Reach", dbspinner.RecursiveQueries()["Reach"], dbspinner.Config{}},
		{"Series", dbspinner.RecursiveQueries()["Series"], dbspinner.Config{}},
	} {
		c.cfg.TraceIterations = true
		clean := engine(c.cfg)
		want, err := clean.Query(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		wantWork, wantSpans := loopWorkOf(clean.Stats()), spanWorkOf(clean.Stats().Trace)
		hit := loopStepHit(t, clean, c.sql, iteration)
		for _, mode := range faultModes {
			t.Run(fmt.Sprintf("%s/%s", c.name, mode), func(t *testing.T) {
				sched := []dbspinner.Fault{{Point: "step", Hit: hit, Mode: mode}}
				recordScheduleOnFailure(t, sched)
				cfg := c.cfg
				cfg.FaultSchedule = sched
				cfg.MaxRetries = 2
				e := engine(cfg)
				got, err := e.Query(c.sql)
				if err != nil {
					t.Fatalf("faulted query did not retry to success: %v", err)
				}
				if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
					t.Error("retried query diverges from the unfaulted run")
				}
				s := e.Stats()
				if s.Retries < 1 {
					t.Fatal("the fault never caused a retry")
				}
				if r := s.Trace.Retries[0]; r.Iteration != iteration {
					t.Errorf("the retry re-ran iteration %d, want %d (resumed from the back-edge of iteration %d)", r.Iteration, iteration, iteration-1)
				}
				if g := loopWorkOf(s); g != wantWork {
					t.Errorf("retried run counts %+v, the unfaulted run %+v", g, wantWork)
				}
				if g := spanWorkOf(s.Trace); fmt.Sprint(g) != fmt.Sprint(wantSpans) {
					t.Errorf("retried run's iterations\n  %+v\nthe unfaulted run's\n  %+v", g, wantSpans)
				}
				if n := e.LiveResults(); n != 0 {
					t.Errorf("%d intermediate results leaked", n)
				}
			})
		}
	}
}

// TestFaultInFinalQueryKeepsUnfaultedCounters walks every hit of the
// step, storage and partition points, one error per run, with retries
// armed, until a hit no longer fires: every fault that fires must retry
// to the unfaulted rows and end with the unfaulted run's counters, all
// but Retries and the trace. The last partition hits land inside Qf,
// whose retry restores the newest checkpoint like any step's. The runs
// are partitioned: over one partition a restore's fresh clones are
// indexed anew (DESIGN.md §5i), which this test does not cover. The
// unfaulted run takes no checkpoint, and its machine hands back the CTE
// tables its renames displace: a retried run that recycled less, because
// its checkpoints kept what they captured or because its restore dropped
// the counts of tables the committed iterations freed, reads fewer
// FreedCells, and one that counted the abandoned attempt's tables more.
func TestFaultInFinalQueryKeepsUnfaultedCounters(t *testing.T) {
	const parts = 4
	for name, sql := range map[string]string{"SSSP": bench.SSSPQuery(1, 8), "PR": bench.PRQuery(5)} {
		clean := lifecycleEngine(t, parts, faultCfg(parts))
		want, err := clean.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := clean.Stats()
		if wantStats.FreedCells == 0 {
			t.Fatalf("%s: the unfaulted run freed no cells, so FreedCells shows nothing", name)
		}
		for _, point := range []string{"step", "storage", "partition"} {
			t.Run(name+"/"+point, func(t *testing.T) {
				for hit := 1; ; hit++ {
					sched := []dbspinner.Fault{{Point: point, Hit: hit, Mode: dbspinner.FaultModeError}}
					cfg := faultCfg(parts)
					cfg.FaultSchedule = sched
					cfg.MaxRetries = 2
					e := lifecycleEngine(t, parts, cfg)
					got, err := e.Query(sql)
					if err != nil {
						t.Fatalf("%s: faulted query did not retry to success: %v", dbspinner.FormatFaultSchedule(sched), err)
					}
					s := e.Stats()
					if s.Retries == 0 {
						return // the point has fewer hits: the fault never fired
					}
					if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
						t.Errorf("%s: retried query diverges from the unfaulted run", dbspinner.FormatFaultSchedule(sched))
					}
					if d := countersDiff(s, wantStats); d != "" {
						t.Errorf("%s: retried run counts %s", dbspinner.FormatFaultSchedule(sched), d)
					}
				}
			})
		}
	}
}

// countersDiff lists the counters in which got differs from want, as
// "Name got (want w)", leaving out Retries and Trace.
func countersDiff(got, want dbspinner.Stats) string {
	var out []string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for _, f := range reflect.VisibleFields(g.Type()) {
		if f.Anonymous || f.Name == "Retries" || f.Name == "Trace" {
			continue
		}
		if gv, wv := g.FieldByIndex(f.Index).Interface(), w.FieldByIndex(f.Index).Interface(); gv != wv {
			out = append(out, fmt.Sprintf("%s %v (want %v)", f.Name, gv, wv))
		}
	}
	return strings.Join(out, ", ")
}

// TestFaultWithoutRetryFailsStructured runs the same matrix with
// checkpointing off: the query must fail with the structured sentinel
// of its mode (ErrFaultInjected or ErrInternalPanic) carrying
// provenance, leak nothing, and leave the engine usable.
func TestFaultWithoutRetryFailsStructured(t *testing.T) {
	sql := bench.SSSPQuery(1, 8)
	const parts = 4
	for _, point := range dbspinner.FaultPoints() {
		for _, mode := range faultModes {
			t.Run(fmt.Sprintf("%s/%s", point, mode), func(t *testing.T) {
				sched := []dbspinner.Fault{{Point: point, Hit: 2, Mode: mode}}
				recordScheduleOnFailure(t, sched)
				cfg := faultCfg(parts)
				cfg.FaultSchedule = sched
				e := lifecycleEngine(t, parts, cfg)
				before := runtime.NumGoroutine()
				_, err := e.Query(sql)
				if err == nil {
					t.Fatal("faulted query succeeded with no retry policy; the injection never fired")
				}
				if mode == dbspinner.FaultModeError {
					if !errors.Is(err, dbspinner.ErrFaultInjected) {
						t.Fatalf("err = %v, want ErrFaultInjected", err)
					}
					var fe *dbspinner.FaultInjectedError
					if !errors.As(err, &fe) || fe.Point != point || fe.Hit != 2 {
						t.Fatalf("err = %v does not carry the fired fault's provenance", err)
					}
				} else {
					if !errors.Is(err, dbspinner.ErrInternalPanic) {
						t.Fatalf("err = %v, want ErrInternalPanic", err)
					}
					var pe *dbspinner.InternalPanicError
					if !errors.As(err, &pe) {
						t.Fatalf("err = %v is not an InternalPanicError", err)
					}
					if !strings.Contains(err.Error(), "iteration") {
						t.Fatalf("error %q does not name the iteration reached", err)
					}
					if !strings.Contains(fmt.Sprint(pe.Value), "injected panic") {
						t.Fatalf("contained panic lost its value: %+v", pe.Value)
					}
				}
				if n := e.LiveResults(); n != 0 {
					t.Errorf("%d intermediate results leaked on the failure path", n)
				}
				settleGoroutines(t, before)
				// The engine must survive the contained failure: a plain
				// query on the same engine touches no fault point.
				if _, err := e.Query("SELECT src FROM edges WHERE src = 1"); err != nil {
					t.Fatalf("engine unusable after contained failure: %v", err)
				}
			})
		}
	}
}

// TestDegradationLadderReachesVolcano schedules enough consecutive
// partition panics that the same-plan retries keep failing: the engine
// must descend to volcano execution, the ladder's one rung, and still
// produce byte-identical rows. The final query carries an ORDER BY:
// crossing rungs changes the physical plan, and only an ordered result
// is comparable across plans (the same contract the cross-config
// oracles pin).
func TestDegradationLadderReachesVolcano(t *testing.T) {
	sql := bench.SSSPQuery(1, 8) + " ORDER BY Node"
	want, err := lifecycleEngine(t, 4, faultCfg(4)).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var sched []dbspinner.Fault
	for h := 1; h <= 50; h++ {
		sched = append(sched, dbspinner.Fault{Point: "partition", Hit: h, Mode: dbspinner.FaultModePanic})
	}
	recordScheduleOnFailure(t, sched)
	cfg := faultCfg(4)
	cfg.FaultSchedule = sched
	cfg.MaxRetries = 1
	e := lifecycleEngine(t, 4, cfg)
	before := runtime.NumGoroutine()
	got, err := e.Query(sql)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
		t.Error("degraded query diverges from the unfaulted run")
	}
	s := e.Stats()
	if s.Degradations != 1 {
		t.Errorf("Degradations = %d, want 1 (same plan, then volcano)", s.Degradations)
	}
	if s.Retries == 0 {
		t.Error("degraded run recorded no retries")
	}
	if n := e.LiveResults(); n != 0 {
		t.Errorf("%d intermediate results leaked", n)
	}
	settleGoroutines(t, before)
}

// TestDegradationReachesRestrictedSteps: the volcano rung switches off
// everything that carries state across the back-edge, and on the default
// (volcano) configuration that includes the delta step a merge-path
// query runs through: it restricts Ri by the changed-key set
// the previous merge left in the loop state. Two consecutive step faults
// mid-loop exhaust the one same-plan retry and degrade the run at
// iteration k; iterations before k ran restricted, every iteration from
// k on must read the full CTE (RiInputRows == RiFullRows for those),
// and the rows must match the unfaulted run. Edges point from newer
// vertices to older ones, so the search starts at a late vertex, from
// which the frontier reaches dozens within the iterations; from vertex 1
// it reaches none, and every restricted iteration would feed no row.
func TestDegradationReachesRestrictedSteps(t *testing.T) {
	const iterations, source = 8, 450
	run := func(n int, cfg dbspinner.Config) (*dbspinner.Result, dbspinner.Stats) {
		t.Helper()
		e := lifecycleEngine(t, 4, cfg)
		res, err := e.Query(bench.SSSPVSQuery(source, n) + " ORDER BY Node")
		if err != nil {
			t.Fatalf("%d iterations, %+v: %v", n, cfg, err)
		}
		if n := e.LiveResults(); n != 0 {
			t.Errorf("%d intermediate results leaked", n)
		}
		return res, e.Stats()
	}
	want, clean := run(iterations, dbspinner.Config{})
	if clean.RiInputRows >= clean.RiFullRows {
		t.Fatalf("unfaulted run never restricted Ri (fed %d of %d rows); the test is vacuous", clean.RiInputRows, clean.RiFullRows)
	}
	// The first iteration reads the whole CTE; the restricted ones must
	// feed Ri something too, or checking what they fed proves nothing.
	if first := clean.RiFullRows / iterations; clean.RiInputRows <= first {
		t.Fatalf("the restricted iterations fed Ri no row (%d fed in all, %d of them by the first, full iteration); the test is vacuous", clean.RiInputRows, first)
	}

	sched := []dbspinner.Fault{
		{Point: "step", Hit: 20, Mode: dbspinner.FaultModeError},
		{Point: "step", Hit: 21, Mode: dbspinner.FaultModePanic},
	}
	recordScheduleOnFailure(t, sched)
	got, s := run(iterations, dbspinner.Config{
		FaultSchedule: sched, TraceIterations: true,
		MaxRetries: 1,
	})
	if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
		t.Error("degraded query diverges from the unfaulted run")
	}
	if s.Degradations != 1 || len(s.Trace.Retries) != 2 {
		t.Fatalf("Degradations = %d, retries = %+v; want one rung after two retries", s.Degradations, s.Trace.Retries)
	}
	k := s.Trace.Retries[1].Iteration
	if k < 3 || k >= iterations {
		t.Fatalf("degraded at iteration %d; the schedule must land after a restricted iteration and before the last", k)
	}
	// Iterations 1..k-1 are the unfaulted run's; the rest read everything.
	_, prefix := run(k-1, dbspinner.Config{})
	if wantFed := prefix.RiInputRows + (clean.RiFullRows - prefix.RiFullRows); s.RiFullRows != clean.RiFullRows || s.RiInputRows != wantFed {
		t.Errorf("degraded at iteration %d: Ri fed %d of %d rows, want %d of %d (full scans from the degradation on)",
			k, s.RiInputRows, s.RiFullRows, wantFed, clean.RiFullRows)
	}
	// The trace says the same per iteration, and says why: the abandoned
	// attempts' decisions were rewound with their spans.
	for _, sp := range s.Trace.Spans {
		if degraded := sp.Ri == "full: degraded"; degraded != (sp.Iteration >= k) || (degraded && sp.Fed != sp.Full) {
			t.Errorf("iteration %d (degraded at %d): fed %d of %d (%s)", sp.Iteration, k, sp.Fed, sp.Full, sp.Ri)
		}
	}
}

// TestFaultScheduleRoundTrip pins the textual schedule format the CI
// artifact and ParseFaultSchedule share.
func TestFaultScheduleRoundTrip(t *testing.T) {
	text := "step@3:error,partition@2:panic,storage@5:error"
	sched, err := dbspinner.ParseFaultSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := dbspinner.FormatFaultSchedule(sched); got != text {
		t.Fatalf("round trip = %q, want %q", got, text)
	}
	if _, err := dbspinner.ParseFaultSchedule("bogus@1:error"); err == nil {
		t.Fatal("unknown fault point accepted")
	}
}

// TestCheckpointOverheadIsInvisible: checkpointing armed but never
// exercised (no faults) must not change results.
func TestCheckpointOverheadIsInvisible(t *testing.T) {
	for _, q := range []struct {
		name string
		sql  string
	}{
		{"SSSP", bench.SSSPQuery(1, 5)},
		{"PR", bench.PRQuery(5)},
	} {
		t.Run(q.name, func(t *testing.T) {
			want, err := lifecycleEngine(t, 4, faultCfg(4)).Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			cfg := faultCfg(4)
			cfg.MaxRetries = 3
			e := lifecycleEngine(t, 4, cfg)
			got, err := e.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
				t.Error("checkpointed run diverges from the plain run")
			}
			if s := e.Stats(); s.Retries != 0 || s.Degradations != 0 {
				t.Errorf("unfaulted run recorded retries: %+v", s)
			}
		})
	}
}
