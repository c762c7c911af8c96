// Oracle tests for the static partition-property analysis and the
// shuffle elision it licenses (internal/distprop): every workload
// query must return byte-identical rows with elision on and off across
// partition counts — with the dynamic co-location cross-check armed —
// and on the vertexStatus variants the elision must actually move
// fewer rows.
package dbspinner_test

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"dbspinner"
)

// newShuffleEngine seeds a deterministic graph large enough that
// exchange savings are measurable: 30 nodes, 3 out-edges per node, a
// status row per node. Everything is generated from the loop index, so
// every run (and every configuration) sees the same data.
func newShuffleEngine(t *testing.T, cfg dbspinner.Config) *dbspinner.Engine {
	t.Helper()
	e := dbspinner.New(cfg)
	const nodes = 30
	var edges, status strings.Builder
	edges.WriteString("INSERT INTO edges VALUES ")
	status.WriteString("INSERT INTO vertexStatus VALUES ")
	first := true
	for i := 1; i <= nodes; i++ {
		for _, j := range []int{i%nodes + 1, (i*7)%nodes + 1, (i*13)%nodes + 1} {
			if j == i {
				j = j%nodes + 1
			}
			if !first {
				edges.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&edges, "(%d,%d,%g)", i, j, float64((i+j)%5+1)/2)
		}
		if i > 1 {
			status.WriteString(", ")
		}
		fmt.Fprintf(&status, "(%d,%d)", i, i%2)
	}
	for _, sql := range []string{
		"CREATE TABLE edges (src int, dst int, weight float)",
		edges.String(),
		"CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)",
		status.String(),
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return e
}

// shuffleRun executes sql on a fresh engine and returns the rendered
// rows plus the engine stats after the query; the statement cache must
// then reproduce the rows (preparedParity).
func shuffleRun(t *testing.T, cfg dbspinner.Config, sql string) (string, dbspinner.Stats) {
	t.Helper()
	e := newShuffleEngine(t, cfg)
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Partitions=%d Parallel=%v Baseline=%06b: %v",
			cfg.Partitions, cfg.Parallel, cfg.Baseline, err)
	}
	stats := e.Stats()
	if d := preparedParity(t, e, func() *dbspinner.Engine { return newShuffleEngine(t, cfg) }, sql, res); d != "" {
		t.Errorf("Partitions=%d Parallel=%v Baseline=%06b: %s",
			cfg.Partitions, cfg.Parallel, cfg.Baseline, d)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%v\n", r)
	}
	return b.String(), stats
}

// TestShuffleElisionParityMatrix is the elision oracle gate: all five
// workload queries, the two recursive ones (RecursiveQueries) and
// three whose rows live in storage (storedRowFinals) x
// elision on/off x partition counts {1, 2, 4} must
// return byte-identical ordered rows, with the dynamic co-location
// check (Config.Paranoid) armed so an unsound elision fails
// the query instead of silently reshaping results. On the vertexStatus
// variants — whose joins and aggregate group on the distribution
// column — elision must strictly reduce RowsShuffled whenever the
// machine actually shuffles (Parallel, parts > 1). CI runs this under
// -race via the root-package coverage in the Makefile.
func TestShuffleElisionParityMatrix(t *testing.T) {
	queries := workloadQueries()
	maps.Copy(queries, dbspinner.RecursiveQueries())
	maps.Copy(queries, storedRowFinals(queries["SSSP"]))
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			for _, parts := range []int{1, 2, 4} {
				on := dbspinner.Config{Partitions: parts, Parallel: true, Paranoid: true}
				off := dbspinner.Config{Partitions: parts, Parallel: true, Baseline: dbspinner.OptShuffleElision}
				gotOn, statsOn := shuffleRun(t, on, sql)
				gotOff, statsOff := shuffleRun(t, off, sql)
				if gotOn != gotOff {
					t.Errorf("parts=%d: elision changes results:\n  on: %s\n off: %s", parts, gotOn, gotOff)
				}
				if parts == 1 {
					if statsOn.ShufflesElided != 0 {
						t.Errorf("parts=1 should never elide (nothing shuffles), got %d", statsOn.ShufflesElided)
					}
					continue
				}
				if !strings.Contains(name, "-VS") {
					continue
				}
				// The VS variants join and group on the distribution
				// column throughout, so the analysis must license real
				// elisions and the machine must move strictly fewer rows.
				if statsOn.ShufflesElided == 0 {
					t.Errorf("parts=%d: no exchanges elided on %s", parts, name)
				}
				if statsOn.RowsShuffled >= statsOff.RowsShuffled {
					t.Errorf("parts=%d: elision does not reduce shuffled rows: on=%d off=%d",
						parts, statsOn.RowsShuffled, statsOff.RowsShuffled)
				}
			}
		})
	}
}

// storedRowFinals are sql, the SSSP workload query, with two finals
// whose rows live in storage the run lets go — a root DISTINCT (its kept
// input rows, on the machine past a full-row exchange into a site) and
// an aggregate under ORDER BY (its group table's cells) — and the same
// DISTINCT as a plain SELECT. A statement's next run may fill such
// storage again, so preparedParity sees a run that hands it back while
// the caller still holds its rows. Only the plain SELECT shows a kept
// exchange site handed back: an iterative statement's first back-edge
// sweeps the final query's carried site before the final query runs,
// and the planner projects every aggregate into new rows.
func storedRowFinals(sql string) map[string]string {
	const final = "SELECT Node, Distance FROM sssp"
	if !strings.HasSuffix(sql, final) {
		panic("storedRowFinals: the query does not end in " + final)
	}
	return map[string]string{
		"SSSP distinct":  strings.Replace(sql, final, "SELECT DISTINCT Distance FROM sssp", 1),
		"SSSP grouped":   strings.Replace(sql, final, "SELECT Distance, COUNT(*) FROM sssp GROUP BY Distance ORDER BY Distance", 1),
		"plain distinct": "SELECT DISTINCT src, dst FROM edges WHERE src > 3",
	}
}

// TestShuffleElisionSavingsFloor pins the headline saving the analysis
// is designed for: on PR-VS and SSSP-VS at 4 partitions, elision cuts
// RowsShuffled by at least 30%.
func TestShuffleElisionSavingsFloor(t *testing.T) {
	queries := workloadQueries()
	for _, name := range []string{"PR-VS", "SSSP-VS"} {
		t.Run(name, func(t *testing.T) {
			sql := queries[name]
			on := dbspinner.Config{Partitions: 4, Parallel: true, Paranoid: true}
			off := dbspinner.Config{Partitions: 4, Parallel: true, Baseline: dbspinner.OptShuffleElision}
			gotOn, statsOn := shuffleRun(t, on, sql)
			gotOff, statsOff := shuffleRun(t, off, sql)
			if gotOn != gotOff {
				t.Fatalf("elision changes results:\n  on: %s\n off: %s", gotOn, gotOff)
			}
			if statsOff.RowsShuffled == 0 {
				t.Fatal("baseline shuffles no rows; the measurement is vacuous")
			}
			saved := float64(statsOff.RowsShuffled-statsOn.RowsShuffled) / float64(statsOff.RowsShuffled)
			t.Logf("%s: RowsShuffled on=%d off=%d (saved %.1f%%); ShufflesElided=%d RowsElided=%d",
				name, statsOn.RowsShuffled, statsOff.RowsShuffled, 100*saved, statsOn.ShufflesElided, statsOn.RowsElided)
			if saved < 0.30 {
				t.Errorf("elision saves only %.1f%% of shuffled rows (want >= 30%%): on=%d off=%d",
					100*saved, statsOn.RowsShuffled, statsOff.RowsShuffled)
			}
		})
	}
}

// TestExecCountersAgreeAcrossExecutors pins that the two executors count
// alike: an MPP fragment is the volcano operators over one partition,
// reading through the same scans and taking join indexes from the same
// memo, so rows scanned, joined, indexed, grouped, fed to aggregates and
// cells read back agree exactly — on PR-VS and SSSP-VS (every build-side
// exchange elided: the build sides are tables read as they stand) and on
// FF (no join), at 2 and 4 partitions. Incremental evaluation is off on
// both sides (the MPP machine runs the full plan either way).
//
// Plain PR is the stated exception: its build side edges is stored by
// src and joined on dst, so the machine re-shuffles it every iteration —
// it reads and indexes the table's rows once per iteration where the
// volcano join indexes the table once per query and reads it no more.
func TestExecCountersAgreeAcrossExecutors(t *testing.T) {
	const iterations = 10 // workloadQueries' iteration count
	queries := workloadQueries()
	for _, name := range []string{"PR-VS", "SSSP-VS", "FF", "PR"} {
		for _, parts := range []int{2, 4} {
			cfg := dbspinner.Config{Partitions: parts, Baseline: dbspinner.OptIncremental}
			_, volcano := shuffleRun(t, cfg, queries[name])
			cfg.Parallel = true
			_, mpp := shuffleRun(t, cfg, queries[name])
			want := volcano.ExecStats
			if name == "PR" {
				e := newShuffleEngine(t, cfg)
				res, err := e.Query("SELECT COUNT(*) FROM edges")
				if err != nil {
					t.Fatal(err)
				}
				reread := (iterations - 1) * res.Rows[0][0].Int()
				want.RowsScanned += reread
				want.RowsIndexed += reread
			}
			if mpp.ExecStats != want {
				t.Errorf("%s parts=%d: MPP counts %+v, want %+v (volcano: %+v)", name, parts, mpp.ExecStats, want, volcano.ExecStats)
			}
			if want.RowsScanned == 0 || name != "FF" && want.RowsIndexed == 0 {
				t.Errorf("%s parts=%d: nothing counted, the comparison is vacuous: %+v", name, parts, want)
			}
		}
	}
}
