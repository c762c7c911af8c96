package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny returns a config small enough for unit tests.
func tiny() Config {
	return Config{Preset: "dblp-small", Nodes: 300, Iterations: 3, Reps: 1, Partitions: 2}
}

func TestTableIExperiment(t *testing.T) {
	exp, err := TableI(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Step 1: Materialize PageRank", "Rename", "Go to step"} {
		if !strings.Contains(exp.Notes, frag) {
			t.Errorf("Table I missing %q:\n%s", frag, exp.Notes)
		}
	}
}

func TestFig8Experiment(t *testing.T) {
	exp, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 2 {
		t.Fatalf("rows = %d", len(exp.Rows))
	}
	if exp.Rows[0][0] != "FF" || exp.Rows[1][0] != "PR" {
		t.Errorf("rows = %v", exp.Rows)
	}
}

func TestFig9Experiment(t *testing.T) {
	cfg := tiny()
	exp, err := Fig9(cfg, []string{"dblp-small"})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 2 {
		t.Fatalf("rows = %v", exp.Rows)
	}
}

func TestFig10Experiment(t *testing.T) {
	exp, err := Fig10(tiny(), []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 2 {
		t.Fatalf("rows = %v", exp.Rows)
	}
	if !strings.Contains(exp.Rows[0][0], "50%") {
		t.Errorf("selectivity label: %v", exp.Rows[0])
	}
}

func TestFig11Experiment(t *testing.T) {
	exp, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 3 {
		t.Fatalf("rows = %v", exp.Rows)
	}
	names := []string{"PR-VS", "SSSP-VS", "FF (50%)"}
	for i, n := range names {
		if exp.Rows[i][0] != n {
			t.Errorf("row %d = %v", i, exp.Rows[i])
		}
	}
}

func TestMiddlewareExperiment(t *testing.T) {
	exp, err := MiddlewareAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 2 {
		t.Fatalf("rows = %v", exp.Rows)
	}
	stmts, err := strconv.Atoi(exp.Rows[0][2])
	if err != nil || stmts == 0 {
		t.Errorf("middleware statements = %v", exp.Rows[0])
	}
	if exp.Rows[1][2] != "0" {
		t.Errorf("native CTE should execute zero DML statements: %v", exp.Rows[1])
	}
}

func TestParallelScalingExperiment(t *testing.T) {
	exp, err := ParallelScaling(tiny(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 2 {
		t.Fatalf("rows = %v", exp.Rows)
	}
}

// TestIncrementalExperiment cements the incremental-evaluation
// acceptance bar: all four aggregate workloads run byte-identical with
// incremental evaluation on and off (IncrementalComparison errors out
// otherwise, with the dynamic cross-check armed), each through the step
// its shape selects — maintenance on the rename path (PR), the delta
// step on the merge path — and each row's counters agree with its
// per-iteration choices: fewer rows fed than the full plan reads
// exactly when some iteration restricted. PR, SSSP and SSSP-VS must
// restrict somewhere; PR-VS keeps most of its keys changing on this
// graph, so it must choose the full plan in every iteration and feed
// every row. PR's frontier thins slowly (deltas stop propagating only
// where every incoming path has died out), so this runs the full
// default iteration count rather than the short loop the other
// experiment tests use.
func TestIncrementalExperiment(t *testing.T) {
	cfg := tiny()
	cfg.Iterations = 10
	exp, err := IncrementalComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{{"PR", "maintenance", "some"}, {"SSSP", "delta", "some"}, {"PR-VS", "delta", "0 of 9"}, {"SSSP-VS", "delta", "some"}}
	if len(exp.Rows) != len(want) {
		t.Fatalf("rows = %v", exp.Rows)
	}
	for i, row := range exp.Rows {
		if row[0] != want[i][0] || row[4] != want[i][1] {
			t.Errorf("row %d = %v, want %s through the %s step", i, row, want[i][0], want[i][1])
		}
		fed, err1 := strconv.ParseInt(row[5], 10, 64)
		full, err2 := strconv.ParseInt(row[6], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row counters not numeric: %v", row)
		}
		restricted := !strings.HasPrefix(row[7], "0 of ")
		if restricted != (fed < full) {
			t.Errorf("%s: fed %d of %d rows with %s iterations restricted", row[0], fed, full, row[7])
		}
		if restricted != (want[i][2] == "some") || (!restricted && row[7] != want[i][2]) {
			t.Errorf("%s: restricted in %s iterations, want %s", row[0], row[7], want[i][2])
		}
	}
}

// TestFaultToleranceExperiment cements the fault-tolerance acceptance
// bar: checkpointing off/on byte-identical (FaultTolerance errors out
// otherwise), and the deterministically faulted run retries back to
// the same rows, recording at least one retry per scheduled fault.
func TestFaultToleranceExperiment(t *testing.T) {
	exp, err := FaultTolerance(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Rows) != 2 || exp.Rows[0][0] != "PR" || exp.Rows[1][0] != "SSSP" {
		t.Fatalf("rows = %v", exp.Rows)
	}
	for _, row := range exp.Rows {
		retries, err := strconv.ParseInt(row[5], 10, 64)
		if err != nil {
			t.Fatalf("retry counter not numeric: %v", row)
		}
		if retries < 2 {
			t.Errorf("%s: %d retries for a two-fault schedule", row[0], retries)
		}
	}
}

func TestRenderAndMarkdown(t *testing.T) {
	exp := &Experiment{
		ID:      "x",
		Title:   "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "note",
	}
	out := exp.Render()
	for _, frag := range []string{"== x: demo ==", "a", "333", "note", "---"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Render missing %q:\n%s", frag, out)
		}
	}
	md := exp.Markdown()
	for _, frag := range []string{"### x — demo", "| a | b |", "| 333 | 4 |"} {
		if !strings.Contains(md, frag) {
			t.Errorf("Markdown missing %q:\n%s", frag, md)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Preset != "dblp-small" || c.Iterations != 10 || c.Reps != 3 || c.Partitions != 4 || c.AvailFrac != 0.8 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.5 ms" {
		t.Errorf("ms = %q", ms(1500*time.Microsecond))
	}
	if speedup(2*time.Second, time.Second) != "2.00x" {
		t.Error("speedup")
	}
	if improvement(2*time.Second, time.Second) != "50%" {
		t.Error("improvement")
	}
	if speedup(time.Second, 0) != "-" || improvement(0, time.Second) != "-" {
		t.Error("degenerate cases")
	}
}

func TestUnknownPreset(t *testing.T) {
	cfg := tiny()
	cfg.Preset = "nope"
	if _, err := Fig8(cfg); err == nil {
		t.Error("unknown preset should fail")
	}
}

// TestShuffleComparisonExperiment cements the shuffle-elision
// acceptance bar: results byte-identical with elision on and off
// (ShuffleComparison errors out otherwise, with the dynamic
// co-location guard armed), and both VS variants strictly reduce
// rows shuffled.
func TestShuffleComparisonExperiment(t *testing.T) {
	cfg := tiny()
	cfg.Iterations = 5
	exp, err := ShuffleComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"PR", "PR-VS", "SSSP", "SSSP-VS", "FF (50%)"}
	if len(exp.Rows) != len(names) {
		t.Fatalf("rows = %v", exp.Rows)
	}
	for i, row := range exp.Rows {
		if row[0] != names[i] {
			t.Errorf("row %d = %v, want %s", i, row, names[i])
		}
		if names[i] == "PR-VS" || names[i] == "SSSP-VS" {
			elided, err := strconv.Atoi(row[7])
			if err != nil || elided == 0 {
				t.Errorf("%s: no exchanges skipped: %v", names[i], row)
			}
		}
	}
}
