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
