package dbspinner

import (
	"reflect"
	"testing"

	"dbspinner/internal/core"
)

// runCounters lists every counter of core.Stats, the embedded executor
// and machine sets included. Each must be an int64: a field of another
// kind is neither summed by Add nor reachable as a counter here.
func runCounters(t *testing.T) []reflect.StructField {
	t.Helper()
	var out []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(core.Stats{})) {
		switch {
		case f.Type.Kind() == reflect.Int64:
			out = append(out, f)
		case f.Anonymous && f.Type.Kind() == reflect.Struct, f.Name == "Trace":
		default:
			t.Errorf("core.Stats.%s is a %s, not an int64 counter", f.Name, f.Type)
		}
	}
	return out
}

// TestStatsAddSumsEveryCounter: a counter Add forgets is counted by
// every run and lost by every engine.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	counters := runCounters(t)
	var o core.Stats
	for i, f := range counters {
		reflect.ValueOf(&o).Elem().FieldByIndex(f.Index).SetInt(int64(i + 1))
	}
	var s core.Stats
	s.Add(&o)
	s.Add(&o)
	for i, f := range counters {
		if got := reflect.ValueOf(s).FieldByIndex(f.Index).Int(); got != 2*int64(i+1) {
			t.Errorf("Add twice: %s = %d, want %d", f.Name, got, 2*(i+1))
		}
	}
}

// TestEveryRunCounterResolvesThroughCoreStats: each run counter the
// engine reports is core.Stats' own, not an engine field of the same
// name that shadows it.
func TestEveryRunCounterResolvesThroughCoreStats(t *testing.T) {
	embedded, ok := reflect.TypeOf(Stats{}).FieldByName("Stats")
	if !ok || !embedded.Anonymous || embedded.Type != reflect.TypeOf(core.Stats{}) {
		t.Fatal("Stats does not embed core.Stats")
	}
	for _, f := range runCounters(t) {
		got, ok := reflect.TypeOf(Stats{}).FieldByName(f.Name)
		if !ok || got.Index[0] != embedded.Index[0] {
			t.Errorf("Stats.%s does not resolve through the embedded core.Stats", f.Name)
		}
	}
}

// TestIterationsCountEveryLoop: a statement with two loops runs the
// iterations of both.
func TestIterationsCountEveryLoop(t *testing.T) {
	e := New(Config{})
	mustQuery(t, e, `WITH ITERATIVE a (x) AS (SELECT 1 ITERATE SELECT x * 2 FROM a UNTIL 3 ITERATIONS),
	       b (y) AS (SELECT 10 ITERATE SELECT y + 1 FROM b UNTIL 5 ITERATIONS)
	 SELECT a.x, b.y FROM a, b`)
	if got := e.Stats().Iterations; got != 8 {
		t.Errorf("Iterations = %d, want 3 + 5", got)
	}
}

// TestEngineStatsExposeMachineCounters: the machine's counters reach
// Engine.Stats, Fragments and RowsRelocated included.
func TestEngineStatsExposeMachineCounters(t *testing.T) {
	e := New(Config{Partitions: 2, Parallel: true})
	mustExec(t, e, "CREATE TABLE edges (src int, dst int)")
	mustExec(t, e, "INSERT INTO edges VALUES (1,2), (1,3), (2,3), (3,1)")
	mustQuery(t, e, "SELECT a.src, b.dst FROM edges a JOIN edges b ON a.dst = b.src")
	s := e.Stats()
	if s.Fragments == 0 || s.RowsShuffled == 0 || s.RowsRelocated > s.RowsShuffled {
		t.Errorf("Fragments = %d, RowsShuffled = %d, RowsRelocated = %d: want fragments, and relocated rows within the shuffled ones",
			s.Fragments, s.RowsShuffled, s.RowsRelocated)
	}
}
