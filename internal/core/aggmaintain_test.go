package core

import (
	"strings"
	"testing"

	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// TestIncAggOrderingContract pins the contract stated in DESIGN.md §5f:
// the incremental program's output is byte-identical to the full
// plan's — row order and float SUM accumulation order included —
// because the restricted plan re-folds whole groups, never partial
// deltas, and the maintenance splice (PR, rename path) walks the CTE in
// scan order while the merge (SSSP, merge path) keeps every other row
// in place.
func TestIncAggOrderingContract(t *testing.T) {
	queries := map[string]string{
		"PR":   strings.Replace(prQuery, "UNTIL 2 ITERATIONS", "UNTIL 10 ITERATIONS", 1),
		"SSSP": strings.Replace(ssspQuery, "UNTIL 5 ITERATIONS", "UNTIL 10 ITERATIONS", 1),
	}
	for name, sql := range queries {
		t.Run(name, func(t *testing.T) {
			on := DefaultOptions()
			on.Paranoid = true
			off := DefaultOptions()
			off.Baseline = OptIncremental
			gotRows, stats := runIterative(t, newRT(t), sql, on)
			wantRows, _ := runIterative(t, newRT(t), sql, off)
			got, want := rowStrs(gotRows), rowStrs(wantRows)
			if len(got) != len(want) {
				t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("row %d: maintained %q vs full %q", i, got[i], want[i])
				}
			}
			if name == "PR" && stats.AggFullRows == 0 {
				t.Error("the maintenance step never engaged")
			}
			if name == "SSSP" && stats.RiFullRows == 0 {
				t.Error("the delta step never engaged")
			}
		})
	}
}

// idResult is an identity plan over a named intermediate result —
// enough to drive MaintainAggStep's runtime directly, where the plans
// are opaque.
func idResult(name string, schema sqltypes.Schema) *plan.NamedResult {
	cols := make([]plan.ColInfo, len(schema))
	for i, c := range schema {
		cols[i] = plan.ColInfo{Name: c.Name, Type: c.Type}
	}
	return &plan.NamedResult{Name: name, Alias: name, Cols: cols}
}

func kvTable(name string, parts int, kv ...int64) *storage.Table {
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	tb := storage.NewTable(name, schema, parts)
	tb.DistCol = 0
	for i := 0; i < len(kv); i += 2 {
		tb.Insert(sqltypes.Row{sqltypes.NewInt(kv[i]), sqltypes.NewInt(kv[i+1])})
	}
	return tb
}

func maintainFixture() *MaintainAggStep {
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	return &MaintainAggStep{
		Restriction: Restriction{
			Into: "m", Full: idResult("c", schema), Restricted: idResult("AggIn#c", schema),
			In: "AggIn#c", CTE: "c",
		},
		Acc: "Agg#c", Snap: "AggSnap#c",
	}
}

// TestMaintainStepDirect drives the step's runtime paths by hand with
// identity plans: full fold on the first iteration, group-granular
// maintenance on the second, and dynamic fallback when the CTE stops
// being key-identified.
func TestMaintainStepDirect(t *testing.T) {
	rt := newRT(t)
	ctx := &Context{RT: rt, Stats: &Stats{}}
	step := maintainFixture()

	// Missing CTE is an error.
	if err := step.Run(ctx); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing CTE: err = %v", err)
	}

	// First iteration: no accumulator yet, full path.
	rt.Results.Put("c", kvTable("c", 1, 1, 10, 2, 20, 3, 30))
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats.AggFullRows; got != 3 {
		t.Errorf("AggFullRows = %d, want 3", got)
	}
	if got := ctx.Stats.AggInputRows; got != 3 {
		t.Errorf("AggInputRows = %d, want 3 (first iteration is a full fold)", got)
	}
	if rt.Results.Get("Agg#c") == nil || rt.Results.Get("AggSnap#c") == nil {
		t.Fatal("accumulator slots not cached")
	}

	// Second iteration: key 1 changed, keys 2 and 3 must be served from
	// the cache; only the one affected row feeds the restricted plan.
	rt.Results.Put("c", kvTable("c", 1, 1, 11, 2, 20, 3, 30))
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats.AggInputRows; got != 4 {
		t.Errorf("AggInputRows = %d, want 4 (3 full + 1 maintained)", got)
	}
	out := rt.Results.Get("m")
	if out == nil {
		t.Fatal("no output")
	}
	got := make([]string, 0, 3)
	for _, r := range out.AllRows() {
		got = append(got, r.String())
	}
	want := []string{"1, 11", "2, 20", "3, 30"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("maintained output = %v, want %v (CTE scan order)", got, want)
	}
	// The transient restricted input must not outlive the step.
	if rt.Results.Get("AggIn#c") != nil {
		t.Error("AggIn#c leaked past the step")
	}

	// Duplicate keys mean groups are no longer key-identified: the step
	// must fall back to the full plan, not certify a wrong cache.
	rt.Results.Put("c", kvTable("c", 1, 1, 12, 2, 20, 3, 30, 3, 31))
	before := ctx.Stats.AggInputRows
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Stats.AggInputRows - before; got != 4 {
		t.Errorf("fallback fed %d rows, want 4 (the whole CTE)", got)
	}

	if !strings.Contains(step.Explain(), "Maintain aggregates of c into m") {
		t.Errorf("explain = %q", step.Explain())
	}
}

// TestMaintainFallsBackOnDuplicateCachedKeys: a cached output with two
// rows for one key cannot be spliced from, whether the key is affected
// this iteration (its cached rows are not indexed) or served from the
// cache — the step must run the full plan either way.
func TestMaintainFallsBackOnDuplicateCachedKeys(t *testing.T) {
	for _, dupKey := range []int64{1, 2} { // 1 changes below, 2 does not
		rt := newRT(t)
		ctx := &Context{RT: rt, Stats: &Stats{}}
		step := maintainFixture()
		rt.Results.Put("c", kvTable("c", 1, 1, 10, 2, 20, 3, 30))
		if err := step.Run(ctx); err != nil {
			t.Fatal(err)
		}
		rt.Results.Put("Agg#c", kvTable("Agg#c", 1, 1, 10, 2, 20, 3, 30, dupKey, 77))
		rt.Results.Put("c", kvTable("c", 1, 1, 11, 2, 20, 3, 30))
		before := ctx.Stats.AggInputRows
		if err := step.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Stats.AggInputRows - before; got != 3 {
			t.Errorf("duplicate cached key %d: fed %d rows, want 3 (full-plan fallback)", dupKey, got)
		}
	}
}

// TestMaintainCrossCheckCatchesPoisonedAccumulator proves the dynamic
// cross-check (Options.Paranoid) is a real oracle: corrupt
// one cached group between iterations and the next maintained fold
// must fail the query instead of serving the stale row.
func TestMaintainCrossCheckCatchesPoisonedAccumulator(t *testing.T) {
	rt := newRT(t)
	ctx := &Context{RT: rt, Stats: &Stats{}}
	step := maintainFixture()
	step.Check = true

	rt.Results.Put("c", kvTable("c", 1, 1, 10, 2, 20, 3, 30))
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// Poison the cached output for key 2 — the first unaffected key in
	// scan order, which the deterministic sample always covers.
	rt.Results.Put("Agg#c", kvTable("Agg#c", 1, 1, 10, 2, 99, 3, 30))
	rt.Results.Put("c", kvTable("c", 1, 1, 11, 2, 20, 3, 30))
	if err := step.Run(ctx); err == nil || !strings.Contains(err.Error(), "cross-check") {
		t.Fatalf("poisoned accumulator not caught: err = %v", err)
	}

	// Sanity: with the check off, the same poison is served silently —
	// which is exactly why the verifier proves the one-writer rule
	// statically and CI arms the check dynamically.
	step.Check = false
	rt.Results.Put("Agg#c", kvTable("Agg#c", 1, 1, 10, 2, 99, 3, 30))
	rt.Results.Put("AggSnap#c", kvTable("AggSnap#c", 1, 1, 11, 2, 20, 3, 30))
	rt.Results.Put("c", kvTable("c", 1, 1, 12, 2, 20, 3, 30))
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for _, r := range rt.Results.Get("m").AllRows() {
		if r.String() == "2, 99" {
			return
		}
	}
	t.Error("expected the unchecked run to serve the poisoned row (documents what the check defends against)")
}
