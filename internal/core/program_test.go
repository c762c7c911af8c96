package core

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

func TestMergeStepAppendsRowsWithNewKeys(t *testing.T) {
	rt := newRT(t)
	// The merge is a full outer combination on the key: working rows
	// whose key does not exist in the CTE table are appended (frontier
	// expansion — see DESIGN.md; the paper's cte LEFT JOIN working
	// would silently drop them), existing keys keep update semantics.
	rows, _ := runIterative(t, rt,
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 10
		 ITERATE SELECT k + 1, v + 1 FROM c WHERE k = 1
		 UNTIL 3 ITERATIONS)
		 SELECT k, v FROM c ORDER BY k`, DefaultOptions())
	got := rowStrs(rows)
	if len(got) != 2 || got[0] != "1, 10" || got[1] != "2, 11" {
		t.Errorf("rows = %v (new-key working rows must be appended, original kept)", got)
	}
}

func TestMergeStepDirect(t *testing.T) {
	rt := newRT(t)
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	cte := storage.NewTable("c", schema, 2)
	cte.InsertBatch([]sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(10)},
		{sqltypes.NewInt(2), sqltypes.NewInt(20)},
		{sqltypes.NewInt(3), sqltypes.NewInt(30)},
	})
	work := storage.NewTable("w", schema, 2)
	work.Insert(sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(99)})
	rt.Results.Put("c", cte)
	rt.Results.Put("w", work)

	ctx := &Context{RT: rt, Stats: &Stats{}, parts: 2}
	step := &MergeStep{CTE: "c", Work: "w", Into: "m"}
	if err := step.Run(ctx); err != nil {
		t.Fatal(err)
	}
	m := rt.Results.Get("m")
	if m == nil || m.Len() != 3 {
		t.Fatalf("merged table missing or wrong size")
	}
	byKey := map[int64]int64{}
	for _, r := range m.AllRows() {
		byKey[r[0].Int()] = r[1].Int()
	}
	if byKey[1] != 10 || byKey[2] != 99 || byKey[3] != 30 {
		t.Errorf("merged = %v", byKey)
	}
	if !strings.Contains(step.Explain(), "Merge w into m over c") {
		t.Errorf("explain = %q", step.Explain())
	}
	// Missing inputs are errors.
	if err := (&MergeStep{CTE: "zz", Work: "w", Into: "m"}).Run(ctx); err == nil {
		t.Error("missing cte should fail")
	}
	if err := (&MergeStep{CTE: "c", Work: "zz", Into: "m"}).Run(ctx); err == nil {
		t.Error("missing working table should fail")
	}
	// Duplicate keys in the working table are the §II run-time error. A
	// bound table is frozen, so the slot gets a copy with the extra row.
	work = work.Clone()
	work.Insert(sqltypes.Row{sqltypes.NewInt(2), sqltypes.NewInt(77)})
	rt.Results.Put("w", work)
	if err := step.Run(ctx); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate-key merge should fail, got %v", err)
	}
}

func TestMergePathExplain(t *testing.T) {
	rt := newRT(t)
	stmt, _ := parser.Parse(ssspQuery)
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Explain()
	// SSSP is licensed and on the merge path, so the default options
	// materialize the body from the changed-row frontier.
	wantInOrder := []string{
		"Materialize Intermediate#sssp from the changed-row frontier of sssp",
		"Merge Intermediate#sssp into Merge#sssp over sssp",
		"Rename Merge#sssp to sssp.",
		"Delete tuples from Intermediate#sssp.",
		"Increment loop counter",
	}
	pos := -1
	for _, frag := range wantInOrder {
		p := strings.Index(out, frag)
		if p < 0 {
			t.Errorf("explain missing %q:\n%s", frag, out)
			continue
		}
		if p < pos {
			t.Errorf("fragment %q out of order", frag)
		}
		pos = p
	}
}

func TestCopyBackStepErrors(t *testing.T) {
	rt := newRT(t)
	ctx := &Context{RT: rt, Stats: &Stats{}}
	if err := (&CopyBackStep{From: "missing", To: "alsoMissing"}).Run(ctx); err == nil {
		t.Error("missing source should fail")
	}
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}}
	src := storage.NewTable("s", schema, 1)
	rt.Results.Put("s", src)
	if err := (&CopyBackStep{From: "s", To: "missing"}).Run(ctx); err == nil {
		t.Error("missing destination should fail")
	}
}

func TestRenameStepErrors(t *testing.T) {
	rt := newRT(t)
	ctx := &Context{RT: rt, Stats: &Stats{}}
	if err := (&RenameStep{From: "missing", To: "x"}).Run(ctx); err == nil {
		t.Error("renaming a missing result should fail")
	}
}

func TestProgramStepErrorIncludesStepNumber(t *testing.T) {
	rt := newRT(t)
	prog := &Program{
		Steps:   []Step{&RenameStep{From: "missing", To: "x"}},
		Options: Options{Parts: 1},
	}
	_, err := prog.Run(rt, nil)
	if err == nil || !strings.Contains(err.Error(), "step 1") {
		t.Errorf("error should name the failing step: %v", err)
	}
}

// TestHandBuiltProgramRunsSequentially: a program the rewrite did not
// build runs on the step loop like any other.
func TestHandBuiltProgramRunsSequentially(t *testing.T) {
	rt := newRT(t)
	prog := &Program{
		Options: Options{Parts: 1},
		Steps: []Step{
			&MaterializeStep{Into: "t", Plan: &plan.Scan{Table: "edges", Alias: "edges",
				Cols: []plan.ColInfo{{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}}}},
		},
		Final: namedResult("t", "src", "dst"),
	}
	rows, err := prog.Run(rt, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
}

func mustParse(t *testing.T, sql string) *ast.SelectStmt {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return stmt.(*ast.SelectStmt)
}

func namedResult(name string, cols ...string) *plan.NamedResult {
	ci := make([]plan.ColInfo, len(cols))
	for i, c := range cols {
		ci[i] = plan.ColInfo{Name: c, Type: sqltypes.Int}
	}
	return &plan.NamedResult{Name: name, Alias: name, Cols: ci}
}
