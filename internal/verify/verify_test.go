package verify

import (
	"fmt"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/core"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// ---------------------------------------------------------------------
// Program construction helpers
// ---------------------------------------------------------------------

func intCols(names ...string) []plan.ColInfo {
	out := make([]plan.ColInfo, len(names))
	for i, n := range names {
		out[i] = plan.ColInfo{Name: n, Type: sqltypes.Int}
	}
	return out
}

// result reads a named intermediate result with int columns.
func result(name string, cols ...string) *plan.NamedResult {
	return &plan.NamedResult{Name: name, Alias: name, Cols: intCols(cols...)}
}

// scan reads a base table with int columns.
func scan(table string, cols ...string) *plan.Scan {
	return &plan.Scan{Table: table, Alias: table, Cols: intCols(cols...)}
}

func metaLoop(cte string, n int64) *core.LoopState {
	return &core.LoopState{Term: ast.Termination{Type: ast.TermMetadata, N: n}, CTEName: cte}
}

// validProgram is the canonical rename-path program of Table I:
//
//	Step 1: Materialize t           (R0)
//	Step 2: Initialize loop
//	Step 3: Materialize Intermediate#t   (Ri)  <- body start
//	Step 4: Rename Intermediate#t to t
//	Step 5: Increment loop counter
//	Step 6: Loop back to step 3
//	Final:  read t
func validProgram() (*core.Program, *core.LoopState) {
	loop := metaLoop("t", 3)
	prog := &core.Program{
		Options: core.Options{Parts: 1},
		Steps: []core.Step{
			&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v")},
			&core.InitLoopStep{Loop: loop},
			&core.MaterializeStep{Into: "Intermediate#t", Plan: result("t", "k", "v"), CountsAsUpdate: true},
			&core.RenameStep{From: "Intermediate#t", To: "t"},
			&core.UpdateLoopStep{Loop: loop},
			&core.LoopStep{Loop: loop, BodyStart: 2},
		},
		Final: result("t", "k", "v"),
	}
	return prog, loop
}

// mergeProgram is the merge-path variant (Algorithm 1 lines 8-10).
func mergeProgram() *core.Program {
	loop := metaLoop("t", 3)
	return &core.Program{
		Options: core.Options{Parts: 1},
		Steps: []core.Step{
			&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v")},
			&core.InitLoopStep{Loop: loop},
			&core.MaterializeStep{Into: "Intermediate#t", Plan: result("t", "k", "v"), CountsAsUpdate: true},
			&core.MergeStep{CTE: "t", Work: "Intermediate#t", Into: "Merge#t"},
			&core.RenameStep{From: "Merge#t", To: "t"},
			&core.TruncateStep{Name: "Intermediate#t"},
			&core.UpdateLoopStep{Loop: loop},
			&core.LoopStep{Loop: loop, BodyStart: 2},
		},
		Final: result("t", "k", "v"),
	}
}

// ---------------------------------------------------------------------
// Valid programs pass
// ---------------------------------------------------------------------

func TestValidRenamePathProgramVerifiesClean(t *testing.T) {
	prog, _ := validProgram()
	if diags := Check(prog, nil); len(diags) != 0 {
		t.Fatalf("valid program rejected: %v", diags)
	}
}

func TestValidMergePathProgramVerifiesClean(t *testing.T) {
	if diags := Check(mergeProgram(), nil); len(diags) != 0 {
		t.Fatalf("valid merge program rejected: %v", diags)
	}
}

// ---------------------------------------------------------------------
// Corrupted programs are rejected (one constructor per class)
// ---------------------------------------------------------------------

func TestRejectsCorruptedPrograms(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *core.Program
		class   string
		step    int // expected 1-based step index of the first diagnostic of class (0: program-level)
		message string
	}{
		{
			name: "jump target outside the program",
			build: func() *core.Program {
				prog, loop := validProgram()
				prog.Steps[5] = &core.LoopStep{Loop: loop, BodyStart: 99}
				return prog
			},
			class: ClassBadJump, step: 6, message: "outside",
		},
		{
			name: "jump target is not backward",
			build: func() *core.Program {
				prog, loop := validProgram()
				prog.Steps[5] = &core.LoopStep{Loop: loop, BodyStart: 5}
				return prog
			},
			class: ClassBadJump, step: 6, message: "not a backward jump",
		},
		{
			name: "jump target re-executes the loop initialization",
			build: func() *core.Program {
				prog, loop := validProgram()
				prog.Steps[5] = &core.LoopStep{Loop: loop, BodyStart: 1}
				return prog
			},
			class: ClassBadJump, step: 6, message: "re-executes the loop initialization",
		},
		{
			name: "loop counter never initialized",
			build: func() *core.Program {
				prog, loop := validProgram()
				prog.Steps[1] = &core.UpdateLoopStep{Loop: loop} // overwrite InitLoopStep
				return prog
			},
			class: ClassBadJump, step: 6, message: "initializes",
		},
		{
			name: "step consumes a result never materialized",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Steps[2] = &core.MaterializeStep{Into: "Intermediate#t", Plan: result("ghost", "k", "v")}
				return prog
			},
			class: ClassUseBeforeMaterialize, step: 3, message: "ghost",
		},
		{
			name: "rename consumes a result never materialized",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Steps[3] = &core.RenameStep{From: "ghost", To: "t"}
				return prog
			},
			class: ClassUseBeforeMaterialize, step: 4, message: "ghost",
		},
		{
			name: "rename replaces a result with an incompatible schema",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Steps[2] = &core.MaterializeStep{Into: "Intermediate#t", Plan: scan("edges", "a", "b", "c")}
				return prog
			},
			class: ClassSchemaMismatch, step: 4, message: "3 columns",
		},
		{
			name: "rename changes a column's type family",
			build: func() *core.Program {
				prog, _ := validProgram()
				cols := []plan.ColInfo{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.String}}
				prog.Steps[2] = &core.MaterializeStep{Into: "Intermediate#t", Plan: &plan.Scan{Table: "edges", Alias: "edges", Cols: cols}}
				return prog
			},
			class: ClassSchemaMismatch, step: 4, message: "VARCHAR",
		},
		{
			name: "data termination reads a dead result",
			build: func() *core.Program {
				prog, loop := validProgram()
				loop.Term = ast.Termination{Type: ast.TermData}
				loop.CondPlan = result("ghost", "matching", "total")
				return prog
			},
			class: ClassDeadTermination, step: 6, message: "ghost",
		},
		{
			name: "delta termination compares a dead result",
			build: func() *core.Program {
				prog, loop := validProgram()
				loop.Term = ast.Termination{Type: ast.TermDelta, N: 1}
				loop.CTEName = "ghost"
				return prog
			},
			class: ClassDeadTermination, step: 2, message: "ghost",
		},
		{
			name: "loop-body result leaks past the program end",
			build: func() *core.Program {
				loop := metaLoop("t", 3)
				return &core.Program{
					Options: core.Options{Parts: 1},
					Steps: []core.Step{
						&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v")},
						&core.InitLoopStep{Loop: loop},
						&core.MaterializeStep{Into: "Intermediate#t", Plan: result("t", "k", "v")},
						// The per-iteration scratch result is never renamed,
						// merged or dropped.
						&core.MaterializeStep{Into: "Scratch#t", Plan: result("t", "k", "v")},
						&core.RenameStep{From: "Intermediate#t", To: "t"},
						&core.UpdateLoopStep{Loop: loop},
						&core.LoopStep{Loop: loop, BodyStart: 2},
					},
					Final: result("t", "k", "v"),
				}
			},
			class: ClassLeak, step: 4, message: "Scratch#t",
		},
		{
			name: "final query reads a result the steps never leave behind",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Final = result("ghost", "k", "v")
				return prog
			},
			class: ClassUseBeforeMaterialize, step: 0, message: "final query",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := Check(tc.build(), nil)
			if len(diags) == 0 {
				t.Fatalf("corrupted program verified clean")
			}
			var hit *Diagnostic
			for i := range diags {
				if diags[i].Class == tc.class {
					hit = &diags[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %s diagnostic, got: %v", tc.class, diags)
			}
			if hit.Step != tc.step {
				t.Errorf("diagnostic cites step %d, want %d: %s", hit.Step, tc.step, hit)
			}
			if !strings.Contains(hit.Message, tc.message) {
				t.Errorf("diagnostic %q does not mention %q", hit.Message, tc.message)
			}
		})
	}
}

// TestSecondIterationFaultDetected: the body renames the CTE away and
// nothing re-materializes it, so the first iteration succeeds and the
// second crashes — only the loop re-entry pass can see it.
func TestSecondIterationFaultDetected(t *testing.T) {
	loop := metaLoop("t", 3)
	prog := &core.Program{
		Options: core.Options{Parts: 1},
		Steps: []core.Step{
			&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v")},
			&core.InitLoopStep{Loop: loop},
			&core.RenameStep{From: "t", To: "u"},
			&core.UpdateLoopStep{Loop: loop},
			&core.LoopStep{Loop: loop, BodyStart: 2},
		},
		Final: result("u", "k", "v"),
	}
	diags := Check(prog, nil)
	found := false
	for _, d := range diags {
		if d.Class == ClassUseBeforeMaterialize && d.Step == 3 && strings.Contains(d.Message, "re-entry") {
			found = true
		}
	}
	if !found {
		t.Fatalf("second-iteration rename fault not detected: %v", diags)
	}
}

// ---------------------------------------------------------------------
// Push-down re-check
// ---------------------------------------------------------------------

func parseStmt(t *testing.T, sql string) *ast.SelectStmt {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return stmt.(*ast.SelectStmt)
}

const pushQuery = `WITH ITERATIVE c (k, v) AS (
	SELECT src, dst FROM edges
 ITERATE SELECT k, v + 1 FROM c
 UNTIL 3 ITERATIONS)
SELECT k, v FROM c WHERE k = 1`

func TestUnsafePushdownRejected(t *testing.T) {
	cases := []struct {
		name string
		sql  string // "" means no statement available
		conj ast.Expr
		why  string
	}{
		{
			name: "no statement to re-check against",
			conj: &ast.ColumnRef{Name: "k"},
			why:  "no source statement",
		},
		{
			name: "statement has no such iterative CTE",
			sql:  strings.Replace(pushQuery, "ITERATIVE c ", "ITERATIVE d ", 1),
			conj: &ast.ColumnRef{Name: "k"},
			why:  "no iterative CTE",
		},
		{
			name: "updates termination observes per-iteration counts",
			sql:  strings.Replace(pushQuery, "UNTIL 3 ITERATIONS", "UNTIL 3 UPDATES", 1),
			conj: &ast.ColumnRef{Name: "k"},
			why:  "UPDATES",
		},
		{
			name: "data termination observes the filtered rows",
			sql:  strings.Replace(pushQuery, "UNTIL 3 ITERATIONS", "UNTIL ANY (v >= 4)", 1),
			conj: &ast.ColumnRef{Name: "k"},
			why:  "termination condition inspects the CTE data",
		},
		{
			name: "predicate references a varying column",
			sql:  pushQuery,
			conj: &ast.ColumnRef{Name: "v"},
			why:  "rewritten by the iterative part",
		},
		{
			name: "predicate qualifier is not the CTE",
			sql:  pushQuery,
			conj: &ast.ColumnRef{Table: "edges", Name: "src"},
			why:  "does not belong to the CTE",
		},
		{
			name: "iterative part joins another table",
			sql: strings.Replace(pushQuery, "ITERATE SELECT k, v + 1 FROM c",
				"ITERATE SELECT k, MIN(v) FROM c GROUP BY k", 1),
			conj: &ast.ColumnRef{Name: "k"},
			why:  "groups",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, _ := validProgram()
			prog.Pushed = []core.PushedPredicate{{CTE: "c", Conj: tc.conj}}
			var stmt *ast.SelectStmt
			if tc.sql != "" {
				stmt = parseStmt(t, tc.sql)
			}
			diags := Check(prog, stmt)
			var hit *Diagnostic
			for i := range diags {
				if diags[i].Class == ClassUnsafePush {
					hit = &diags[i]
				}
			}
			if hit == nil {
				t.Fatalf("unsafe push not rejected: %v", diags)
			}
			if !strings.Contains(hit.Message, tc.why) {
				t.Errorf("diagnostic %q does not mention %q", hit.Message, tc.why)
			}
		})
	}
}

func TestSafePushdownAccepted(t *testing.T) {
	prog, _ := validProgram()
	prog.Pushed = []core.PushedPredicate{{CTE: "c", Conj: &ast.ColumnRef{Name: "k"}}}
	if diags := Check(prog, parseStmt(t, pushQuery)); len(diags) != 0 {
		t.Fatalf("safe push rejected: %v", diags)
	}
}

// ---------------------------------------------------------------------
// Corpus: everything the real rewrite produces verifies clean
// ---------------------------------------------------------------------

// newRT builds a runtime with the small weighted graph the core tests
// use.
func newRT(t *testing.T) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(2)
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int},
		{Name: "dst", Type: sqltypes.Int},
		{Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		s, d int64
		w    float64
	}{{1, 2, 0.5}, {1, 3, 0.5}, {2, 3, 1.0}, {3, 1, 1.0}} {
		edges.Insert(sqltypes.Row{sqltypes.NewInt(e.s), sqltypes.NewInt(e.d), sqltypes.NewFloat(e.w)})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

func TestRewrittenProgramsVerifyClean(t *testing.T) {
	base := core.DefaultOptions()
	copyBack := base
	copyBack.Baseline = core.OptRename
	parted := base
	parted.Parts = 2

	cases := []struct {
		name string
		sql  string
		opts core.Options
	}{
		{"rename path, iterations", `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 5 ITERATIONS) SELECT i FROM c`, base},
		{"copy-back baseline", `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 5 ITERATIONS) SELECT i FROM c`, copyBack},
		{"updates termination", `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL 3 UPDATES) SELECT i FROM c`, base},
		{"data termination", `WITH ITERATIVE c (i) AS (SELECT 0 ITERATE SELECT i + 1 FROM c UNTIL ANY (i >= 4)) SELECT i FROM c`, base},
		{"delta termination", `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v FROM c UNTIL DELTA < 1) SELECT k, v FROM c`, base},
		{"merge path", `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c WHERE k = 1 UNTIL 2 ITERATIONS) SELECT k FROM c`, base},
		{"partitioned", `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 2 ITERATIONS) SELECT k FROM c`, parted},
		{"two iterative CTEs", `WITH ITERATIVE a (x) AS (SELECT 1 ITERATE SELECT x * 2 FROM a UNTIL 3 ITERATIONS),
			b (y) AS (SELECT 10 ITERATE SELECT y + 1 FROM b UNTIL 2 ITERATIONS)
			SELECT x, y FROM a, b`, base},
		{"pushdown eligible", `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 2 ITERATIONS) SELECT k FROM c WHERE k = 1`, base},
		{"delta iteration, identity route", `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c WHERE k = 1 UNTIL 2 ITERATIONS) SELECT k FROM c`, base},
		{"delta iteration, propagation route", `WITH ITERATIVE s (node, dist) AS (
			SELECT src, src + 0.0 FROM edges
		 ITERATE SELECT s.node, MIN(n.dist + e.weight)
		  FROM s LEFT JOIN edges AS e ON s.node = e.dst
		    LEFT JOIN s AS n ON n.node = e.src
		  WHERE e.weight < 10 GROUP BY s.node
		 UNTIL 2 ITERATIONS) SELECT node FROM s`, base},
		{"delta iteration, partitioned", `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c WHERE k = 1 UNTIL 2 ITERATIONS) SELECT k FROM c`, parted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t)
			stmt := parseStmt(t, tc.sql)
			// Options.Verify is on: Rewrite itself runs the registered
			// verifier, so success here is the end-to-end check.
			if !tc.opts.Verify {
				t.Fatal("corpus must run with verification enabled")
			}
			prog, err := core.Rewrite(stmt, rt, tc.opts)
			if err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			// And once more directly, to assert zero diagnostics.
			if diags := Check(prog, stmt); len(diags) != 0 {
				t.Errorf("rewritten program rejected: %v", diags)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Premature truncation
// ---------------------------------------------------------------------

// TestRejectsPrematureTruncation: hand-built programs (no optimizer
// involved) where a TruncateStep lands before the result's true last
// use — the exact bug class the liveness-driven truncation pass could
// introduce.
func TestRejectsPrematureTruncation(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *core.Program
		message string
	}{
		{
			name: "final query reads a truncated result",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Steps = append(prog.Steps, &core.TruncateStep{Name: "t"})
				return prog
			},
			message: `final query reads result "t" after step 7 truncated it`,
		},
		{
			name: "second iteration reads a result truncated inside the body",
			build: func() *core.Program {
				// The body reads t, truncates it, and produces w; only the
				// loop re-entry pass sees the next iteration's read of t.
				loop := metaLoop("t", 3)
				return &core.Program{
					Options: core.Options{Parts: 1},
					Steps: []core.Step{
						&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v")},
						&core.InitLoopStep{Loop: loop},
						&core.MaterializeStep{Into: "u", Plan: result("t", "k", "v"), CountsAsUpdate: true},
						&core.TruncateStep{Name: "t"},
						&core.RenameStep{From: "u", To: "w"},
						&core.UpdateLoopStep{Loop: loop},
						&core.LoopStep{Loop: loop, BodyStart: 2},
					},
					Final: result("w", "k", "v"),
				}
			},
			message: `reads result "t" after step 4 truncated it (on loop re-entry)`,
		},
		{
			name: "termination condition reads a truncated result",
			build: func() *core.Program {
				loop := &core.LoopState{Term: ast.Termination{Type: ast.TermData}, CTEName: "t",
					CondPlan: result("cond", "matching", "total")}
				return &core.Program{
					Options: core.Options{Parts: 1},
					Steps: []core.Step{
						&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v")},
						&core.MaterializeStep{Into: "cond", Plan: scan("edges", "matching", "total")},
						&core.InitLoopStep{Loop: loop},
						&core.MaterializeStep{Into: "Intermediate#t", Plan: result("t", "k", "v"), CountsAsUpdate: true},
						&core.RenameStep{From: "Intermediate#t", To: "t"},
						&core.TruncateStep{Name: "cond"},
						&core.UpdateLoopStep{Loop: loop},
						&core.LoopStep{Loop: loop, BodyStart: 3},
					},
					Final: result("t", "k", "v"),
				}
			},
			message: `termination condition reads result "cond" after step 6 truncated it`,
		},
		{
			name: "delta termination snapshots a truncated result",
			build: func() *core.Program {
				loop := &core.LoopState{Term: ast.Termination{Type: ast.TermDelta, N: 1}, CTEName: "t"}
				return &core.Program{
					Options: core.Options{Parts: 1},
					Steps: []core.Step{
						&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v")},
						&core.TruncateStep{Name: "t"},
						&core.InitLoopStep{Loop: loop},
						&core.MaterializeStep{Into: "t", Plan: scan("edges", "k", "v"), CountsAsUpdate: true},
						&core.UpdateLoopStep{Loop: loop},
						&core.LoopStep{Loop: loop, BodyStart: 3},
					},
					Final: result("t", "k", "v"),
				}
			},
			message: `Delta termination snapshots result "t" after step 2 truncated it`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := Check(tc.build(), nil)
			found := false
			for _, d := range diags {
				if d.Class == ClassPrematureTruncate && strings.Contains(d.Message, tc.message) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s diagnostic containing %q; got %v", ClassPrematureTruncate, tc.message, diags)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Pruned-column use
// ---------------------------------------------------------------------

// pruneProgram hand-builds the program projection pruning would emit
// for pruneQuery if it (wrongly or rightly) materialized c with only
// the given columns.
func pruneProgram(cols ...string) *core.Program {
	loop := metaLoop("c", 3)
	return &core.Program{
		Options: core.Options{Parts: 1},
		Steps: []core.Step{
			&core.MaterializeStep{Into: "c", Plan: scan("edges", cols...)},
			&core.InitLoopStep{Loop: loop},
			&core.MaterializeStep{Into: "Intermediate#c", Plan: result("c", cols...), CountsAsUpdate: true},
			&core.RenameStep{From: "Intermediate#c", To: "c"},
			&core.UpdateLoopStep{Loop: loop},
			&core.LoopStep{Loop: loop, BodyStart: 2},
		},
		Final: result("c", cols[0]),
	}
}

// TestRejectsPrunedColumnUse: hand-built programs (no optimizer, no
// internal/dataflow) that drop a column something still observes, for
// both halves of the re-check: the simulation's reader-vs-producer
// schema comparison and the AST re-derivation of liveness.
func TestRejectsPrunedColumnUse(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *core.Program
		sql     string // "" means Check runs without a statement
		message string
	}{
		{
			name: "plan reads a column the materialization does not provide",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Steps[2] = &core.MaterializeStep{Into: "Intermediate#t",
					Plan: result("t", "k", "v", "w"), CountsAsUpdate: true}
				return prog
			},
			message: `materialize Intermediate#t reads column "w" of result "t"`,
		},
		{
			name: "final query reads a column the materialization does not provide",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Final = result("t", "k", "v", "w")
				return prog
			},
			message: `final query reads column "w" of result "t"`,
		},
		{
			name:    "pruned column is read by the final query",
			build:   func() *core.Program { return pruneProgram("k") },
			sql:     `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 3 ITERATIONS) SELECT k, v FROM c`,
			message: `omits declared column "v", which the final query still reads`,
		},
		{
			name:    "pruned column is read by the iterative part",
			build:   func() *core.Program { return pruneProgram("k") },
			sql:     `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c WHERE v > 0 UNTIL 3 ITERATIONS) SELECT k FROM c`,
			message: `omits declared column "v", which the iterative part still reads`,
		},
		{
			name:    "pruning under an UPDATES counter",
			build:   func() *core.Program { return pruneProgram("k") },
			sql:     `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 3 UPDATES) SELECT k FROM c`,
			message: "UPDATES counter",
		},
		{
			name:    "pruning under Delta termination",
			build:   func() *core.Program { return pruneProgram("k") },
			sql:     `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v FROM c UNTIL DELTA < 1) SELECT k FROM c`,
			message: "Delta termination, which compares whole rows",
		},
		{
			name:    "first declared column pruned away",
			build:   func() *core.Program { return pruneProgram("v") },
			sql:     `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 3 ITERATIONS) SELECT v FROM c`,
			message: `omits its first declared column "k"`,
		},
		{
			name:    "pruned column hidden behind SELECT * in the final query",
			build:   func() *core.Program { return pruneProgram("k") },
			sql:     `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 3 ITERATIONS) SELECT * FROM c`,
			message: "selects * so their deadness cannot be proven",
		},
		{
			name: "recorded pruning with no statement to re-check",
			build: func() *core.Program {
				prog, _ := validProgram()
				prog.Dataflow = append(prog.Dataflow, core.DataflowEntry{Result: "t", Live: []string{"k"}, Pruned: []string{"v"}})
				return prog
			},
			message: "no source statement is available",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stmt *ast.SelectStmt
			if tc.sql != "" {
				stmt = parseStmt(t, tc.sql)
			}
			diags := Check(tc.build(), stmt)
			found := false
			for _, d := range diags {
				if d.Class == ClassPrunedColumnUse && strings.Contains(d.Message, tc.message) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s diagnostic containing %q; got %v", ClassPrunedColumnUse, tc.message, diags)
			}
		})
	}
}

// TestRecordedPruningReverifies: the real optimizer's pruning of a dead
// column is accepted by the independent AST re-derivation.
func TestRecordedPruningReverifies(t *testing.T) {
	sql := `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 2 ITERATIONS) SELECT k FROM c`
	stmt := parseStmt(t, sql)
	prog, err := core.Rewrite(stmt, newRT(t), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	narrowed := false
	for _, e := range prog.Dataflow {
		if strings.EqualFold(e.Result, "c") && len(e.Pruned) > 0 {
			narrowed = true
		}
	}
	if !narrowed {
		t.Fatal("optimizer did not prune the dead column")
	}
	if diags := checkPruning(prog, stmt); len(diags) != 0 {
		t.Errorf("recorded pruning rejected by the re-check: %v", diags)
	}
}

// TestRecordedPushdownReverifies: the real optimizer's push on the FF
// query is recorded on the program and accepted by the independent
// re-derivation.
func TestRecordedPushdownReverifies(t *testing.T) {
	sql := `WITH ITERATIVE c (k, v) AS (SELECT src, dst FROM edges ITERATE SELECT k, v + 1 FROM c UNTIL 2 ITERATIONS) SELECT k FROM c WHERE k = 1`
	stmt := parseStmt(t, sql)
	prog, err := core.Rewrite(stmt, newRT(t), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Pushed) == 0 {
		t.Fatal("optimizer did not push the eligible predicate")
	}
	if diags := checkPushdown(prog, stmt); len(diags) != 0 {
		t.Errorf("recorded push rejected by the re-check: %v", diags)
	}
}

// ---------------------------------------------------------------------
// Explain round trip
// ---------------------------------------------------------------------

// allKindsProgram exercises every step kind in one program: loop A is
// the merge path (materialize, init, merge, rename, truncate), loop B
// the copy-back baseline.
func allKindsProgram() *core.Program {
	loopA := metaLoop("a", 3)
	loopB := metaLoop("b", 2)
	return &core.Program{
		Options: core.Options{Parts: 1},
		Steps: []core.Step{
			&core.MaterializeStep{Into: "a", Plan: scan("edges", "k", "v")},
			&core.InitLoopStep{Loop: loopA},
			&core.MaterializeStep{Into: "Intermediate#a", Plan: result("a", "k", "v"), CountsAsUpdate: true},
			&core.MergeStep{CTE: "a", Work: "Intermediate#a", Into: "Merge#a"},
			&core.RenameStep{From: "Merge#a", To: "a"},
			&core.TruncateStep{Name: "Intermediate#a"},
			&core.UpdateLoopStep{Loop: loopA},
			&core.LoopStep{Loop: loopA, BodyStart: 2},
			&core.MaterializeStep{Into: "b", Plan: scan("edges", "k", "v")},
			&core.InitLoopStep{Loop: loopB},
			&core.MaterializeStep{Into: "Intermediate#b", Plan: result("b", "k", "v"), CountsAsUpdate: true},
			&core.CopyBackStep{From: "Intermediate#b", To: "b"},
			&core.UpdateLoopStep{Loop: loopB},
			&core.LoopStep{Loop: loopB, BodyStart: 10},
		},
		Final: result("a", "k", "v"),
	}
}

// TestExplainRoundTrip: every step kind renders in Explain under a
// "Step N:" heading, the clean program verifies clean, and when steps
// are corrupted the diagnostics cite exactly the indices Explain
// prints.
func TestExplainRoundTrip(t *testing.T) {
	prog := allKindsProgram()
	if diags := Check(prog, nil); len(diags) != 0 {
		t.Fatalf("all-kinds program rejected: %v", diags)
	}

	out := prog.Explain()
	for i := range prog.Steps {
		if !strings.Contains(out, fmt.Sprintf("Step %d: ", i+1)) {
			t.Errorf("Explain misses heading for step %d:\n%s", i+1, out)
		}
	}
	for _, want := range []string{
		"Materialize a", "Initialize loop operator", "Merge",
		"Rename Merge#a to a", "Delete tuples from Intermediate#a",
		"Increment loop counter", "Go to step 3", "Go to step 11",
		"Copy Intermediate#b back into b",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain misses %q:\n%s", want, out)
		}
	}

	// Corrupt steps at known positions and match diagnostics to the
	// Explain lines they cite.
	prog = allKindsProgram()
	prog.Steps[4] = &core.RenameStep{From: "ghost", To: "a"}    // Step 5
	prog.Steps[11] = &core.CopyBackStep{From: "ghost", To: "b"} // Step 12
	explainLines := map[int]string{}
	for _, line := range strings.Split(prog.Explain(), "\n") {
		var n int
		var rest string
		if c, _ := fmt.Sscanf(line, "Step %d: %s", &n, &rest); c >= 1 {
			explainLines[n] = line
		}
	}
	diags := Check(prog, nil)
	wantVerbs := map[int]string{5: "Rename", 12: "Copy"}
	for step, verb := range wantVerbs {
		found := false
		for _, d := range diags {
			if d.Step == step {
				found = true
			}
		}
		if !found {
			t.Errorf("no diagnostic cites step %d: %v", step, diags)
			continue
		}
		line, ok := explainLines[step]
		if !ok {
			t.Errorf("Explain has no line for step %d", step)
			continue
		}
		if !strings.Contains(line, verb) {
			t.Errorf("Explain step %d is %q, want a %s step", step, line, verb)
		}
	}
}

// TestRewriteSurfacesVerifierError: a program the rewrite would consider
// fine but the verifier rejects surfaces as a Rewrite error (the hook is
// armed by importing this package). Simulated by corrupting through the
// registered function itself.
func TestVerifierErrorAggregates(t *testing.T) {
	prog, loop := validProgram()
	prog.Steps[5] = &core.LoopStep{Loop: loop, BodyStart: 99}
	prog.Final = result("ghost", "k", "v")
	diags := Check(prog, nil)
	if len(diags) < 2 {
		t.Fatalf("want at least 2 diagnostics, got %v", diags)
	}
	err := &Error{Diags: diags}
	msg := err.Error()
	for _, d := range diags {
		if !strings.Contains(msg, d.Class) {
			t.Errorf("aggregated error misses class %s: %s", d.Class, msg)
		}
	}
	if !strings.Contains(msg, "program verification failed") {
		t.Errorf("unexpected error header: %s", msg)
	}
}
