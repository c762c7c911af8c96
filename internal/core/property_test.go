package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// linearRecurrence describes a randomly generated iterative query
//
//	WITH ITERATIVE c (k, v) AS (
//	    <n seed rows>
//	  ITERATE SELECT k, v * a + b + k * g FROM c
//	  UNTIL <iters> ITERATIONS )
//	SELECT k, v FROM c ORDER BY k
//
// whose expected result is computed directly in Go. It exercises the
// full rewrite/loop/rename pipeline on arbitrary shapes.
type linearRecurrence struct {
	seeds   []float64
	a, b, g float64
	iters   int
}

func randomRecurrence(rng *rand.Rand) linearRecurrence {
	n := 1 + rng.Intn(5)
	seeds := make([]float64, n)
	for i := range seeds {
		seeds[i] = float64(rng.Intn(20) - 10)
	}
	return linearRecurrence{
		seeds: seeds,
		a:     float64(rng.Intn(3)) + 0.5, // 0.5, 1.5, 2.5
		b:     float64(rng.Intn(7) - 3),
		g:     float64(rng.Intn(3)),
		iters: 1 + rng.Intn(6),
	}
}

func (lr linearRecurrence) sql() string {
	var seeds []string
	for i, s := range lr.seeds {
		seeds = append(seeds, fmt.Sprintf("SELECT %d, %s", i+1, floatLit(s)))
	}
	return fmt.Sprintf(`WITH ITERATIVE c (k, v) AS (
		%s
	 ITERATE SELECT k, v * %s + %s + k * %s FROM c
	 UNTIL %d ITERATIONS)
	 SELECT k, v FROM c ORDER BY k`,
		strings.Join(seeds, " UNION ALL "),
		floatLit(lr.a), floatLit(lr.b), floatLit(lr.g), lr.iters)
}

func floatLit(f float64) string {
	s := fmt.Sprintf("%g", f)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	if f < 0 {
		return "(0 " + s + ")" // avoid unary-minus literal printing concerns
	}
	return s
}

func (lr linearRecurrence) expected() []float64 {
	out := append([]float64(nil), lr.seeds...)
	for it := 0; it < lr.iters; it++ {
		for k := range out {
			out[k] = out[k]*lr.a + lr.b + float64(k+1)*lr.g
		}
	}
	return out
}

func TestRandomLinearRecurrences(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		lr := randomRecurrence(rng)
		sql := strings.ReplaceAll(lr.sql(), "(0 -", "(0 -") // no-op; keep literal shape
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("trial %d parse: %v\n%s", trial, err, sql)
		}
		cat := catalog.New(2)
		rt := exec.NewStoreRuntime(cat, storage.NewResultStore())
		for _, opts := range []Options{
			DefaultOptions(),
			{Baseline: OptRename | OptColumnPruning | OptShuffleElision | OptIncremental, Parts: 2},
		} {
			prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, opts)
			if err != nil {
				t.Fatalf("trial %d rewrite: %v\n%s", trial, err, sql)
			}
			rows, err := prog.Run(rt, nil)
			if err != nil {
				t.Fatalf("trial %d run: %v\n%s", trial, err, sql)
			}
			want := lr.expected()
			if len(rows) != len(want) {
				t.Fatalf("trial %d: %d rows, want %d", trial, len(rows), len(want))
			}
			for i, row := range rows {
				got := row[1].Float()
				if math.Abs(got-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("trial %d row %d: got %v want %v (baseline=%06b)\n%s",
						trial, i, got, want[i], opts.Baseline, sql)
				}
			}
			if rt.Results.Len() != 0 {
				t.Fatalf("trial %d leaked %d results", trial, rt.Results.Len())
			}
		}
	}
}

func TestFailedProgramLeaksNothing(t *testing.T) {
	rt := newRT(t)
	stmt, err := parser.Parse(
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0
		 ITERATE SELECT c.k, edges.weight FROM c JOIN edges ON edges.src = c.k WHERE c.k = 1
		 UNTIL 2 ITERATIONS)
		 SELECT k FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run(rt, nil); err == nil {
		t.Fatal("expected duplicate-key failure")
	}
	if rt.Results.Len() != 0 {
		t.Errorf("failed program leaked %d intermediate results", rt.Results.Len())
	}
}

func TestRuntimeErrorMidIterationLeaksNothing(t *testing.T) {
	rt := newRT(t)
	// v walks 3 -> 5 -> 2 -> 10 -> 1 -> division by zero (v-1 = 0) on
	// iteration 5.
	stmt, err := parser.Parse(
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 3
		 ITERATE SELECT k, 10 / (v - 1) FROM c
		 UNTIL 10 ITERATIONS)
		 SELECT v FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Rewrite(stmt.(*ast.SelectStmt), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.Run(rt, nil)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division by zero, got %v", err)
	}
	if rt.Results.Len() != 0 {
		t.Errorf("leaked %d results after runtime error", rt.Results.Len())
	}
}

func TestUpdatesTerminationMultiRow(t *testing.T) {
	rt := newRT(t)
	// Each iteration updates 3 rows; UNTIL 7 UPDATES stops after the
	// iteration that crosses the threshold (ceil(7/3) = 3 iterations).
	rows, stats := runIterative(t, rt,
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0 UNION ALL SELECT 2, 0 UNION ALL SELECT 3, 0
		 ITERATE SELECT k, v + 1 FROM c
		 UNTIL 7 UPDATES)
		 SELECT v FROM c ORDER BY k`, DefaultOptions())
	if stats.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", stats.Iterations)
	}
	for _, r := range rows {
		if r[0].Int() != 3 {
			t.Errorf("v = %v, want 3", r[0])
		}
	}
}

func TestDeltaSnapshotSeesKeyChanges(t *testing.T) {
	rt := newRT(t)
	// A row's key flips back and forth; delta must count it as changed
	// (both the disappearing old key and the appearing new one).
	_, stats := runIterative(t, rt,
		`WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0
		 ITERATE SELECT k, LEAST(v + 1, 2) FROM c
		 UNTIL DELTA < 1)
		 SELECT k, v FROM c`, DefaultOptions())
	if stats.Iterations != 3 {
		t.Errorf("iterations = %d, want 3 (changes on 1,2; stable on 3)", stats.Iterations)
	}
	_ = sqltypes.NullValue
}
