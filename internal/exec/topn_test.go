package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

func TestTopNEqualsSortLimit(t *testing.T) {
	// TopN must produce exactly what stable Sort + Limit would, for
	// random inputs with heavy ties.
	rng := rand.New(rand.NewSource(3))
	cat := catalog.New(1)
	tb, _ := cat.Create("t", sqltypes.Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: "seq", Type: sqltypes.Int},
	}, -1)
	for i := 0; i < 500; i++ {
		tb.Insert(sqltypes.Row{sqltypes.NewInt(int64(rng.Intn(10))), sqltypes.NewInt(int64(i))})
	}
	rt := NewStoreRuntime(cat, storage.NewResultStore())

	for _, tc := range []struct{ n, off int }{{5, 0}, {20, 0}, {7, 3}, {1000, 0}, {3, 498}, {2, 600}} {
		sql := fmt.Sprintf("SELECT k, seq FROM t ORDER BY k DESC LIMIT %d OFFSET %d", tc.n, tc.off)
		stmt, _ := parser.Parse(sql)
		node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		top, ok := node.(*plan.TopN)
		if !ok {
			t.Fatalf("expected TopN, got %T", node)
		}
		got, err := Run(top, rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: full stable sort + slice.
		ref, err := Run(&plan.Limit{
			Input:  &plan.Sort{Input: top.Input, Keys: top.Keys},
			Counts: top.Counts,
		}, rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d rows vs %d", sql, len(got), len(ref))
		}
		for i := range got {
			if got[i].String() != ref[i].String() {
				t.Fatalf("%s row %d: %q vs %q (TopN must match stable sort)", sql, i, got[i], ref[i])
			}
		}
	}
}

func TestEmptyNode(t *testing.T) {
	rt := testRuntime(t)
	rows := runSQL(t, rt, "SELECT src FROM edges WHERE 1 = 0")
	if len(rows) != 0 {
		t.Errorf("rows = %v", rows)
	}
	// Aggregates over a provably-empty input still behave correctly.
	rows = runSQL(t, rt, "SELECT COUNT(*) FROM edges WHERE FALSE")
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("count over empty = %v", rows)
	}
}

func TestTopNExplain(t *testing.T) {
	rt := testRuntime(t)
	stmt, _ := parser.Parse("SELECT src FROM edges ORDER BY src DESC LIMIT 2")
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	out := plan.ExplainTree(node)
	if !strings.Contains(out, "TopN 2 by src DESC") {
		t.Errorf("explain = %s", out)
	}
}
