package plan

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

func foldStr(t *testing.T, src string) string {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return FoldConstants(e).String()
}

func TestFoldConstants(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":                             "7",
		"ABS(0 - 5)":                            "5",
		"1 + 2 > 2":                             "true",
		"x + (2 * 3)":                           "(x + 6)",
		"CASE WHEN 1 = 1 THEN 'a' ELSE 'b' END": "'a'",
		"LEAST(4, 2, 9)":                        "2",
		"x > 1 AND 2 < 3":                       "((x > 1) AND true)",
		"CAST(2.9 AS int)":                      "2",
		"MOD(10, 3) + x":                        "(1 + x)",
	}
	for src, want := range cases {
		if got := foldStr(t, src); got != want {
			t.Errorf("fold(%s) = %s, want %s", src, got, want)
		}
	}
}

func TestFoldLeavesErrorsUnfolded(t *testing.T) {
	// 1/0 must not fold (the error belongs to runtime, where the row
	// may never be evaluated).
	if got := foldStr(t, "1 / 0"); got != "(1 / 0)" {
		t.Errorf("1/0 folded to %s", got)
	}
	if got := foldStr(t, "x = 1 OR 1 / 0 = 2"); !strings.Contains(got, "(1 / 0)") {
		t.Errorf("nested 1/0 folded: %s", got)
	}
}

func TestFoldNil(t *testing.T) {
	if FoldConstants(nil) != nil {
		t.Error("nil fold")
	}
}

func TestSimplifyFilterTrue(t *testing.T) {
	n := buildSQL(t, "SELECT src FROM edges WHERE 1 = 1")
	// The always-true filter disappears.
	if _, ok := n.(*Project).Input.(*Scan); !ok {
		t.Errorf("filter not removed: %s", ExplainTree(n))
	}
}

func TestSimplifyFilterFalse(t *testing.T) {
	n := buildSQL(t, "SELECT src FROM edges WHERE 1 = 2")
	if _, ok := n.(*Project).Input.(*EmptyNode); !ok {
		t.Errorf("false filter should become Empty: %s", ExplainTree(n))
	}
	// NULL condition too (never true).
	n = buildSQL(t, "SELECT src FROM edges WHERE NULL")
	if _, ok := n.(*Project).Input.(*EmptyNode); !ok {
		t.Errorf("NULL filter should become Empty: %s", ExplainTree(n))
	}
}

func TestFoldInProjection(t *testing.T) {
	n := buildSQL(t, "SELECT 1 + 2 FROM edges")
	p := n.(*Project)
	if lit, ok := p.Items[0].Expr.(*ast.Literal); !ok || lit.Value() != sqltypes.NewInt(3) {
		t.Errorf("projection not folded: %s", p.Items[0].Expr)
	}
}
