package plan

import (
	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/sqltypes"
)

// FoldConstants evaluates constant sub-expressions at plan time:
// any subtree without column references that evaluates cleanly is
// replaced by its literal value. Expressions that would error at
// runtime (1/0, an INT overflow) are left untouched so the error
// surfaces with the usual semantics — a filter that is never evaluated
// must not fail the query. Whether a subtree folds, and to what, depends
// on its literals' values, so every literal of an evaluated subtree is
// consumed.
func FoldConstants(e ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	emptyEnv := &expr.Env{}
	return ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
		switch x.(type) {
		case *ast.Literal, *ast.ColumnRef, *ast.Star:
			return x
		}
		if len(ast.ColumnRefs(x)) > 0 || ast.HasAggregate(x) {
			return x
		}
		c, err := expr.Compile(x, emptyEnv)
		if err != nil {
			return x
		}
		ast.WalkExpr(x, func(y ast.Expr) bool {
			if l, ok := y.(*ast.Literal); ok {
				l.Value()
			}
			return true
		})
		v, err := c.Eval(nil)
		if err != nil {
			return x
		}
		return ast.NewLiteral(v)
	})
}

// foldItems folds the expressions of a select-item list in place.
func foldItems(items []ast.SelectItem) []ast.SelectItem {
	out := make([]ast.SelectItem, len(items))
	for i, it := range items {
		out[i] = ast.SelectItem{Expr: FoldConstants(it.Expr), Alias: it.Alias}
	}
	return out
}

// simplifyFilter drops filters whose condition folded to a constant:
// TRUE (or no condition) removes the filter, FALSE (or NULL) replaces the
// input with an empty result of the same shape. A constant that is no
// condition (sqltypes.Truth) stays, to fail the filter if it runs.
func simplifyFilter(input Node, cond ast.Expr) Node {
	if cond == nil {
		return input
	}
	if lit, ok := cond.(*ast.Literal); ok {
		switch t, err := sqltypes.Truth(lit.Value()); {
		case err != nil:
		case t == sqltypes.TriTrue:
			return input
		default:
			return &EmptyNode{Cols: input.Columns()}
		}
	}
	return &Filter{Input: input, Cond: cond}
}

// EmptyNode produces no rows with a fixed schema (the result of a
// provably-false filter).
type EmptyNode struct {
	Cols []ColInfo
}

func (e *EmptyNode) Columns() []ColInfo { return e.Cols }
func (e *EmptyNode) Children() []Node   { return nil }
func (e *EmptyNode) Explain() string    { return "Empty" }
