package dbspinner_test

import (
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/bench"
	"dbspinner/internal/catalog"
	"dbspinner/internal/core"
	"dbspinner/internal/exec"
	"dbspinner/internal/expr"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/proc"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// TestCompiledColContract checks expr.Compiled.Col, which consumers read
// bare columns in place by, over every expression and sub-expression of
// the plans of the six benchmark workloads — the
// programs the rewrite makes of pr, sssp-vs, ff and pr-vs-mpp, adhoc's
// seven statements, and the statements of proc-dml's stored procedure:
// Col >= 0 exactly when the expression is a bare column, which Col
// indexes and Eval then returns; Col is -1 for a literal, bound for a run
// or not, and for everything else.
func TestCompiledColContract(t *testing.T) {
	rt := colContractRuntime(t)
	sssp := proc.SSSP(1, 3, true)
	for _, w := range []struct {
		name  string
		sql   []string
		multi bool // partitioned and parallel, as pr-vs-mpp runs
	}{
		{name: "pr", sql: []string{bench.PRQuery(3)}},
		{name: "sssp-vs", sql: []string{bench.SSSPVSQuery(1, 3)}},
		{name: "ff", sql: []string{bench.FFQuery(3, 2)}},
		{name: "pr-vs-mpp", sql: []string{bench.PRVSQuery(3)}, multi: true},
		{name: "adhoc", sql: adhocStatements(0)},
		{name: "proc-dml", sql: append(append(append([]string{}, sssp.Init...), sssp.Body...), sssp.Final)},
	} {
		t.Run(w.name, func(t *testing.T) {
			var bare, other int
			check := func(e ast.Expr, env *expr.Env) {
				b, o := checkColContract(t, e, env)
				bare, other = bare+b, other+o
			}
			for _, sql := range w.sql {
				stmt, err := parser.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range statementPlans(t, rt, stmt, w.multi) {
					walkPlanExprs(n, check)
				}
				if u, ok := stmt.(*ast.Update); ok {
					// UPDATE ... FROM compiles its SET and WHERE over the target's
					// columns, then the FROM side's.
					env := expr.NewEnv(u.Table, rt.Catalog.Get(u.Table).Schema)
					from := u.From.(*ast.BaseTable)
					env.Add(from.Name, rt.Catalog.Get(from.Name).Schema)
					for _, s := range u.Sets {
						check(s.Expr, env)
					}
					check(u.Where, env)
				}
			}
			if bare == 0 || other == 0 {
				t.Errorf("checked %d bare columns and %d other expressions; the workload tests nothing", bare, other)
			}
			t.Logf("%d bare columns, %d other expressions", bare, other)
		})
	}
}

// colContractRuntime holds, empty, every table the workloads read or
// the stored procedure writes.
func colContractRuntime(t *testing.T) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(2)
	for name, schema := range map[string]sqltypes.Schema{
		"edges":        {{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float}},
		"vertexStatus": {{Name: "node", Type: sqltypes.Int}, {Name: "status", Type: sqltypes.Int}},
		"__sssp":       {{Name: "node", Type: sqltypes.Int}, {Name: "distance", Type: sqltypes.Float}, {Name: "delta", Type: sqltypes.Float}},
		"__sssp_inter": {{Name: "node", Type: sqltypes.Int}, {Name: "distance", Type: sqltypes.Float}, {Name: "delta", Type: sqltypes.Float}},
	} {
		if _, err := cat.Create(name, schema, -1); err != nil {
			t.Fatal(err)
		}
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// statementPlans returns the plans a statement runs: every plan of the
// step program of an iterative or recursive query, the plan of a SELECT
// and of an INSERT's SELECT.
func statementPlans(t *testing.T, rt *exec.StoreRuntime, stmt ast.Statement, multi bool) []plan.Node {
	t.Helper()
	sel, ok := stmt.(*ast.SelectStmt)
	if ins, isInsert := stmt.(*ast.Insert); isInsert && ins.Select != nil {
		sel, ok = ins.Select, true
	}
	if !ok {
		return nil
	}
	opts := core.DefaultOptions()
	if multi {
		opts.Parallel, opts.Parts = true, 2
	}
	p, err := core.Rewrite(sel, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := []plan.Node{p.Final}
	for _, s := range p.Steps {
		switch st := s.(type) {
		case *core.MaterializeStep:
			out = append(out, st.Plan)
		case *core.DeltaMaterializeStep:
			out = append(out, st.Plan)
		case *core.MaintainAggStep:
			out = append(out, st.Plan)
		case *core.LoopStep:
			out = append(out, st.Loop.CondPlan)
		}
	}
	return out
}

// walkPlanExprs calls check with every expression n's tree compiles and
// the environment it compiles in: a filter's condition, a projection's
// items, an aggregate's group keys and arguments over their input; a
// join's condition over its output, and each side of an equality over
// the input it reads, as the join's keys are.
func walkPlanExprs(n plan.Node, check func(ast.Expr, *expr.Env)) {
	if n == nil {
		return
	}
	switch t := n.(type) {
	case *plan.Filter:
		check(t.Cond, colEnv(t.Input))
	case *plan.Project:
		for _, it := range t.Items {
			check(it.Expr, colEnv(t.Input))
		}
	case *plan.Aggregate:
		for _, g := range t.GroupBy {
			check(g, colEnv(t.Input))
		}
		for _, a := range t.Aggs {
			if !a.Star {
				check(a.Arg, colEnv(t.Input))
			}
		}
	case *plan.Join:
		if t.On != nil {
			check(t.On, colEnv(t))
			for _, c := range ast.SplitConjuncts(t.On) {
				if b, ok := c.(*ast.BinaryExpr); ok && b.Op == "=" {
					for _, side := range []plan.Node{t.Left, t.Right} {
						check(b.L, colEnv(side))
						check(b.R, colEnv(side))
					}
				}
			}
		}
	}
	for _, c := range n.Children() {
		walkPlanExprs(c, check)
	}
}

// colEnv is the environment of n's output columns, as the executors
// build it.
func colEnv(n plan.Node) *expr.Env {
	e := &expr.Env{}
	for i, c := range n.Columns() {
		e.Cols = append(e.Cols, expr.Binding{Table: strings.ToLower(c.Table), Name: strings.ToLower(c.Name), Index: i, Type: c.Type})
	}
	return e
}

// checkColContract compiles every sub-expression of e that compiles in
// env — an equality side may not compile over the other input — and
// checks Col on each; it returns how many bare columns and other
// expressions it checked.
func checkColContract(t *testing.T, e ast.Expr, env *expr.Env) (bare, other int) {
	t.Helper()
	// A row whose every cell differs from the others.
	row := make(sqltypes.Row, len(env.Cols))
	for i := range row {
		row[i] = sqltypes.NewInt(int64(1000 + i))
	}
	ast.WalkExpr(e, func(x ast.Expr) bool {
		c, err := expr.Compile(x, env)
		if err != nil {
			return true
		}
		ref, isRef := x.(*ast.ColumnRef)
		switch {
		case isRef:
			bare++
			b, err := env.Resolve(ref.Table, ref.Name)
			if err != nil || c.Col != b.Index {
				t.Errorf("%s: Col %d, want the column it resolves to, %d (%v)", x, c.Col, b.Index, err)
				return true
			}
			if v, err := c.Eval(row); err != nil || v != row[c.Col] {
				t.Errorf("%s: Eval gives %v, %v; row[Col] is %v", x, v, err, row[c.Col])
			}
		case c.Col != -1:
			other++
			t.Errorf("%s: Col %d, want -1 for an expression that is no bare column", x, c.Col)
		default:
			other++
		}
		if lit, isLit := x.(*ast.Literal); isLit && lit.Slot > 0 {
			// The literal as a run that bound its slot compiles it.
			bound := *env
			bound.Params = make([]sqltypes.Value, lit.Slot)
			bound.Params[lit.Slot-1] = sqltypes.NewInt(7)
			c, err := expr.Compile(lit, &bound)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := c.Eval(nil); c.Col != -1 || v != sqltypes.NewInt(7) {
				t.Errorf("%s bound to 7: Col %d, value %v; want -1 and 7", x, c.Col, v)
			}
		}
		return true
	})
	return bare, other
}
