package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// MaxRecursionRows caps the accumulated result of a recursive CTE: UNION
// ALL over a cyclic graph grows without ever repeating a working set,
// and the recursive merge's check of this cap is what catches it.
var MaxRecursionRows = 10_000_000

// ExecuteRecursiveContext rewrites a statement with recursive CTEs (§II)
// into its step program over parts partitions and runs it under ctx.
// maxIter caps the loop (Config.MaxIterations; zero or negative means
// DefaultMaxIterations) with the iterative guard's IterationCapError.
func ExecuteRecursiveContext(ctx context.Context, stmt *ast.SelectStmt, rt *exec.StoreRuntime, parts int, maxIter int64) ([]sqltypes.Row, []plan.ColInfo, error) {
	if stmt.With == nil || !stmt.With.Recursive {
		//lint:ignore coreerrors statement-level error; no CTE, step or table is in scope yet
		return nil, nil, fmt.Errorf("statement has no recursive CTE")
	}
	opts := DefaultOptions()
	opts.Parts, opts.MaxIterations = parts, maxIter
	prog, err := Rewrite(stmt, rt, opts)
	if err != nil {
		return nil, nil, err
	}
	rows, err := prog.RunContext(ctx, rt, nil)
	return rows, prog.FinalColumns, err
}

// expandRecursive appends the step program of one recursive CTE, §II's
// WITH RECURSIVE in Table I's form (DESIGN.md §5l): the base term (under
// DISTINCT for UNION) materializes into the CTE and into Delta#cte; each
// round materializes the recursive term over Delta#cte and merges it in
// (MergeUnion, MergeUnionAll), the rows it added being the next
// Delta#cte, until a round adds none. The loop always carries the cap.
func (r *rewriter) expandRecursive(cte *ast.CTE, regular []*ast.CTE) error {
	union, ok := cte.Select.Body.(*ast.UnionExpr)
	if !ok {
		//lint:ignore coreerrors Rewrite wraps every expandRecursive error with the CTE name
		return fmt.Errorf("must be 'base UNION [ALL] recursive'")
	}
	// The recursive reference must be in the right arm only.
	if countBody(union.Left, cte.Name) > 0 {
		return fmt.Errorf("the non-recursive arm must not reference %s", cte.Name)
	}
	switch n := countBody(union.Right, cte.Name); {
	case n == 0:
		return fmt.Errorf("the recursive arm does not reference %s", cte.Name)
	case n > 1:
		return fmt.Errorf("the recursive arm may reference %s only once", cte.Name)
	}
	if bodyHasAggregate(union.Right) {
		// The ANSI restriction the paper's extension removes.
		return fmt.Errorf("aggregate functions are not allowed in the recursive part of %s; use WITH ITERATIVE", cte.Name)
	}
	builder := r.newBuilder(regular)

	base, err := builder.Build(&ast.SelectStmt{Body: union.Left})
	if err != nil {
		return fmt.Errorf("base term: %w", err)
	}
	if !union.All {
		base = &plan.Distinct{Input: base}
	}
	base, schema, err := applyCTEColumns(base, cte)
	if err != nil {
		return err
	}
	r.lookup.add(cte.Name, schema)
	rec, err := builder.Build(&ast.SelectStmt{Body: union.Right})
	if err != nil {
		return fmt.Errorf("recursive term: %w", err)
	}
	if len(rec.Columns()) != len(schema) {
		return fmt.Errorf("recursive term produces %d columns, base term %d", len(rec.Columns()), len(schema))
	}
	if rec, err = renameTo(rec, schema); err != nil {
		return err
	}
	delta, work, merged := "Delta#"+cte.Name, "Intermediate#"+cte.Name, "Merge#"+cte.Name
	r.lookup.add(delta, schema)
	retarget(rec, cte.Name, delta)

	term := ast.Termination{Type: ast.TermDelta, N: 1}
	loop := &LoopState{Term: term, CTEName: cte.Name, Counted: true, Cap: r.prog.loopCap(term)}
	form := MergeUnion
	if union.All {
		form = MergeUnionAll
	}
	parts := r.prog.Parts
	steps := &r.prog.Steps
	*steps = append(*steps,
		&MaterializeStep{Into: cte.Name, Plan: base, Parts: parts, CheckKey: -1},
		&MaterializeStep{Into: delta, Plan: readResult(cte.Name, schema), Parts: parts, CheckKey: -1},
		&InitLoopStep{Loop: loop})
	bodyStart := len(*steps)
	*steps = append(*steps,
		&MaterializeStep{Into: work, Plan: rec, Parts: parts, CheckKey: -1, CountsAsUpdate: true},
		&MergeStep{CTE: cte.Name, Work: work, Into: merged, Parts: parts, Loop: loop, Delta: delta, Form: form},
		&RenameStep{From: merged, To: cte.Name},
		&TruncateStep{Name: work},
		&UpdateLoopStep{Loop: loop},
		&LoopStep{Loop: loop, BodyStart: bodyStart})
	return nil
}

// readResult is the plan that reads the whole intermediate result name.
func readResult(name string, schema sqltypes.Schema) plan.Node {
	cols := make([]plan.ColInfo, len(schema))
	for i, c := range schema {
		cols[i] = plan.ColInfo{Table: name, Name: c.Name, Type: c.Type}
	}
	return &plan.NamedResult{Name: name, Alias: name, Cols: cols}
}

// retarget points every read of the result from in n at the result to,
// keeping the alias the reads' columns are qualified with.
func retarget(n plan.Node, from, to string) {
	if r, ok := n.(*plan.NamedResult); ok && strings.EqualFold(r.Name, from) {
		r.Name = to
	}
	for _, c := range n.Children() {
		retarget(c, from, to)
	}
}

func referencesSelf(cte *ast.CTE) bool {
	return cte.Select != nil && ast.CountStmtTableRefs(cte.Select, cte.Name) > 0
}

// fingerprint renders a row multiset order-independently.
func fingerprint(rows []sqltypes.Row) string {
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = r.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, "\x00")
}

func countBody(b ast.SelectBody, name string) int {
	return ast.CountStmtTableRefs(&ast.SelectStmt{Body: b}, name)
}

func bodyHasAggregate(b ast.SelectBody) bool {
	switch t := b.(type) {
	case *ast.SelectCore:
		for _, it := range t.Items {
			if ast.HasAggregate(it.Expr) {
				return true
			}
		}
		return t.Having != nil || len(t.GroupBy) > 0
	case *ast.UnionExpr:
		return bodyHasAggregate(t.Left) || bodyHasAggregate(t.Right)
	}
	return false
}
