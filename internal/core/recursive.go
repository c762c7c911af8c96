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
	"dbspinner/internal/storage"
)

// MaxRecursionIterations caps runaway recursive queries. It is a
// variable so tests can lower it.
var MaxRecursionIterations = 100000

// MaxRecursionRows caps the accumulated result of a recursive CTE;
// UNION ALL over a cyclic graph grows without ever repeating a working
// set, and this cap is what catches it.
var MaxRecursionRows = 10_000_000

// ExecuteRecursive evaluates a statement with recursive CTEs (ANSI
// recursive union with fixed-point semantics, §II). It exists both as
// a substrate feature and to demonstrate the paper's motivation: the
// recursive term must not contain aggregates, the termination condition
// is implicit, and rows can only be appended — exactly the limitations
// iterative CTEs remove. maxIter caps the fixed-point loop
// (Config.MaxIterations); zero or negative falls back to
// MaxRecursionIterations, and the cap fails with the same structured
// IterationCapError the iterative guard uses.
func ExecuteRecursive(stmt *ast.SelectStmt, rt *exec.StoreRuntime, parts int, maxIter int64) ([]sqltypes.Row, []plan.ColInfo, error) {
	return ExecuteRecursiveContext(context.Background(), stmt, rt, parts, maxIter)
}

// ExecuteRecursiveContext is ExecuteRecursive under a cancellation
// context: the base term, every fixed-point round and the final query
// poll ctx, and a fired cancellation or deadline surfaces as a
// QueryLifecycleError naming the round reached.
func ExecuteRecursiveContext(ctx context.Context, stmt *ast.SelectStmt, rt *exec.StoreRuntime, parts int, maxIter int64) ([]sqltypes.Row, []plan.ColInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if parts < 1 {
		parts = 1
	}
	if maxIter <= 0 {
		maxIter = int64(MaxRecursionIterations)
	}
	if stmt.With == nil || !stmt.With.Recursive {
		//lint:ignore coreerrors statement-level error; no CTE, step or table is in scope yet
		return nil, nil, fmt.Errorf("statement has no recursive CTE")
	}
	// The run memo, as a step program's run has one: each round's joins
	// take the index of a table the recursion does not change from it
	// instead of building it again, and every plan compiles once.
	indexes, compiled := exec.NewIndexCache(), exec.NewCompileCache()
	defer indexes.Clear()
	defer compiled.Clear()
	rt = rt.WithMemo(indexes, compiled)
	created := make([]string, 0, len(stmt.With.CTEs))
	defer func() {
		for _, name := range created {
			rt.Results.Drop(name)
		}
	}()
	var regular []*ast.CTE
	for _, cte := range stmt.With.CTEs {
		if cte.Iterative {
			return nil, nil, fmt.Errorf("WITH RECURSIVE cannot contain the iterative CTE %s", cte.Name)
		}
		if !referencesSelf(cte) {
			regular = append(regular, cte)
			continue
		}
		if err := evalRecursiveCTE(ctx, cte, regular, rt, parts, maxIter); err != nil {
			return nil, nil, fmt.Errorf("recursive CTE %s: %w", cte.Name, err)
		}
		created = append(created, cte.Name)
	}
	b := plan.NewBuilder(rt)
	for _, cte := range regular {
		_ = b.RegisterCTE(cte)
	}
	final := &ast.SelectStmt{Body: stmt.Body, OrderBy: stmt.OrderBy, Limit: stmt.Limit, Offset: stmt.Offset}
	node, err := b.Build(final)
	if err != nil {
		return nil, nil, err
	}
	rows, err := exec.RunContext(ctx, node, rt, nil)
	if err != nil {
		return nil, nil, WrapCancel(err, 0, 0, "recursive CTE final query")
	}
	return rows, node.Columns(), nil
}

func referencesSelf(cte *ast.CTE) bool {
	return cte.Select != nil && ast.CountStmtTableRefs(cte.Select, cte.Name) > 0
}

// evalRecursiveCTE runs the recursive union to its fixed point and
// stores the result under the CTE name.
func evalRecursiveCTE(ctx context.Context, cte *ast.CTE, regular []*ast.CTE, rt *exec.StoreRuntime, parts int, maxIter int64) error {
	union, ok := cte.Select.Body.(*ast.UnionExpr)
	if !ok {
		return fmt.Errorf("recursive CTE %s must be 'base UNION [ALL] recursive'", cte.Name)
	}
	// The recursive reference must be in the right arm only.
	if countBody(union.Left, cte.Name) > 0 {
		return fmt.Errorf("the non-recursive arm must not reference %s", cte.Name)
	}
	nRefs := countBody(union.Right, cte.Name)
	if nRefs == 0 {
		return fmt.Errorf("the recursive arm does not reference %s", cte.Name)
	}
	if nRefs > 1 {
		return fmt.Errorf("the recursive arm may reference %s only once", cte.Name)
	}
	if bodyHasAggregate(union.Right) {
		// The ANSI restriction the paper's extension removes.
		return fmt.Errorf("aggregate functions are not allowed in the recursive part of %s; use WITH ITERATIVE", cte.Name)
	}

	newBuilder := func() *plan.Builder {
		b := plan.NewBuilder(rt)
		for _, r := range regular {
			_ = b.RegisterCTE(r)
		}
		return b
	}

	// Base step.
	basePlan, err := newBuilder().Build(&ast.SelectStmt{Body: union.Left})
	if err != nil {
		return fmt.Errorf("base term: %w", err)
	}
	baseRows, err := exec.RunContext(ctx, basePlan, rt, nil)
	if err != nil {
		return WrapCancel(err, 0, 0, "recursive CTE base term")
	}
	schema := plan.Schema(basePlan)
	if len(cte.Cols) > 0 {
		if len(cte.Cols) != len(schema) {
			return fmt.Errorf("CTE declares %d columns but the base term produces %d", len(cte.Cols), len(schema))
		}
		for i := range schema {
			schema[i].Name = cte.Cols[i]
		}
	}

	dedup := !union.All
	seen := sqltypes.NewKeyTable(len(schema), 0)
	result := storage.NewTable(cte.Name, schema, parts)
	working := storage.NewTable(cte.Name, schema, parts)
	appendRow := func(dst ...*storage.Table) func(r sqltypes.Row) {
		return func(r sqltypes.Row) {
			if dedup {
				if _, added := seen.Insert(r); !added {
					return
				}
			}
			for _, d := range dst {
				d.Insert(r)
			}
		}
	}
	add := appendRow(result, working)
	for _, r := range baseRows {
		add(r)
	}

	// The recursive term sees only the working table (rows produced by
	// the previous step) — standard semi-naive evaluation.
	rt.Results.Put(cte.Name, working)
	recPlan, err := newBuilder().Build(&ast.SelectStmt{Body: union.Right})
	if err != nil {
		return fmt.Errorf("recursive term: %w", err)
	}
	if len(recPlan.Columns()) != len(schema) {
		return fmt.Errorf("recursive term produces %d columns, base term %d", len(recPlan.Columns()), len(schema))
	}

	// For UNION ALL, a repeating working set means the recursion cycles
	// forever; fingerprints of past working sets detect that early.
	fingerprints := map[string]bool{}
	if !dedup {
		fingerprints[fingerprint(working)] = true
	}
	for iter := int64(0); working.Len() > 0; iter++ {
		if err := ctx.Err(); err != nil {
			return WrapCancel(err, int(iter), 0, "recursive CTE")
		}
		if iter >= maxIter {
			return &IterationCapError{CTE: cte.Name, Cap: maxIter,
				Diags: []string{"recursive UNION did not reach a fixed point (implicit termination has no static bound)"}}
		}
		rows, err := exec.RunContext(ctx, recPlan, rt, nil)
		if err != nil {
			return WrapCancel(err, int(iter), 0, "recursive CTE")
		}
		next := storage.NewTable(cte.Name, schema, parts)
		add := appendRow(result, next)
		for _, r := range rows {
			add(r)
		}
		if !dedup && next.Len() > 0 {
			fp := fingerprint(next)
			if fingerprints[fp] {
				// UNION ALL over a cycle never terminates; surface the
				// runaway instead of spinning to the cap.
				return fmt.Errorf("recursive UNION ALL does not converge (iteration %d revisits an earlier state); use UNION to deduplicate", iter+1)
			}
			fingerprints[fp] = true
		}
		if result.Len() > MaxRecursionRows {
			return fmt.Errorf("recursive CTE exceeded %d rows without terminating; use UNION to deduplicate cyclic data", MaxRecursionRows)
		}
		working = next
		rt.Results.Put(cte.Name, working)
		// The round's working table is replaced: its indexes go at the
		// next sweep, the invariant tables' stay.
		rt.Indexes().Sweep()
	}

	rt.Results.Put(cte.Name, result)
	return nil
}

// fingerprint renders a table's row multiset order-independently.
func fingerprint(t *storage.Table) string {
	rows := t.AllRows()
	strs := make([]string, len(rows))
	for i, r := range rows {
		strs[i] = r.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, "\x00")
}

func countBody(b ast.SelectBody, name string) int {
	stmt := &ast.SelectStmt{Body: b}
	return ast.CountStmtTableRefs(stmt, name)
}

func bodyHasAggregate(b ast.SelectBody) bool {
	switch t := b.(type) {
	case *ast.SelectCore:
		for _, it := range t.Items {
			if ast.HasAggregate(it.Expr) {
				return true
			}
		}
		if t.Having != nil || len(t.GroupBy) > 0 {
			return true
		}
		return false
	case *ast.UnionExpr:
		return bodyHasAggregate(t.Left) || bodyHasAggregate(t.Right)
	}
	return false
}

// HasIterative reports whether a statement's WITH clause contains an
// iterative CTE (the engine routes those through Rewrite).
func HasIterative(stmt *ast.SelectStmt) bool {
	if stmt.With == nil {
		return false
	}
	for _, cte := range stmt.With.CTEs {
		if cte.Iterative {
			return true
		}
	}
	return false
}
