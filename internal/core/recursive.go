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
	r, err := PrepareRecursive(stmt, rt, parts, maxIter)
	if err != nil {
		return nil, nil, err
	}
	rows, err := r.RunContext(ctx, rt, nil)
	if err != nil {
		return nil, nil, err
	}
	return rows, r.Final.Columns(), nil
}

// Recursive is a statement with recursive CTEs, planned: the base and
// recursive terms of each recursive CTE and the final query, which
// RunContext evaluates.
type Recursive struct {
	// Final is the plan of the statement's own SELECT over the CTEs.
	Final   plan.Node
	ctes    []recursiveCTE
	parts   int
	maxIter int64
}

// recursiveCTE is the plan of one recursive CTE: the base term, and the
// recursive term, which reads the rows the previous round added under
// the CTE's name.
type recursiveCTE struct {
	name      string
	base, rec plan.Node
	schema    sqltypes.Schema
	all       bool // UNION ALL: rows are not deduplicated
}

// PrepareRecursive plans a statement with recursive CTEs against lookup;
// parts and maxIter are ExecuteRecursive's.
func PrepareRecursive(stmt *ast.SelectStmt, lookup plan.TableLookup, parts int, maxIter int64) (*Recursive, error) {
	if parts < 1 {
		parts = 1
	}
	if maxIter <= 0 {
		maxIter = int64(MaxRecursionIterations)
	}
	if stmt.With == nil || !stmt.With.Recursive {
		//lint:ignore coreerrors statement-level error; no CTE, step or table is in scope yet
		return nil, fmt.Errorf("statement has no recursive CTE")
	}
	// The CTEs' results are bound under their names while the statement
	// runs; the plans see their schemas through the layered lookup.
	ll := &layeredLookup{base: lookup, extra: map[string]sqltypes.Schema{}}
	r := &Recursive{parts: parts, maxIter: maxIter}
	var regular []*ast.CTE
	newBuilder := func() *plan.Builder {
		b := plan.NewBuilder(ll)
		for _, c := range regular {
			_ = b.RegisterCTE(c)
		}
		return b
	}
	for _, cte := range stmt.With.CTEs {
		if cte.Iterative {
			return nil, fmt.Errorf("WITH RECURSIVE cannot contain the iterative CTE %s", cte.Name)
		}
		if !referencesSelf(cte) {
			regular = append(regular, cte)
			continue
		}
		rc, err := planRecursiveCTE(cte, ll, newBuilder)
		if err != nil {
			return nil, fmt.Errorf("recursive CTE %s: %w", cte.Name, err)
		}
		r.ctes = append(r.ctes, rc)
	}
	final := &ast.SelectStmt{Body: stmt.Body, OrderBy: stmt.OrderBy, Limit: stmt.Limit, Offset: stmt.Offset}
	node, err := newBuilder().Build(final)
	if err != nil {
		return nil, err
	}
	r.Final = node
	return r, nil
}

func referencesSelf(cte *ast.CTE) bool {
	return cte.Select != nil && ast.CountStmtTableRefs(cte.Select, cte.Name) > 0
}

// planRecursiveCTE plans the base and recursive terms of one recursive
// CTE, making its schema visible under its name in ll (which newBuilder's
// builders plan against) in between.
func planRecursiveCTE(cte *ast.CTE, ll *layeredLookup, newBuilder func() *plan.Builder) (recursiveCTE, error) {
	rc := recursiveCTE{name: cte.Name}
	union, ok := cte.Select.Body.(*ast.UnionExpr)
	if !ok {
		return rc, fmt.Errorf("recursive CTE %s must be 'base UNION [ALL] recursive'", cte.Name)
	}
	// The recursive reference must be in the right arm only.
	if countBody(union.Left, cte.Name) > 0 {
		return rc, fmt.Errorf("the non-recursive arm must not reference %s", cte.Name)
	}
	nRefs := countBody(union.Right, cte.Name)
	if nRefs == 0 {
		return rc, fmt.Errorf("the recursive arm does not reference %s", cte.Name)
	}
	if nRefs > 1 {
		return rc, fmt.Errorf("the recursive arm may reference %s only once", cte.Name)
	}
	if bodyHasAggregate(union.Right) {
		// The ANSI restriction the paper's extension removes.
		return rc, fmt.Errorf("aggregate functions are not allowed in the recursive part of %s; use WITH ITERATIVE", cte.Name)
	}
	rc.all = union.All

	base, err := newBuilder().Build(&ast.SelectStmt{Body: union.Left})
	if err != nil {
		return rc, fmt.Errorf("base term: %w", err)
	}
	rc.base = base
	rc.schema = plan.Schema(base)
	if len(cte.Cols) > 0 {
		if len(cte.Cols) != len(rc.schema) {
			return rc, fmt.Errorf("CTE declares %d columns but the base term produces %d", len(cte.Cols), len(rc.schema))
		}
		for i := range rc.schema {
			rc.schema[i].Name = cte.Cols[i]
		}
	}
	// The recursive term reads the CTE under its name: the working table
	// of the round (standard semi-naive evaluation).
	ll.add(cte.Name, rc.schema)
	rc.rec, err = newBuilder().Build(&ast.SelectStmt{Body: union.Right})
	if err != nil {
		return rc, fmt.Errorf("recursive term: %w", err)
	}
	if len(rc.rec.Columns()) != len(rc.schema) {
		return rc, fmt.Errorf("recursive term produces %d columns, base term %d", len(rc.rec.Columns()), len(rc.schema))
	}
	return rc, nil
}

// RunContext evaluates the statement under ctx with params bound to its
// literal slots (nil: as parsed): each recursive CTE to its fixed point,
// then the final query. The CTEs' results are dropped when it returns.
func (r *Recursive) RunContext(ctx context.Context, rt *exec.StoreRuntime, params []sqltypes.Value) ([]sqltypes.Row, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The run memo, as a step program's run has one: each round's joins
	// take the index of a table the recursion does not change from it
	// instead of building it again, and every plan compiles once.
	indexes, compiled := exec.NewIndexCache(), exec.NewCompileCache(params)
	defer indexes.Clear()
	defer compiled.Clear()
	rt = rt.WithMemo(indexes, compiled)
	created := make([]string, 0, len(r.ctes))
	defer func() {
		for _, name := range created {
			rt.Results.Drop(name)
		}
	}()
	for _, rc := range r.ctes {
		created = append(created, rc.name)
		if err := rc.eval(ctx, rt, r.parts, r.maxIter); err != nil {
			return nil, fmt.Errorf("recursive CTE %s: %w", rc.name, err)
		}
	}
	rows, err := exec.RunContext(ctx, r.Final, rt, nil)
	if err != nil {
		return nil, WrapCancel(err, 0, 0, "recursive CTE final query")
	}
	return rows, nil
}

// eval runs the recursive union to its fixed point and stores the
// result under the CTE name.
func (rc recursiveCTE) eval(ctx context.Context, rt *exec.StoreRuntime, parts int, maxIter int64) error {
	baseRows, err := exec.RunContext(ctx, rc.base, rt, nil)
	if err != nil {
		return WrapCancel(err, 0, 0, "recursive CTE base term")
	}
	schema := rc.schema
	dedup := !rc.all
	seen := sqltypes.NewKeyTable(len(schema), 0)
	result := storage.NewTable(rc.name, schema, parts)
	working := storage.NewTable(rc.name, schema, parts)
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
	rt.Results.Put(rc.name, working)

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
			return &IterationCapError{CTE: rc.name, Cap: maxIter,
				Diags: []string{"recursive UNION did not reach a fixed point (implicit termination has no static bound)"}}
		}
		rows, err := exec.RunContext(ctx, rc.rec, rt, nil)
		if err != nil {
			return WrapCancel(err, int(iter), 0, "recursive CTE")
		}
		next := storage.NewTable(rc.name, schema, parts)
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
		rt.Results.Put(rc.name, working)
		// The round's working table is replaced: its indexes go at the
		// next sweep, the invariant tables' stay.
		rt.Indexes().Sweep()
	}

	rt.Results.Put(rc.name, result)
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
