package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/aggprop"
	"dbspinner/internal/ast"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// Rewrite turns a SELECT into its step program. It is the functional
// rewrite of Algorithm 1 for every iterative CTE, and the same form for
// every recursive CTE of a WITH RECURSIVE (expandRecursive); Qf is
// planned against the materialized CTE results. A statement with
// neither is its own final query: a program with no steps, built with
// no analysis and not verified.
func Rewrite(stmt *ast.SelectStmt, lookup plan.TableLookup, opts Options) (*Program, error) {
	if opts.Parts < 1 {
		opts.Parts = 1
	}
	prog := &Program{Options: opts, Lookup: lookup}
	if !HasIterative(stmt) && (stmt.With == nil || !stmt.With.Recursive) {
		fp, err := plan.NewBuilder(lookup).Build(stmt)
		if err != nil {
			return nil, err
		}
		prog.Final, prog.FinalColumns = fp, fp.Columns()
		return prog, nil
	}

	ll := &layeredLookup{base: lookup, extra: map[string]sqltypes.Schema{}}
	rw := &rewriter{lookup: ll, prog: prog}

	// Qf is the statement without its WITH clause; regular CTEs are
	// registered on the builders instead.
	final := &ast.SelectStmt{Body: stmt.Body, OrderBy: stmt.OrderBy, Limit: stmt.Limit, Offset: stmt.Offset}
	var regular []*ast.CTE
	for _, cte := range stmt.With.CTEs {
		switch {
		case cte.Iterative:
			if err := rw.expandCTE(cte, regular, final, stmt.With.CTEs); err != nil {
				return nil, fmt.Errorf("iterative CTE %s: %w", cte.Name, err)
			}
		case stmt.With.Recursive && referencesSelf(cte):
			if err := rw.expandRecursive(cte, regular); err != nil {
				return nil, fmt.Errorf("recursive CTE %s: %w", cte.Name, err)
			}
		default:
			regular = append(regular, cte)
		}
	}

	fb := rw.newBuilder(regular)
	fp, err := fb.Build(final)
	if err != nil {
		return nil, fmt.Errorf("final query: %w", err)
	}
	prog.Final = fp
	prog.FinalColumns = fp.Columns()

	// Liveness-driven truncation (OptColumnPruning): free each
	// intermediate result right after its last possible read.
	if opts.runs(OptColumnPruning) {
		rw.insertTruncations()
	}
	// The step list is final: point each claim at the restricted step
	// it installed.
	for i, s := range prog.Steps {
		if res := restrictionOf(s); res != nil {
			for c := range prog.AggClaims {
				if prog.AggClaims[c].CTE == res.CTE {
					prog.AggClaims[c].Step = i + 1
				}
			}
		}
	}

	// Static partition-property analysis (internal/distprop): infer the
	// distribution property of every step's result, license shuffle
	// elisions the machine may take, and record both for EXPLAIN and
	// for the verifier's independent re-derivation. Only an elision acts
	// on the result, so only a program that may elide — the machine over
	// more than one partition, elision on — derives it here; EXPLAIN
	// derives it for any other program on demand (DeriveDistProps).
	if opts.runs(OptShuffleElision) && opts.Parallel && opts.Parts > 1 {
		prog.deriveDistProps(true)
	}

	// Post-rewrite verification (Options.Verify): an independent pass
	// over the finished step program that rejects structurally invalid
	// plans before they can execute and silently produce wrong answers.
	if opts.Verify && verifier != nil {
		if err := verifier(prog, stmt); err != nil {
			return nil, fmt.Errorf("rewrite produced an invalid step program: %w", err)
		}
	}
	return prog, nil
}

// layeredLookup adds rewrite-time schemas of pending intermediate
// results on top of the engine's lookup.
type layeredLookup struct {
	base  plan.TableLookup
	extra map[string]sqltypes.Schema
}

func (l *layeredLookup) TableSchema(name string) (sqltypes.Schema, bool) {
	return l.base.TableSchema(name)
}

func (l *layeredLookup) ResultSchema(name string) (sqltypes.Schema, bool) {
	if s, ok := l.extra[strings.ToLower(name)]; ok {
		return s, true
	}
	return l.base.ResultSchema(name)
}

func (l *layeredLookup) add(name string, s sqltypes.Schema) {
	l.extra[strings.ToLower(name)] = s
}

type rewriter struct {
	lookup  *layeredLookup
	prog    *Program // the program under construction, and its Options
	commons int      // counter for Common#k names
}

func (r *rewriter) newBuilder(regular []*ast.CTE) *plan.Builder {
	b := plan.NewBuilder(r.lookup)
	for _, cte := range regular {
		// Registration of regular CTEs cannot fail (they are never
		// iterative here).
		_ = b.RegisterCTE(cte)
	}
	return b
}

// keyCol is the column assumed to identify a row of every iterative CTE:
// its first. The paper uses a user primary key or generates row IDs; our
// schemas key on the first column, which holds the node in every
// evaluation query. Nothing proves it unique: only the keyed merge and
// the keyed diff check it, at run time, on the rows they see. The keyed
// merge, the copy-back's identification pass, the Delta condition's
// snapshot and the restricted steps all key on it, and it is stated
// nowhere else.
const keyCol = 0

// expandCTE appends the step program of one iterative CTE (Algorithm 1).
// allCTEs is the statement's full WITH list: sibling CTE bodies are
// observers for the live-column analysis.
func (r *rewriter) expandCTE(cte *ast.CTE, regular []*ast.CTE, final *ast.SelectStmt, allCTEs []*ast.CTE) error {
	if cte.Init == nil || cte.Iter == nil {
		//lint:ignore coreerrors Rewrite wraps every expandCTE error with the CTE name
		return fmt.Errorf("missing ITERATE parts")
	}
	builder := r.newBuilder(regular)

	// --- R0: the non-iterative part -----------------------------------
	r0, err := builder.Build(cte.Init)
	if err != nil {
		return fmt.Errorf("non-iterative part: %w", err)
	}
	r0, cteSchema, err := applyCTEColumns(r0, cte)
	if err != nil {
		return err
	}

	// Predicate push down (§V-B): move safe Qf predicates into R0. The
	// pushed conjuncts are recorded on the program so the verifier can
	// re-derive the safety conditions independently.
	if r.prog.runs(OptPushdown) {
		var pushed []ast.Expr
		r0, pushed = pushDownPredicates(r0, cte, cteSchema, final)
		for _, conj := range pushed {
			r.prog.Pushed = append(r.prog.Pushed, PushedPredicate{CTE: cte.Name, Conj: conj})
		}
	}

	// Projection pruning (OptColumnPruning): when the live-column
	// analysis proves some declared columns unobservable, the whole
	// schema family (cte, Intermediate#, Merge#, Frontier#)
	// carries only the live ones. hadWhere is decided on the original
	// statement — pruning and hoisting never change the merge/rename
	// path choice.
	iterStmt := cte.Iter
	hadWhere := stmtHasWhere(cte.Iter)
	var prunedCols []string
	if r.prog.runs(OptColumnPruning) {
		r0, cteSchema, iterStmt, prunedCols = r.pruneCTEColumns(cte, r0, cteSchema, final, allCTEs)
		live := make([]string, len(cteSchema))
		for i, c := range cteSchema {
			live[i] = c.Name
		}
		r.noteDataflow(cte.Name, live, prunedCols)
	}

	// The CTE's result schema becomes visible to Ri and Qf.
	r.lookup.add(cte.Name, cteSchema)

	var commonSteps []Step
	if r.prog.runs(OptCommonResults) {
		var rewritten *ast.SelectStmt
		rewritten, commonSteps, err = r.extractCommonResults(iterStmt, cte.Name, builder)
		if err != nil {
			return fmt.Errorf("common-result rewrite: %w", err)
		}
		iterStmt = rewritten
	}

	workName := "Intermediate#" + cte.Name
	mergeName := "Merge#" + cte.Name
	loop := &LoopState{Term: cte.Until, CTEName: cte.Name, Cap: r.prog.loopCap(cte.Until)}

	// Algorithm 1 line 3 materializes Ri into the working table (the §II
	// duplicate-key check happens inside the merge step). Ri is built
	// once: with its outer reference reading the frontier, inside one of
	// the incremental steps, when the frontier license allows it, and as
	// written otherwise.
	work := r.chooseIncremental(cte, cteSchema, iterStmt, builder, loop, workName, hadWhere)
	if work == nil {
		ri, err := builder.Build(iterStmt)
		if err != nil {
			return fmt.Errorf("iterative part: %w", err)
		}
		if len(ri.Columns()) != len(cteSchema) {
			return fmt.Errorf("iterative part produces %d columns, CTE has %d", len(ri.Columns()), len(cteSchema))
		}
		if ri, err = renameTo(ri, cteSchema); err != nil {
			return err
		}
		work = &MaterializeStep{Into: workName, Plan: ri, CountsAsUpdate: true}
	}
	r.lookup.add(workName, cteSchema)
	r.lookup.add(mergeName, cteSchema)
	if cte.Until.Type == ast.TermData {
		condPlan, err := buildDataCondPlan(cte.Name, cte.Until.Expr, builder)
		if err != nil {
			return fmt.Errorf("termination condition: %w", err)
		}
		loop.CondPlan = condPlan
	}

	steps := &r.prog.Steps

	// Algorithm 1 line 1: materialize R0 into cteTable. Common results
	// are materialized before the loop as well (Figure 5 step 2).
	*steps = append(*steps, &MaterializeStep{Into: cte.Name, Plan: r0})
	*steps = append(*steps, commonSteps...)
	// Line 2: initialize the loop operator.
	*steps = append(*steps, &InitLoopStep{Loop: loop})

	countUpdates := cte.Until.Type == ast.TermMetadata && cte.Until.CountUpdates

	bodyStart := len(*steps)
	// Line 3: materialize Ri into the working table.
	*steps = append(*steps, work)

	if !hadWhere {
		// Lines 5-6: full update. Rename when optimized; otherwise the
		// Figure 8 baseline copies the rows back. An UPDATES counter
		// needs the changed-row identification pass, which only the
		// copy-back performs — rename just swaps pointers — so the
		// rename optimization is skipped for it (same reasoning that
		// refuses predicate push down under UPDATES termination).
		if r.prog.runs(OptRename) && !countUpdates {
			*steps = append(*steps, &RenameStep{From: workName, To: cte.Name})
		} else {
			*steps = append(*steps, &CopyBackStep{From: workName, To: cte.Name, Loop: loop})
		}
	} else {
		// Lines 8-10: partial update through the fused merge operator.
		*steps = append(*steps, &MergeStep{CTE: cte.Name, Work: workName, Into: mergeName, Loop: loop})
		*steps = append(*steps, &RenameStep{From: mergeName, To: cte.Name})
		*steps = append(*steps, &TruncateStep{Name: workName})
	}

	// Lines 12-14: update the loop and conditionally jump back.
	*steps = append(*steps, &UpdateLoopStep{Loop: loop})
	*steps = append(*steps, &LoopStep{Loop: loop, BodyStart: bodyStart})
	return nil
}

// chooseIncremental decides how the loop body evaluates Ri, records the
// decision as the CTE's claim, and returns the incremental step to
// install, with Ri built into it — nil for the full plan, which the
// caller builds. The choice follows from what the
// rewrite observes, not from a knob: a licensed merge-path query (Ri
// has a WHERE) gets the delta step, because the merge publishes the
// changed keys and carries every other row forward; a licensed
// rename-path query with aggregates gets the maintenance step, because
// there nothing identifies changes and the snapshot diff has to; and
// everything else — unlicensed, nothing to cache, switched off, or a
// parallel run, where the restricted form measurably loses — keeps the
// full plan. Results are identical on every path.
func (r *rewriter) chooseIncremental(cte *ast.CTE, schema sqltypes.Schema, iterStmt *ast.SelectStmt,
	b *plan.Builder, loop *LoopState, workName string, hadWhere bool) Step {

	r.prog.AggClaims = append(r.prog.AggClaims, AggClaim{CTE: cte.Name})
	claim := &r.prog.AggClaims[len(r.prog.AggClaims)-1]
	switch {
	case !r.prog.runs(OptIncremental):
		claim.Reason = "withheld: disabled"
		return nil
	case r.prog.Parallel && r.prog.Parts > 1:
		claim.Reason = "withheld: parallel machine"
		return nil
	}
	// The license is proved on the ORIGINAL iterative AST: its
	// propagation rules must name catalog base tables, which the
	// common-result rewrite replaces with Common#k.
	claim.Verdict = aggprop.AnalyzeCTE(cte, schema, r.lookup)
	switch {
	case !claim.Verdict.Licensed:
		claim.Reason = "not licensed: " + claim.Verdict.Diags[0]
		return nil
	case !hadWhere && len(claim.Verdict.Calls) == 0:
		claim.Reason = "licensed, no aggregates on the rename path"
		return nil
	}
	res, why := r.buildRestriction(cte, schema, iterStmt, b, claim.Verdict, workName)
	if why != "" {
		claim.Verdict.Licensed = false
		claim.Reason = "not licensed: " + why
		return nil
	}
	if hadWhere {
		return &DeltaMaterializeStep{Restriction: res, Loop: loop}
	}
	return &MaintainAggStep{Restriction: res, Loop: loop, Check: r.prog.Paranoid}
}

// applyCTEColumns renames a plan's outputs to the CTE column list and
// returns the CTE schema.
func applyCTEColumns(n plan.Node, cte *ast.CTE) (plan.Node, sqltypes.Schema, error) {
	cols := n.Columns()
	names := cte.Cols
	if len(names) == 0 {
		names = make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.Name
		}
	}
	if len(names) != len(cols) {
		return nil, nil, fmt.Errorf("CTE declares %d columns but the non-iterative part produces %d", len(names), len(cols))
	}
	schema := make(sqltypes.Schema, len(cols))
	for i, c := range cols {
		schema[i] = sqltypes.Column{Name: names[i], Type: c.Type}
	}
	renamed, err := renameTo(n, schema)
	if err != nil {
		return nil, nil, err
	}
	return renamed, schema, nil
}

// renameTo exposes a plan's output under the given schema's column
// names (positions must match). When the node is already a projection,
// its item names are rewritten in place instead of stacking a second
// projection on top.
func renameTo(n plan.Node, schema sqltypes.Schema) (plan.Node, error) {
	cols := n.Columns()
	if len(cols) != len(schema) {
		return nil, fmt.Errorf("cannot rename %d columns to %d names", len(cols), len(schema))
	}
	if p, ok := n.(*plan.Project); ok {
		items := make([]plan.ProjItem, len(p.Items))
		copy(items, p.Items)
		for i := range items {
			items[i].Name = schema[i].Name
			if items[i].Type == sqltypes.Unknown || items[i].Type == sqltypes.Null {
				items[i].Type = schema[i].Type
			}
		}
		return &plan.Project{Input: p.Input, Items: items}, nil
	}
	items := make([]plan.ProjItem, len(cols))
	identical := true
	for i, c := range cols {
		typ := c.Type
		if typ == sqltypes.Unknown || typ == sqltypes.Null {
			typ = schema[i].Type
		}
		items[i] = plan.ProjItem{
			Expr: &ast.ColumnRef{Table: c.Table, Name: c.Name},
			Name: schema[i].Name,
			Type: typ,
		}
		if !strings.EqualFold(c.Name, schema[i].Name) || c.Table != "" {
			identical = false
		}
	}
	if identical {
		return n, nil
	}
	return &plan.Project{Input: n, Items: items}, nil
}

// stmtHasWhere reports whether the iterative part has a WHERE clause,
// which selects between the rename path and the merge path of
// Algorithm 1.
func stmtHasWhere(s *ast.SelectStmt) bool {
	core, ok := s.Body.(*ast.SelectCore)
	if !ok {
		return false
	}
	return core.Where != nil
}

// buildDataCondPlan compiles the Data termination check (§VI-B):
//
//	SELECT COUNT(CASE WHEN expr THEN 1 END), COUNT(*) FROM cte
func buildDataCondPlan(cteName string, cond ast.Expr, b *plan.Builder) (plan.Node, error) {
	stmt := &ast.SelectStmt{Body: &ast.SelectCore{
		Items: []ast.SelectItem{
			{Expr: &ast.FuncCall{Name: "COUNT", Args: []ast.Expr{
				&ast.CaseExpr{Whens: []ast.WhenClause{{Cond: ast.CloneExpr(cond), Result: ast.NewLiteral(sqltypes.NewInt(1))}}},
			}}, Alias: "matching"},
			{Expr: &ast.FuncCall{Name: "COUNT", Star: true}, Alias: "total"},
		},
		From: &ast.BaseTable{Name: cteName},
	}}
	return b.Build(stmt)
}

// HasIterative reports whether a statement's WITH clause contains an
// iterative CTE.
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
