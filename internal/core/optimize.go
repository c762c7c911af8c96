package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/dataflow"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// ---------------------------------------------------------------------
// Predicate push down (§V-B)
// ---------------------------------------------------------------------

// pushDownPredicates moves safe conjuncts of Qf's WHERE into the
// non-iterative part R0, returning the filtered plan and the pushed
// conjuncts (in their original qualified form, for the verifier's
// independent re-check). A blind push is wrong for PR-style queries
// (neighbours of filtered-out nodes feed the computation), so the push
// only happens when:
//
//   - the termination condition is Metadata counting iterations. Data
//     and Delta conditions observe the CTE contents, and an UPDATES
//     counter observes the per-iteration row counts — a push would
//     change all of them and with that the iteration count;
//   - the iterative part reads the CTE exactly once, with no joins, no
//     aggregates and no grouping (each output row derives from exactly
//     one input row);
//   - Qf's FROM is exactly the CTE;
//   - every column the predicate references is iteration-invariant:
//     the iterative part projects it through unchanged.
//
// The FF query of Figure 6 satisfies all of these; PR and SSSP do not.
func pushDownPredicates(r0 plan.Node, cte *ast.CTE, schema sqltypes.Schema, final *ast.SelectStmt) (plan.Node, []ast.Expr) {
	if cte.Until.Type != ast.TermMetadata || cte.Until.CountUpdates {
		return r0, nil
	}
	invariant := invariantColumns(cte, schema)
	if invariant == nil {
		return r0, nil
	}

	finalCore, ok := final.Body.(*ast.SelectCore)
	if !ok || finalCore.Where == nil {
		return r0, nil
	}
	base, ok := finalCore.From.(*ast.BaseTable)
	if !ok || !strings.EqualFold(base.Name, cte.Name) {
		return r0, nil
	}
	alias := base.Alias
	if alias == "" {
		alias = base.Name
	}

	var pushed, kept []ast.Expr
	for _, conj := range ast.SplitConjuncts(finalCore.Where) {
		if conjPushable(conj, alias, schema, invariant) {
			pushed = append(pushed, conj)
		} else {
			kept = append(kept, conj)
		}
	}
	if len(pushed) == 0 {
		return r0, nil
	}
	finalCore.Where = ast.JoinConjuncts(kept)
	cond := make([]ast.Expr, len(pushed))
	for i, conj := range pushed {
		cond[i] = unqualify(conj)
	}
	return &plan.Filter{Input: r0, Cond: ast.JoinConjuncts(cond)}, pushed
}

// invariantColumns returns, for each CTE column position, whether the
// iterative part propagates it verbatim — or nil when the iterative
// part's shape disqualifies pushing altogether.
func invariantColumns(cte *ast.CTE, schema sqltypes.Schema) []bool {
	core, ok := cte.Iter.Body.(*ast.SelectCore)
	if !ok {
		return nil
	}
	from, ok := core.From.(*ast.BaseTable)
	if !ok || !strings.EqualFold(from.Name, cte.Name) {
		return nil // joins or a different source: not pushable
	}
	if len(core.GroupBy) > 0 || core.Having != nil || core.Distinct {
		return nil
	}
	fromAlias := from.Alias
	if fromAlias == "" {
		fromAlias = from.Name
	}
	for _, it := range core.Items {
		if ast.HasAggregate(it.Expr) {
			return nil
		}
	}
	if len(core.Items) != len(schema) {
		return nil
	}
	inv := make([]bool, len(schema))
	for i, it := range core.Items {
		ref, ok := it.Expr.(*ast.ColumnRef)
		if !ok {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, fromAlias) {
			continue
		}
		if idx := schema.ColumnIndex(ref.Name); idx == i {
			inv[i] = true
		}
	}
	return inv
}

// conjPushable reports whether one conjunct only references invariant
// CTE columns.
func conjPushable(conj ast.Expr, alias string, schema sqltypes.Schema, invariant []bool) bool {
	if ast.HasAggregate(conj) {
		return false
	}
	ok := true
	ast.WalkExpr(conj, func(e ast.Expr) bool {
		if ref, isRef := e.(*ast.ColumnRef); isRef {
			if ref.Table != "" && !strings.EqualFold(ref.Table, alias) {
				ok = false
				return false
			}
			idx := schema.ColumnIndex(ref.Name)
			if idx < 0 || !invariant[idx] {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// unqualify strips table qualifiers so the pushed predicate compiles
// against R0's output columns.
func unqualify(e ast.Expr) ast.Expr {
	return ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
		if ref, ok := x.(*ast.ColumnRef); ok && ref.Table != "" {
			return &ast.ColumnRef{Name: ref.Name}
		}
		return x
	})
}

// ---------------------------------------------------------------------
// Common-result extraction (§V-A, Figure 5)
// ---------------------------------------------------------------------

// extractCommonResults hoists iteration-invariant join blocks out of
// the iterative part: maximal sets of non-CTE base tables connected by
// inner joins whose conditions only reference each other. The block is
// materialized once before the loop (Common#k) and the iterative part
// is rewritten to read it. WHERE conjuncts referencing block members
// stay in the iterative part (rewritten), preserving outer-join
// semantics.
func (r *rewriter) extractCommonResults(iter *ast.SelectStmt, cteName string, b *plan.Builder) (*ast.SelectStmt, []Step, error) {
	core, ok := iter.Body.(*ast.SelectCore)
	if !ok || core.From == nil {
		return iter, nil, nil
	}
	parsed, ok := ast.ParseChain(core, r.lookup.TableSchema)
	if !ok || len(parsed.Members) < 2 || parsed.HasBadAlias {
		return iter, nil, nil // not a chain, or unnamed/ambiguous members: skip
	}
	chain := parsed.Members

	isCTE := func(i int) bool {
		switch t := chain[i].Ref.(type) {
		case *ast.BaseTable:
			return strings.EqualFold(t.Name, cteName)
		case *ast.SubqueryRef:
			return ast.CountStmtTableRefs(t.Select, cteName) > 0
		}
		return true
	}

	// Find one extractable set S.
	set := findCommonSet(chain, parsed.Aliases, isCTE, core.Where)
	if len(set) < 2 {
		return iter, nil, nil
	}

	// Unqualified references anywhere in the iterative part that could
	// name a member column make the rewrite ambiguous: skip.
	if hasUnqualifiedMemberRefs(core, chain, set) {
		return iter, nil, nil
	}

	r.commons++
	commonName := fmt.Sprintf("Common#%d", r.commons)
	commonStmt, mapping, err := buildCommonStmt(chain, set, commonName)
	if err != nil {
		r.commons--
		return iter, nil, nil // unbuildable (e.g. condition ordering): skip
	}

	rewritten := rewriteIterWithCommon(core, chain, set, commonName, mapping)
	newIter := &ast.SelectStmt{Body: rewritten, OrderBy: iter.OrderBy, Limit: iter.Limit, Offset: iter.Offset}

	// Column-level dataflow over the common block (OptColumnPruning): WHERE
	// conjuncts over common columns alone are evaluated once before the
	// loop instead of on every iteration, and member columns nothing
	// references after that are never materialized at all.
	var prunedCols []string
	if r.prog.runs(OptColumnPruning) {
		hoistCommonFilters(commonStmt, newIter, commonName, mapping)
		prunedCols = pruneCommonColumns(commonStmt, newIter, commonName)
	}

	commonPlan, err := b.Build(commonStmt)
	if err != nil {
		r.commons--
		return iter, nil, nil
	}
	commonSchema := plan.Schema(commonPlan)
	r.lookup.add(commonName, commonSchema)
	if r.prog.runs(OptColumnPruning) {
		live := make([]string, len(commonSchema))
		for i, c := range commonSchema {
			live[i] = c.Name
		}
		r.noteDataflow(commonName, live, prunedCols)
	}

	step := &MaterializeStep{Into: commonName, Plan: commonPlan, IsCommon: true}
	return newIter, []Step{step}, nil
}

// commonAttachInfo inspects the rewritten FROM chain and returns the
// join that attaches the common-block scan (nil when the scan is the
// chain head). The second result is false when the shape forbids
// hoisting a filter into the block: every join between the scan and the
// chain root must keep the common side non-null-supplying once the
// attach is made inner — inner and left joins qualify (the scan sits on
// the preserved left side of every later join in a left-deep chain),
// right and full do not.
func commonAttachInfo(from ast.TableRef, commonName string) (*ast.JoinRef, bool) {
	cur := from
	for {
		j, isJoin := cur.(*ast.JoinRef)
		if !isJoin {
			bt, isBase := cur.(*ast.BaseTable)
			return nil, isBase && strings.EqualFold(bt.Name, commonName)
		}
		if j.Type != ast.InnerJoin && j.Type != ast.LeftJoin {
			return nil, false
		}
		if bt, isBase := j.Right.(*ast.BaseTable); isBase && strings.EqualFold(bt.Name, commonName) {
			return j, true
		}
		cur = j.Left
	}
}

// hoistCommonFilters moves WHERE conjuncts that reference only common
// columns — and are null-rejecting and aggregate-free — out of the
// iterative part and into the common block's statement, so they are
// evaluated once before the loop and the columns they reference can die
// inside it. When the common scan was attached by a LEFT join the
// attach switches to INNER: the hoisted conjunct rejects NULL on the
// common side, which is exactly the outer-behaves-as-inner argument
// whereNullRejects already makes for extraction. Reports whether
// anything was hoisted.
func hoistCommonFilters(commonStmt, newIter *ast.SelectStmt, commonName string, mapping map[[2]string]string) bool {
	core, ok := newIter.Body.(*ast.SelectCore)
	if !ok || core.Where == nil {
		return false
	}
	attach, shapeOK := commonAttachInfo(core.From, commonName)
	if !shapeOK {
		return false
	}
	commonAlias := strings.ToLower(commonName)
	reverse := make(map[string][2]string, len(mapping))
	for k, v := range mapping {
		reverse[v] = k
	}
	var hoisted, kept []ast.Expr
	for _, conj := range ast.SplitConjuncts(core.Where) {
		if c, can := unmapCommonConjunct(conj, commonAlias, reverse); can {
			hoisted = append(hoisted, c)
		} else {
			kept = append(kept, conj)
		}
	}
	if len(hoisted) == 0 {
		return false
	}
	cs := commonStmt.Body.(*ast.SelectCore) // buildCommonStmt always emits a core
	cs.Where = ast.JoinConjuncts(append(ast.SplitConjuncts(cs.Where), hoisted...))
	core.Where = ast.JoinConjuncts(kept)
	if attach != nil {
		attach.Type = ast.InnerJoin
	}
	return true
}

// unmapCommonConjunct accepts a conjunct for hoisting when every column
// reference is qualified with the common alias and maps back to a
// member column, no aggregate appears, and the conjunct is
// null-rejecting (same test as whereNullRejects: IS NULL, CASE, OR and
// COALESCE disqualify). It returns the conjunct rewritten to the
// member-alias references the common statement uses.
func unmapCommonConjunct(conj ast.Expr, commonAlias string, reverse map[string][2]string) (ast.Expr, bool) {
	if ast.HasAggregate(conj) {
		return nil, false
	}
	ok := true
	hasRef := false
	ast.WalkExpr(conj, func(e ast.Expr) bool {
		switch t := e.(type) {
		case *ast.ColumnRef:
			if strings.ToLower(t.Table) != commonAlias {
				ok = false
				return false
			}
			if _, known := reverse[strings.ToLower(t.Name)]; !known {
				ok = false
				return false
			}
			hasRef = true
		case *ast.Star:
			ok = false
		case *ast.IsNullExpr, *ast.CaseExpr:
			ok = false // not null-rejecting
		case *ast.BinaryExpr:
			if strings.EqualFold(t.Op, "OR") {
				ok = false
			}
		case *ast.FuncCall:
			if strings.EqualFold(t.Name, "COALESCE") {
				ok = false
			}
		}
		return ok
	})
	if !ok || !hasRef {
		return nil, false
	}
	out := ast.RewriteExpr(conj, func(x ast.Expr) ast.Expr {
		if ref, isRef := x.(*ast.ColumnRef); isRef {
			mc := reverse[strings.ToLower(ref.Name)]
			return &ast.ColumnRef{Table: mc[0], Name: mc[1]}
		}
		return x
	})
	return out, true
}

// pruneCommonColumns drops common-block select items the rewritten
// iterative part never references, returning the dropped output names.
// Item 0 survives unconditionally: materialization partitions on the
// first column and pruning must not change row placement.
func pruneCommonColumns(commonStmt, newIter *ast.SelectStmt, commonName string) []string {
	cs, ok := commonStmt.Body.(*ast.SelectCore)
	if !ok {
		return nil
	}
	alias := strings.ToLower(commonName)
	refs, star := dataflow.ReferencedColumns(newIter, map[string]bool{alias: true})
	if star {
		return nil
	}
	var keep []ast.SelectItem
	var pruned []string
	for i, it := range cs.Items {
		if i == 0 || refs[strings.ToLower(it.Alias)] {
			keep = append(keep, it)
		} else {
			pruned = append(pruned, it.Alias)
		}
	}
	if len(pruned) == 0 {
		return nil
	}
	cs.Items = keep
	return pruned
}

// findCommonSet picks the first maximal extractable member set.
func findCommonSet(chain []ast.ChainMember, aliasIdx map[string]int, isCTE func(int) bool, where ast.Expr) map[int]bool {

	for j := 1; j < len(chain); j++ {
		if chain[j].Join != ast.InnerJoin || isCTE(j) || chain[j].On == nil || chain[j].Schema == nil {
			continue
		}
		// All condition refs must be qualified and resolve to non-CTE
		// base tables.
		set := map[int]bool{j: true}
		valid := true
		for _, ref := range ast.ColumnRefs(chain[j].On) {
			if ref.Table == "" {
				valid = false
				break
			}
			idx, ok := aliasIdx[strings.ToLower(ref.Table)]
			if !ok || isCTE(idx) {
				valid = false
				break
			}
			if chain[idx].Schema == nil {
				valid = false
				break
			}
			set[idx] = true
		}
		if !valid || len(set) < 2 {
			continue
		}
		// Attachment safety: the anchor must be attached by an inner
		// join, be the chain head, or have a null-rejecting WHERE
		// conjunct over a member (which makes the original outer join
		// behave as inner for the block).
		anchor := minKey(set)
		if anchor != 0 && chain[anchor].Join != ast.InnerJoin &&
			!whereNullRejects(where, chain, set) {
			continue
		}
		// Every non-anchor member's condition must reference only set
		// members (the anchor's condition becomes the attach
		// condition).
		good := true
		for idx := range set {
			if idx == anchor || idx == j {
				continue
			}
			if chain[idx].Join != ast.InnerJoin || chain[idx].On == nil {
				good = false
				break
			}
			for _, ref := range ast.ColumnRefs(chain[idx].On) {
				k, ok := aliasIdx[strings.ToLower(ref.Table)]
				if !ok || !set[k] {
					good = false
					break
				}
			}
		}
		if good {
			return set
		}
	}
	return nil
}

func minKey(m map[int]bool) int {
	min := -1
	for k := range m {
		if min < 0 || k < min {
			min = k
		}
	}
	return min
}

// whereNullRejects reports whether some WHERE conjunct references a
// member of the set and is strict (ast.Strict), so that it rejects the
// rows an outer join NULL-extends on the members' side.
func whereNullRejects(where ast.Expr, chain []ast.ChainMember, set map[int]bool) bool {
	memberAliases := map[string]bool{}
	for idx := range set {
		memberAliases[chain[idx].Alias] = true
	}
	for _, conj := range ast.SplitConjuncts(where) {
		if !ast.Strict(conj) {
			continue
		}
		for _, ref := range ast.ColumnRefs(conj) {
			if memberAliases[strings.ToLower(ref.Table)] {
				return true
			}
		}
	}
	return false
}

// hasUnqualifiedMemberRefs scans the iterative part for unqualified
// column references that could belong to a member table.
func hasUnqualifiedMemberRefs(core *ast.SelectCore, chain []ast.ChainMember, set map[int]bool) bool {
	memberCols := map[string]bool{}
	for idx := range set {
		for _, c := range chain[idx].Schema {
			memberCols[strings.ToLower(c.Name)] = true
		}
	}
	found := false
	check := func(e ast.Expr) {
		ast.WalkExpr(e, func(x ast.Expr) bool {
			if ref, ok := x.(*ast.ColumnRef); ok && ref.Table == "" && memberCols[strings.ToLower(ref.Name)] {
				found = true
			}
			return !found
		})
	}
	for _, it := range core.Items {
		check(it.Expr)
	}
	check(core.Where)
	for _, g := range core.GroupBy {
		check(g)
	}
	check(core.Having)
	for i := range chain {
		if !set[i] {
			check(chain[i].On)
		}
	}
	return found
}

// buildCommonStmt creates the SELECT for the common block and the
// column mapping (alias, col) -> common column name.
func buildCommonStmt(chain []ast.ChainMember, set map[int]bool, commonName string) (*ast.SelectStmt, map[[2]string]string, error) {
	anchor := minKey(set)
	var members []int
	for i := range chain {
		if set[i] {
			members = append(members, i)
		}
	}

	mapping := make(map[[2]string]string)
	var items []ast.SelectItem
	for _, idx := range members {
		alias := chain[idx].Alias
		for _, col := range chain[idx].Schema {
			out := alias + "_" + strings.ToLower(col.Name)
			mapping[[2]string{alias, strings.ToLower(col.Name)}] = out
			items = append(items, ast.SelectItem{
				Expr:  &ast.ColumnRef{Table: alias, Name: col.Name},
				Alias: out,
			})
		}
	}

	// FROM: fold members left to right; non-anchor members keep their
	// join conditions (they reference set members only).
	var from ast.TableRef
	for _, idx := range members {
		bt := chain[idx].Ref.(*ast.BaseTable)
		leaf := &ast.BaseTable{Name: bt.Name, Alias: chain[idx].Alias}
		if from == nil {
			from = leaf
			continue
		}
		var on ast.Expr
		if idx != anchor {
			on = ast.CloneExpr(chain[idx].On)
		}
		if on == nil {
			return nil, nil, fmt.Errorf("member %s has no usable join condition", chain[idx].Alias)
		}
		from = &ast.JoinRef{Type: ast.InnerJoin, Left: from, Right: leaf, On: on}
	}

	stmt := &ast.SelectStmt{Body: &ast.SelectCore{Items: items, From: from}}
	return stmt, mapping, nil
}

// rewriteIterWithCommon rebuilds the iterative SELECT core around the
// materialized common block.
func rewriteIterWithCommon(core *ast.SelectCore, chain []ast.ChainMember, set map[int]bool,
	commonName string, mapping map[[2]string]string) *ast.SelectCore {

	anchor := minKey(set)
	commonAlias := strings.ToLower(commonName)

	remap := func(e ast.Expr) ast.Expr {
		return ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
			if ref, ok := x.(*ast.ColumnRef); ok && ref.Table != "" {
				key := [2]string{strings.ToLower(ref.Table), strings.ToLower(ref.Name)}
				if out, ok := mapping[key]; ok {
					return &ast.ColumnRef{Table: commonAlias, Name: out}
				}
			}
			return x
		})
	}

	// Rebuild the chain: members other than the anchor disappear; the
	// anchor becomes the common-block scan attached with its original
	// join type and remapped condition.
	var from ast.TableRef
	for i := range chain {
		if set[i] && i != anchor {
			continue
		}
		var leaf ast.TableRef
		typ := chain[i].Join
		on := chain[i].On
		if i == anchor {
			leaf = &ast.BaseTable{Name: commonName, Alias: commonName}
		} else {
			leaf = chain[i].Ref
		}
		if from == nil {
			from = leaf
			continue
		}
		from = &ast.JoinRef{Type: typ, Left: from, Right: leaf, On: remap(on)}
	}

	out := &ast.SelectCore{
		Distinct: core.Distinct,
		From:     from,
		Where:    remap(core.Where),
		Having:   remap(core.Having),
	}
	for _, it := range core.Items {
		out.Items = append(out.Items, ast.SelectItem{Expr: remap(it.Expr), Alias: it.Alias})
	}
	for _, g := range core.GroupBy {
		out.GroupBy = append(out.GroupBy, remap(g))
	}
	return out
}
