package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Delta iteration (Options.DeltaIteration) is the semi-naive
// evaluation REX and DBSP build on, grafted onto the merge path: the
// identification pass of MergeStep already computes the rows each
// iteration changed, so iterations that touch a shrinking frontier
// (SSSP, converging PageRank) need not re-evaluate Ri over the whole
// CTE. The rewrite statically analyzes Ri and, when safe, replaces the
// working-table materialization with a DeltaMaterializeStep that feeds
// the outer reference from the affected frontier only.
//
// Soundness rests on the merge semantics: a key whose inputs did not
// change since the previous iteration re-derives exactly the row it
// produced then, and the merge already carries that row forward — so
// omitting the key from the outer scan is a no-op on the merged
// result. "Inputs" are approximated conservatively: a key k is
// affected when k itself changed, or some changed key reaches k
// through a key-equijoin over a base table (a DeltaProp rule). Inner
// references to the CTE keep reading the full table — restricting
// them would corrupt aggregates over neighbours — which is why every
// inner reference must be provably routed through such an equijoin
// for the analysis to succeed. Anything the analysis cannot prove
// falls back to the full plan, keeping results byte-identical.

// DeltaProp is one propagation rule: a key-equijoin path from an inner
// iterative reference through a base table back to the outer
// reference. When a CTE row with key k changed, every base-table row
// whose From column equals k marks its To column's value as affected.
type DeltaProp struct {
	Table string // catalog base table the equijoin path crosses
	From  int    // column equated with the inner reference's key
	To    int    // column equated with the outer reference's key
}

// deltaSafety is the successful outcome of the analysis.
type deltaSafety struct {
	// OuterAlias is the lowercased effective alias of the outer CTE
	// reference — the one whose key becomes output column 0 and whose
	// scan may be restricted.
	OuterAlias string
	Props      []DeltaProp
}

// buildDeltaStep runs the safety analysis on the original iterative
// part and, when it succeeds, compiles the restricted plan (the
// post-common iterStmt with the outer reference reading DeltaIn#cte)
// and returns the DeltaMaterializeStep for the loop body. A nil return
// means "fall back to the full plan".
func (r *rewriter) buildDeltaStep(cte *ast.CTE, schema sqltypes.Schema, iterStmt *ast.SelectStmt,
	full plan.Node, b *plan.Builder, loop *LoopState, workName string, key int) *DeltaMaterializeStep {

	an, ok := analyzeDeltaSafety(cte, schema, r.lookup)
	if !ok {
		return nil
	}
	deltaIn := "DeltaIn#" + cte.Name
	r.lookup.add(deltaIn, schema)
	sub, ok := substituteOuterRef(iterStmt, cte.Name, an.OuterAlias, deltaIn)
	if !ok {
		return nil
	}
	rp, err := b.Build(sub)
	if err != nil || len(rp.Columns()) != len(schema) {
		return nil
	}
	rp, err = renameTo(rp, schema)
	if err != nil {
		return nil
	}
	return &DeltaMaterializeStep{
		Into: workName, Full: full, Restricted: rp,
		DeltaIn: deltaIn, CTE: cte.Name, Delta: "Delta#" + cte.Name,
		Loop: loop, Props: an.Props, Key: key, Parts: r.opts.Parts,
	}
}

// analyzeDeltaSafety decides whether Ri's outer reference may be
// restricted to the affected frontier. It runs on the ORIGINAL
// iterative AST (before the common-result rewrite replaces base-table
// blocks with Common#k), because the propagation rules must name
// catalog base tables. The conditions:
//
//   - the body is a plain SELECT over a left-deep chain of named base
//     tables and CTE references, attached by inner or left joins;
//   - output column 0 is the bare key column of a CTE reference at the
//     head of the chain (never null-extended, so restricting its scan
//     restricts exactly the output keys), and any GROUP BY groups on
//     it;
//   - every OTHER reference to the CTE is equated on its key column
//     with a base-table column whose row also equates a (possibly
//     different) column with the outer key — yielding a DeltaProp —
//     or equated with the outer key directly;
//   - no DISTINCT, ORDER BY, LIMIT or OFFSET on the iterative part,
//     and no CTE references hidden in derived tables.
func analyzeDeltaSafety(cte *ast.CTE, schema sqltypes.Schema, lookup plan.TableLookup) (deltaSafety, bool) {
	var out deltaSafety
	if len(schema) == 0 || cte.Iter == nil {
		return out, false
	}
	if cte.Iter.OrderBy != nil || cte.Iter.Limit != nil || cte.Iter.Offset != nil {
		return out, false
	}
	core, ok := cte.Iter.Body.(*ast.SelectCore)
	if !ok || core.From == nil || core.Distinct || len(core.Items) == 0 {
		return out, false
	}
	chain, ok := flattenChain(core.From)
	if !ok {
		return out, false
	}

	type member struct {
		alias  string
		name   string // catalog/base name
		isCTE  bool
		schema sqltypes.Schema // base tables only
	}
	members := make([]member, len(chain))
	aliasIdx := make(map[string]int, len(chain))
	cteRefs := 0
	for i, it := range chain {
		if i > 0 && it.typ != ast.InnerJoin && it.typ != ast.LeftJoin {
			return out, false // right/full joins can emit non-outer keys
		}
		bt, isBase := it.ref.(*ast.BaseTable)
		if !isBase {
			return out, false // derived tables: give up
		}
		m := member{alias: it.alias, name: bt.Name}
		if strings.EqualFold(bt.Name, cte.Name) {
			m.isCTE = true
			m.schema = schema
			cteRefs++
		} else if s, found := lookup.TableSchema(bt.Name); found {
			m.schema = s
		}
		if _, dup := aliasIdx[m.alias]; dup || m.alias == "" {
			return out, false
		}
		aliasIdx[m.alias] = i
		members[i] = m
	}
	// Every reference to the CTE must be visible in the chain (none
	// hidden behind set operations — those fail the SelectCore check —
	// or derived tables, rejected above; the count cross-checks).
	if cteRefs == 0 || ast.CountStmtTableRefs(cte.Iter, cte.Name) != cteRefs {
		return out, false
	}

	keyName := schema[0].Name
	// resolve maps a column reference to the chain member that owns it;
	// unqualified references must have exactly one possible owner.
	resolve := func(ref *ast.ColumnRef) int {
		if ref.Table != "" {
			i, found := aliasIdx[strings.ToLower(ref.Table)]
			if !found {
				return -1
			}
			return i
		}
		owner := -1
		for i, m := range members {
			if m.schema == nil {
				return -1 // unknown schema: cannot prove uniqueness
			}
			if m.schema.ColumnIndex(ref.Name) >= 0 {
				if owner >= 0 {
					return -1
				}
				owner = i
			}
		}
		return owner
	}

	// Output column 0: the bare key of a CTE reference at the chain head.
	head, ok := core.Items[0].Expr.(*ast.ColumnRef)
	if !ok || !strings.EqualFold(head.Name, keyName) {
		return out, false
	}
	outer := resolve(head)
	if outer != 0 || !members[outer].isCTE {
		return out, false
	}
	if len(core.GroupBy) > 0 {
		grouped := false
		for _, g := range core.GroupBy {
			if ref, isRef := g.(*ast.ColumnRef); isRef &&
				strings.EqualFold(ref.Name, keyName) && resolve(ref) == outer {
				grouped = true
			}
		}
		if !grouped {
			return out, false
		}
	}

	// Collect every top-level equality conjunct of the join conditions
	// and the WHERE clause.
	var eqs [][2]*ast.ColumnRef
	addConjuncts := func(e ast.Expr) {
		for _, conj := range ast.SplitConjuncts(e) {
			bin, isBin := conj.(*ast.BinaryExpr)
			if !isBin || bin.Op != "=" {
				continue
			}
			l, lok := bin.L.(*ast.ColumnRef)
			r, rok := bin.R.(*ast.ColumnRef)
			if lok && rok {
				eqs = append(eqs, [2]*ast.ColumnRef{l, r})
			}
		}
	}
	for _, it := range chain {
		if it.on != nil {
			addConjuncts(it.on)
		}
	}
	if core.Where != nil {
		addConjuncts(core.Where)
	}
	// keyEq reports whether ref is the key column of chain member i.
	keyEq := func(ref *ast.ColumnRef, i int) bool {
		return strings.EqualFold(ref.Name, keyName) && resolve(ref) == i
	}

	// Every inner CTE reference needs a route back to the outer key.
	for i, m := range members {
		if !m.isCTE || i == outer {
			continue
		}
		routed := false
		for _, eq := range eqs {
			var other *ast.ColumnRef
			switch {
			case keyEq(eq[0], i):
				other = eq[1]
			case keyEq(eq[1], i):
				other = eq[0]
			default:
				continue
			}
			// Directly equated with the outer key: identity route
			// (changed keys are affected by definition).
			if keyEq(other, outer) {
				routed = true
				break
			}
			// Equated with a base-table column whose row also equates
			// some column with the outer key.
			bi := resolve(other)
			if bi < 0 || members[bi].isCTE || members[bi].schema == nil {
				continue
			}
			from := members[bi].schema.ColumnIndex(other.Name)
			if from < 0 {
				continue
			}
			for _, eq2 := range eqs {
				var bcol *ast.ColumnRef
				switch {
				case keyEq(eq2[0], outer) && resolve(eq2[1]) == bi:
					bcol = eq2[1]
				case keyEq(eq2[1], outer) && resolve(eq2[0]) == bi:
					bcol = eq2[0]
				default:
					continue
				}
				to := members[bi].schema.ColumnIndex(bcol.Name)
				if to < 0 {
					continue
				}
				out.Props = append(out.Props, DeltaProp{Table: members[bi].name, From: from, To: to})
				routed = true
				break
			}
			if routed {
				break
			}
		}
		if !routed {
			return out, false
		}
	}

	out.OuterAlias = members[outer].alias
	return out, true
}

// substituteOuterRef returns a copy of the iterative statement with
// the outer CTE reference reading newName instead, keeping its visible
// alias so qualified column references still resolve. Exactly one
// reference must match.
func substituteOuterRef(stmt *ast.SelectStmt, cteName, outerAlias, newName string) (*ast.SelectStmt, bool) {
	core, ok := stmt.Body.(*ast.SelectCore)
	if !ok || core.From == nil {
		return nil, false
	}
	from, n := replaceTableRef(core.From, cteName, outerAlias, newName)
	if n != 1 {
		return nil, false
	}
	nc := *core
	nc.From = from
	return &ast.SelectStmt{Body: &nc, OrderBy: stmt.OrderBy, Limit: stmt.Limit, Offset: stmt.Offset}, true
}

// replaceTableRef rebuilds the join tree along the path to the matched
// base table, leaving untouched subtrees shared with the original.
func replaceTableRef(t ast.TableRef, cteName, alias, newName string) (ast.TableRef, int) {
	switch x := t.(type) {
	case *ast.BaseTable:
		if strings.EqualFold(x.Name, cteName) && refAlias(x) == alias {
			eff := x.Alias
			if eff == "" {
				eff = x.Name
			}
			return &ast.BaseTable{Name: newName, Alias: eff}, 1
		}
		return x, 0
	case *ast.JoinRef:
		l, nl := replaceTableRef(x.Left, cteName, alias, newName)
		r, nr := replaceTableRef(x.Right, cteName, alias, newName)
		if nl+nr == 0 {
			return x, 0
		}
		return &ast.JoinRef{Type: x.Type, Left: l, Right: r, On: x.On}, nl + nr
	}
	return t, 0
}

// DeltaMaterializeStep materializes the working table for one
// iteration. On the first iteration (and whenever no delta is
// available) it evaluates the full Ri plan; afterwards it computes the
// affected key set — the keys the previous merge changed plus their
// images under the propagation rules — binds the matching CTE rows
// under DeltaIn (partition layout preserved, no rehashing) and
// evaluates the restricted plan instead.
type DeltaMaterializeStep struct {
	Into       string    // working table
	Full       plan.Node // Ri over the full CTE (first iteration, fallback)
	Restricted plan.Node // Ri with the outer reference reading DeltaIn
	DeltaIn    string    // transient restricted-input result name
	CTE        string    // main CTE result
	Delta      string    // delta table the paired MergeStep materializes
	Loop       *LoopState
	Props      []DeltaProp
	Key        int // CTE key column
	Parts      int
}

// Run implements Step.
func (d *DeltaMaterializeStep) Run(ctx *Context, self int) (int, error) {
	if err := ctx.Checkpoint(self); err != nil {
		return 0, err
	}
	cteTable := ctx.RT.Results.Get(d.CTE)
	if cteTable == nil {
		return 0, fmt.Errorf("delta materialize %s: result %q not found", d.Into, d.CTE)
	}
	full := int64(cteTable.Len())
	node := d.Full
	input := full
	if d.Loop != nil && d.Loop.haveDelta {
		affected, err := affectedKeys(ctx, d.Loop.changedKeys, d.Props, "delta")
		if err != nil {
			return 0, err
		}
		din := exec.FilterTableByKey(cteTable, d.Key, affected, d.DeltaIn, &ctx.Stats.Exec)
		ctx.RT.Results.Put(d.DeltaIn, din)
		defer ctx.RT.Results.Drop(d.DeltaIn)
		node = d.Restricted
		input = int64(din.Len())
	}
	var t *storage.Table
	var err error
	if ctx.MPP != nil {
		t, err = ctx.MPP.Materialize(node, d.Into)
	} else {
		t, err = exec.MaterializeContext(ctx.Ctx, node, ctx.RT, &ctx.Stats.Exec, d.Into, d.Parts)
	}
	if err != nil {
		return 0, err
	}
	ctx.RT.Results.Put(d.Into, t)
	ctx.track(d.Into)
	ctx.Stats.MaterializedCells += int64(t.Len()) * int64(len(t.Schema))
	ctx.Stats.UpdatedRows += int64(t.Len())
	ctx.Stats.RiFullRows += full
	ctx.Stats.RiInputRows += input
	return self + 1, nil
}

// Explain implements Step.
func (d *DeltaMaterializeStep) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Materialize %s from the changed-row frontier of %s (delta %s", d.Into, d.CTE, d.Delta)
	for _, p := range d.Props {
		fmt.Fprintf(&b, "; propagate via %s[%d->%d]", p.Table, p.From, p.To)
	}
	b.WriteString("; full plan on the first iteration) with:\n")
	b.WriteString(strings.TrimRight(indent(plan.ExplainTree(d.Restricted), "  "), "\n"))
	return b.String()
}
