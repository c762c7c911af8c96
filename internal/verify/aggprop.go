package verify

// Frontier-license cross-check: the rewrite runs the aggprop analysis
// and acts on its verdict — recording the claim for EXPLAIN and
// installing a DeltaMaterializeStep or MaintainAggStep that evaluates
// Ri over the affected keys only and carries every other key's row
// forward. A bug in that analysis (or a fabricated claim) silently
// produces stale rows. This file re-derives the license — chain shape,
// outer key at the head, group-key stability, every inner reference
// routed — from the ORIGINAL statement with its own chain flattening,
// its own resolver and its own equivalence-closure fixpoint over column
// equalities — deliberately NOT aggprop's direct two-hop scan, and
// sharing no code with it or with the ast chain parser it uses — and
// fails closed: any licensed claim or installed restricted step the
// re-derivation cannot re-prove is unsound-agg-claim.

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
)

// checkLicense re-derives the frontier license for every licensed
// claim and for the CTE of every installed restricted step, of either
// kind. Unlicensed claims with no step assert nothing and are skipped.
func checkLicense(prog *core.Program, stmt *ast.SelectStmt) []Diagnostic {
	var diags []Diagnostic
	bad := func(step int, format string, args ...any) {
		diags = append(diags, Diagnostic{Step: step, Class: ClassUnsoundAggClaim, Message: fmt.Sprintf(format, args...)})
	}

	claims := map[string]*core.AggClaim{}
	for i := range prog.AggClaims {
		claims[norm(prog.AggClaims[i].CTE)] = &prog.AggClaims[i]
	}
	// reprove maps each CTE whose license something relies on to the
	// step the diagnostics cite: licensed claims first, then installed
	// steps (which win, being where the damage would happen).
	reprove := map[string]int{}
	var order []string
	need := func(cte string, step int) {
		if _, seen := reprove[norm(cte)]; !seen {
			order = append(order, cte)
		}
		reprove[norm(cte)] = step
	}
	for _, c := range prog.AggClaims {
		if c.Verdict.Licensed {
			need(c.CTE, c.Step)
		}
	}
	for i, st := range prog.Steps {
		var res *core.Restriction
		switch t := st.(type) {
		case *core.DeltaMaterializeStep:
			res = &t.Restriction
		case *core.MaintainAggStep:
			res = &t.Restriction
		}
		if res == nil {
			continue
		}
		// An installed step without a licensed claim is unsound regardless
		// of the statement: nothing even asserts the analysis ran.
		if c := claims[norm(res.CTE)]; c == nil || !c.Verdict.Licensed {
			bad(i+1, "restricted evaluation of %s installed without a licensed incremental claim", res.CTE)
		}
		need(res.CTE, i+1)
	}
	if len(order) == 0 {
		return diags
	}

	ctes := map[string]*ast.CTE{}
	if stmt != nil && stmt.With != nil {
		for _, cte := range stmt.With.CTEs {
			ctes[norm(cte.Name)] = cte
		}
	}
	for _, name := range order {
		step := reprove[norm(name)]
		if stmt == nil || stmt.With == nil {
			// Hand-built programs carry no statement; the license then has
			// nothing to be re-proved against. Fail closed.
			bad(step, "incremental license for %s cannot be re-derived: no original statement", name)
			continue
		}
		cte := ctes[norm(name)]
		if cte == nil {
			bad(step, "incremental license for %s, which the original statement does not define", name)
			continue
		}
		calls, why := reproveLicense(cte, prog)
		if why != "" {
			bad(step, "incremental license for %s fails the independent re-derivation: %s", name, why)
			continue
		}
		// The claim's aggregate names feed the rewrite's "nothing to cache"
		// rule and EXPLAIN; one the statement does not contain means the
		// claim was made about a different query.
		if c := claims[norm(name)]; c != nil {
			for _, call := range c.Verdict.Calls {
				if !calls[call] {
					bad(step, "claim for %s names aggregate %s, which the re-derivation does not find in the iterative part", name, call)
				}
			}
		}
	}
	return diags
}

// vChainMember is one leaf of the re-derived join chain.
type vChainMember struct {
	alias string
	name  string
	isCTE bool
	cols  []string // column names; nil when unknown
}

// reproveLicense re-derives the frontier license for one iterative
// CTE. It returns the aggregate-call names found in the iterative part
// and the first obstruction ("" when the license re-proves).
func reproveLicense(cte *ast.CTE, prog *core.Program) (calls map[string]bool, why string) {
	bad := func(format string, args ...any) (map[string]bool, string) {
		return calls, fmt.Sprintf(format, args...)
	}
	if cte.Iter == nil {
		return bad("no iterative part")
	}
	cols := vCTEColumns(cte)
	if len(cols) == 0 || cols[0] == "" {
		return bad("the CTE's declared columns cannot be determined")
	}
	it := cte.Iter
	if it.OrderBy != nil || it.Limit != nil || it.Offset != nil {
		return bad("iterative part has ORDER BY/LIMIT/OFFSET")
	}
	body, ok := it.Body.(*ast.SelectCore)
	if !ok {
		return bad("iterative part is not a plain SELECT")
	}
	if body.Distinct {
		return bad("iterative part is SELECT DISTINCT")
	}
	if body.From == nil || len(body.Items) == 0 {
		return bad("iterative part has no FROM clause")
	}
	chain, flat := vFlattenChain(body.From)
	if !flat {
		return bad("FROM is not a left-deep join chain")
	}
	members := make([]vChainMember, len(chain))
	aliasIdx := map[string]int{}
	cteRefs := 0
	for i, c := range chain {
		if i > 0 && c.typ != ast.InnerJoin && c.typ != ast.LeftJoin {
			return bad("join %d is %s", i, c.typ)
		}
		bt, isBase := c.ref.(*ast.BaseTable)
		if !isBase {
			return bad("chain member %d is a derived table", i)
		}
		m := vChainMember{alias: c.alias, name: bt.Name}
		if strings.EqualFold(bt.Name, cte.Name) {
			m.isCTE = true
			m.cols = cols
			cteRefs++
		} else if prog.Lookup != nil {
			if s, found := prog.Lookup.TableSchema(bt.Name); found {
				m.cols = make([]string, len(s))
				for j := range s {
					m.cols[j] = s[j].Name
				}
			}
		}
		if _, dup := aliasIdx[m.alias]; dup || m.alias == "" {
			return bad("duplicate or empty table alias %q", m.alias)
		}
		aliasIdx[m.alias] = i
		members[i] = m
	}
	if cteRefs == 0 || ast.CountStmtTableRefs(it, cte.Name) != cteRefs {
		return bad("references to %s hidden outside the join chain", cte.Name)
	}

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
			if m.cols == nil {
				return -1
			}
			if vColIndex(m.cols, ref.Name) >= 0 {
				if owner >= 0 {
					return -1
				}
				owner = i
			}
		}
		return owner
	}

	// Output column 0 must be the bare outer key at the chain head.
	head, isRef := body.Items[0].Expr.(*ast.ColumnRef)
	if !isRef || !strings.EqualFold(head.Name, cols[0]) {
		return bad("output column 0 is not the bare key column %s", cols[0])
	}
	if resolve(head) != 0 || !members[0].isCTE {
		return bad("output key does not come from a CTE reference at the head of the chain")
	}
	outer := 0

	calls = map[string]bool{}
	ast.WalkStmtExprs(it, func(root ast.Expr) {
		ast.WalkExpr(root, func(e ast.Expr) bool {
			if f, isCall := e.(*ast.FuncCall); isCall && ast.IsAggregateName(f.Name) {
				name := strings.ToUpper(f.Name)
				if f.Distinct {
					name += " DISTINCT"
				}
				calls[name] = true
			}
			return true
		})
	})

	// Group-key stability, whenever the iterative part groups; aggregates
	// without grouping have no per-key groups at all.
	if len(body.GroupBy) == 0 && len(calls) > 0 {
		return bad("aggregates without GROUP BY")
	}
	if len(body.GroupBy) > 0 {
		grouped := false
		for _, g := range body.GroupBy {
			if ref, gRef := g.(*ast.ColumnRef); gRef && strings.EqualFold(ref.Name, cols[0]) && resolve(ref) == outer {
				grouped = true
			}
			outerOnly := true
			ast.WalkExpr(g, func(e ast.Expr) bool {
				if ref, isCol := e.(*ast.ColumnRef); isCol && resolve(ref) != outer {
					outerOnly = false
					return false
				}
				return true
			})
			if !outerOnly {
				return bad("GROUP BY expression %s reads non-outer columns", g)
			}
		}
		if !grouped {
			return bad("GROUP BY does not include the outer key %s", cols[0])
		}
	}

	// Routing by equivalence closure: union the (member, column) nodes of
	// every top-level equality conjunct, then demand each inner CTE
	// reference's key reach the outer key — directly in one class, or
	// through two columns of one base-table row (the equijoin image the
	// propagation rules follow at runtime).
	uf := newVColUF()
	collect := func(e ast.Expr) {
		for _, conj := range ast.SplitConjuncts(e) {
			bin, isBin := conj.(*ast.BinaryExpr)
			if !isBin || bin.Op != "=" {
				continue
			}
			l, lok := bin.L.(*ast.ColumnRef)
			r, rok := bin.R.(*ast.ColumnRef)
			if !lok || !rok {
				continue
			}
			li, ri := resolve(l), resolve(r)
			if li < 0 || ri < 0 {
				continue
			}
			uf.union(vColNode{li, norm(l.Name)}, vColNode{ri, norm(r.Name)})
		}
	}
	for _, c := range chain {
		if c.on != nil {
			collect(c.on)
		}
	}
	if body.Where != nil {
		collect(body.Where)
	}
	key := norm(cols[0])
	outerKey := uf.find(vColNode{outer, key})
	for i, m := range members {
		if !m.isCTE || i == outer {
			continue
		}
		innerKey := uf.find(vColNode{i, key})
		routed := innerKey == outerKey
		if !routed {
			// One base-table row hop: some non-CTE member owns a column
			// in the inner key's class and another in the outer key's.
			for bi, b := range members {
				if b.isCTE {
					continue
				}
				hasInner, hasOuter := false, false
				for _, n := range uf.nodesOf(bi) {
					switch uf.find(n) {
					case innerKey:
						hasInner = true
					case outerKey:
						hasOuter = true
					}
				}
				if hasInner && hasOuter {
					routed = true
					break
				}
			}
		}
		if !routed {
			return bad("inner reference %s has no key-equijoin route to the outer key", m.alias)
		}
	}
	return calls, ""
}

// vCTEColumns determines the CTE's declared column names: the explicit
// list, else the non-iterative part's output aliases/references.
func vCTEColumns(cte *ast.CTE) []string {
	if len(cte.Cols) > 0 {
		return cte.Cols
	}
	if cte.Init == nil {
		return nil
	}
	body, ok := cte.Init.Body.(*ast.SelectCore)
	if !ok {
		return nil
	}
	cols := make([]string, len(body.Items))
	for i, it := range body.Items {
		switch {
		case it.Alias != "":
			cols[i] = it.Alias
		default:
			if ref, isRef := it.Expr.(*ast.ColumnRef); isRef {
				cols[i] = ref.Name
			}
		}
	}
	return cols
}

func vColIndex(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// vChainLeaf is one FROM-chain entry of the re-derived shape.
type vChainLeaf struct {
	ref   ast.TableRef
	typ   ast.JoinType
	on    ast.Expr
	alias string
}

func vFlattenChain(t ast.TableRef) ([]vChainLeaf, bool) {
	switch x := t.(type) {
	case *ast.JoinRef:
		left, ok := vFlattenChain(x.Left)
		if !ok {
			return nil, false
		}
		if _, isJoin := x.Right.(*ast.JoinRef); isJoin {
			return nil, false
		}
		return append(left, vChainLeaf{ref: x.Right, typ: x.Type, on: x.On, alias: vRefAlias(x.Right)}), true
	default:
		return []vChainLeaf{{ref: t, alias: vRefAlias(t)}}, true
	}
}

func vRefAlias(t ast.TableRef) string {
	switch x := t.(type) {
	case *ast.BaseTable:
		if x.Alias != "" {
			return strings.ToLower(x.Alias)
		}
		return strings.ToLower(x.Name)
	case *ast.SubqueryRef:
		return strings.ToLower(x.Alias)
	}
	return ""
}

// vColNode is one (chain member, lowercased column) node of the
// equality closure.
type vColNode struct {
	member int
	col    string
}

// vColUF is a map-based union-find over column nodes.
type vColUF struct {
	parent map[vColNode]vColNode
}

func newVColUF() *vColUF { return &vColUF{parent: map[vColNode]vColNode{}} }

func (u *vColUF) find(n vColNode) vColNode {
	p, ok := u.parent[n]
	if !ok || p == n {
		return n
	}
	top := u.find(p)
	u.parent[n] = top
	return top
}

func (u *vColUF) union(a, b vColNode) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// nodesOf lists every node of one member that participates in the
// closure (appears in some equality conjunct).
func (u *vColUF) nodesOf(member int) []vColNode {
	var out []vColNode
	seen := map[vColNode]bool{}
	for n, p := range u.parent {
		for _, x := range []vColNode{n, p} {
			if x.member == member && !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	return out
}
