// Package aggprop is the frontier license: a proof that the iterative
// part Ri of an iterative CTE may be evaluated over only the keys that
// changed (and the keys those reach), with every other key's row carried
// over from the previous iteration. No engine package calls it: every
// loop body evaluates Ri over the whole CTE. It stays only because the
// benchmark module's layer probe (benchmark/probes.go) times AnalyzeCTE;
// delete it with the change that drops that probe (ROADMAP item 7).
//
// The proof never looks at which aggregate functions Ri calls: an
// affected key's whole group is re-evaluated through the restricted
// plan and an unaffected key's row is reused verbatim, which is sound
// for any aggregate. What it does establish, on the ORIGINAL iterative
// AST (before the common-result rewrite, because the propagation rules
// must name catalog base tables):
//
//	chain shape — Ri is a plain SELECT (no DISTINCT, ORDER BY, LIMIT,
//	    OFFSET) over a left-deep chain of named tables under inner and
//	    left joins, and output column 0 is the bare key of the CTE
//	    reference at the head of the chain: never null-extended, so
//	    restricting that scan restricts exactly the output keys.
//	group-key stability — when Ri groups, GROUP BY includes that outer
//	    key and every grouping expression reads only outer columns.
//	    Each output group is then a function of exactly one outer row
//	    (keys are unique per iteration), so "which groups changed"
//	    reduces to "which outer keys changed".
//	routing — every inner reference to the CTE is equated on its key
//	    with the outer key, directly or through a base-table equijoin
//	    (a propagation rule, Prop). A row that enters or leaves some
//	    key's input between iterations is then always a row of a
//	    changed key, so the changed keys closed under the rules see
//	    every such row.
//
// Anything the analysis cannot prove yields Licensed=false with
// diagnostics.
package aggprop

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// Evidence is one link of the proof chain: the rule that fired and
// what it saw. EXPLAIN prints each under its Incremental line.
type Evidence struct {
	Rule   string
	Detail string
}

// Prop is one propagation rule: a key-equijoin path from an inner
// iterative reference through a base table back to the outer key. When
// a CTE row with key k changed, every row of Table whose From column
// equals k marks its To column's value as affected.
type Prop struct {
	Table string // catalog base table the equijoin path crosses
	From  int    // column equated with the inner reference's key
	To    int    // column equated with the outer reference's key
}

// Verdict is the analysis outcome for one iterative CTE.
type Verdict struct {
	CTE      string
	Licensed bool
	// Calls names every aggregate call of the iterative part in source
	// order (uppercased, " DISTINCT" appended), licensed or not: EXPLAIN
	// prints them, and an iterative part without any has nothing worth
	// caching on the rename path.
	Calls    []string
	Evidence []Evidence
	Diags    []string
	// OuterAlias is the lowercased effective alias of the outer CTE
	// reference (the restrictable scan); empty unless Licensed.
	OuterAlias string
	// Props are the routes of the inner CTE references; empty unless
	// Licensed.
	Props []Prop
}

// AnalyzeCTE decides whether cte's iterative part may be restricted to
// the affected keys. It never errors: failure is a Verdict with
// Licensed=false and diagnostics explaining the first obstruction
// found.
func AnalyzeCTE(cte *ast.CTE, schema sqltypes.Schema, lookup plan.TableLookup) Verdict {
	v := Verdict{CTE: cte.Name}
	if cte.Iter == nil || len(schema) == 0 {
		v.Diags = append(v.Diags, "no iterative part")
		return v
	}
	v.Calls = aggregateCalls(cte.Iter)
	a := &analysis{v: &v, cte: cte, schema: schema, lookup: lookup}
	if a.structure() && a.groupKeyStability() && a.routing() {
		v.Licensed = true
		v.OuterAlias = a.chain.Members[0].Alias
	}
	return v
}

// aggregateCalls walks every expression tree of the iterative part and
// names the aggregate calls in source order.
func aggregateCalls(stmt *ast.SelectStmt) []string {
	var calls []string
	ast.WalkStmtExprs(stmt, func(root ast.Expr) {
		ast.WalkExpr(root, func(e ast.Expr) bool {
			if f, ok := e.(*ast.FuncCall); ok && ast.IsAggregateName(f.Name) {
				name := strings.ToUpper(f.Name)
				if f.Distinct {
					name += " DISTINCT"
				}
				calls = append(calls, name)
			}
			return true
		})
	})
	return calls
}

// analysis carries the shared state of the three proofs. The outer CTE
// reference is chain member 0 once structure has succeeded.
type analysis struct {
	v      *Verdict
	cte    *ast.CTE
	schema sqltypes.Schema
	lookup plan.TableLookup

	core  *ast.SelectCore
	chain *ast.Chain
}

func (a *analysis) fail(format string, args ...any) bool {
	a.v.Diags = append(a.v.Diags, fmt.Sprintf(format, args...))
	return false
}

func (a *analysis) isCTE(i int) bool {
	return strings.EqualFold(a.chain.Members[i].Name, a.cte.Name)
}

// keyOf reports whether ref is the key column of chain member i.
func (a *analysis) keyOf(ref *ast.ColumnRef, i int) bool {
	return strings.EqualFold(ref.Name, a.schema[0].Name) && a.chain.Resolve(ref) == i
}

// structure checks the plain-SELECT, left-deep-chain shape the rest of
// the proofs assume, and that output column 0 is the bare key of a CTE
// reference at the head of the chain.
func (a *analysis) structure() bool {
	it := a.cte.Iter
	if it.OrderBy != nil || it.Limit != nil || it.Offset != nil {
		return a.fail("iterative part has ORDER BY/LIMIT/OFFSET; row identity across iterations unprovable")
	}
	core, ok := it.Body.(*ast.SelectCore)
	if !ok {
		return a.fail("iterative part is not a plain SELECT")
	}
	if core.Distinct {
		return a.fail("SELECT DISTINCT deduplicates across keys; restriction unprovable")
	}
	if core.From == nil || len(core.Items) == 0 {
		return a.fail("iterative part has no FROM clause")
	}
	a.core = core

	chain, ok := ast.ParseChain(core, func(name string) (sqltypes.Schema, bool) {
		if strings.EqualFold(name, a.cte.Name) {
			return a.schema, true
		}
		return a.lookup.TableSchema(name)
	})
	if !ok {
		return a.fail("FROM is not a left-deep join chain")
	}
	a.chain = chain
	cteRefs := 0
	for i, m := range chain.Members {
		if i > 0 && m.Join != ast.InnerJoin && m.Join != ast.LeftJoin {
			return a.fail("join %d is %s; only INNER and LEFT joins keep output keys outer-derived", i, m.Join)
		}
		if m.Name == "" {
			return a.fail("chain member %d is a derived table; CTE references could hide inside it", i)
		}
		if a.isCTE(i) {
			cteRefs++
		}
	}
	if chain.HasBadAlias {
		return a.fail("duplicate or empty table alias %q", chain.BadAlias)
	}
	if cteRefs == 0 || ast.CountStmtTableRefs(it, a.cte.Name) != cteRefs {
		return a.fail("references to %s hidden outside the join chain", a.cte.Name)
	}

	head, ok := core.Items[0].Expr.(*ast.ColumnRef)
	if !ok || !strings.EqualFold(head.Name, a.schema[0].Name) {
		return a.fail("output column 0 is not the bare key column %s", a.schema[0].Name)
	}
	if !a.keyOf(head, 0) || !a.isCTE(0) {
		return a.fail("output key does not come from a CTE reference at the head of the chain")
	}
	a.v.Evidence = append(a.v.Evidence, Evidence{
		Rule: "chain-shape",
		Detail: fmt.Sprintf("left-deep chain of %d named tables under inner/left joins; output column 0 is "+
			"the bare key %s.%s", len(chain.Members), chain.Members[0].Alias, a.schema[0].Name),
	})
	return true
}

// groupKeyStability proves each output group is a function of exactly
// one outer row: GROUP BY includes the outer key and every GROUP BY
// expression references only outer columns. Grouping then refines "one
// group per outer key", and since keys are unique per iteration, a
// group's identity is stable across the back-edge. An iterative part
// that does not group has one output row per joined outer row and
// needs no such proof; one that aggregates without grouping folds the
// whole iteration into one row and has no per-key groups at all.
func (a *analysis) groupKeyStability() bool {
	if len(a.core.GroupBy) == 0 {
		if len(a.v.Calls) > 0 {
			return a.fail("no GROUP BY; scalar aggregates over the whole iteration have no per-key groups")
		}
		return true
	}
	keyName := a.schema[0].Name
	grouped := false
	for _, g := range a.core.GroupBy {
		if ref, isRef := g.(*ast.ColumnRef); isRef && a.keyOf(ref, 0) {
			grouped = true
		}
		outerOnly := true
		ast.WalkExpr(g, func(e ast.Expr) bool {
			if ref, isRef := e.(*ast.ColumnRef); isRef && a.chain.Resolve(ref) != 0 {
				outerOnly = false
			}
			return outerOnly
		})
		if !outerOnly {
			return a.fail("GROUP BY expression %s reads non-outer columns; group identity could shift "+
				"between iterations without the key changing", g)
		}
	}
	if !grouped {
		return a.fail("GROUP BY does not include the outer key %s", keyName)
	}
	a.v.Evidence = append(a.v.Evidence, Evidence{
		Rule: "group-key-stability",
		Detail: fmt.Sprintf("GROUP BY includes the outer key %s and every grouping expression reads only "+
			"%s columns: one group per outer key, identity stable across the back-edge",
			keyName, a.chain.Members[0].Alias),
	})
	return true
}

// routing proves every inner CTE reference is routed back to the outer
// key: directly equated, or through a base-table equijoin yielding a
// propagation rule. Any key whose input rows change between iterations
// is then an affected key, so evaluating only the affected keys misses
// no change.
func (a *analysis) routing() bool {
	members := a.chain.Members
	for i, m := range members {
		if i == 0 || !a.isCTE(i) {
			continue
		}
		if !a.route(i) {
			return a.fail("inner reference %s has no key-equijoin route to the outer key; a row could "+
				"enter or leave one of its keys' inputs invisibly to the frontier", m.Alias)
		}
	}
	return true
}

// route finds the first equality that ties inner reference i's key to
// the outer key and records the evidence (and the rule, if the tie
// crosses a base table).
func (a *analysis) route(i int) bool {
	members := a.chain.Members
	for _, eq := range a.chain.Eqs {
		var other *ast.ColumnRef
		switch {
		case a.keyOf(eq[0], i):
			other = eq[1]
		case a.keyOf(eq[1], i):
			other = eq[0]
		default:
			continue
		}
		if a.keyOf(other, 0) {
			a.v.Evidence = append(a.v.Evidence, Evidence{
				Rule:   "routing",
				Detail: fmt.Sprintf("inner reference %s equated with the outer key directly", members[i].Alias),
			})
			return true
		}
		bi := a.chain.Resolve(other)
		if bi < 0 || a.isCTE(bi) || members[bi].Schema == nil {
			continue
		}
		from := members[bi].Schema.ColumnIndex(other.Name)
		if from < 0 {
			continue
		}
		for _, eq2 := range a.chain.Eqs {
			var bcol *ast.ColumnRef
			switch {
			case a.keyOf(eq2[0], 0) && a.chain.Resolve(eq2[1]) == bi:
				bcol = eq2[1]
			case a.keyOf(eq2[1], 0) && a.chain.Resolve(eq2[0]) == bi:
				bcol = eq2[0]
			default:
				continue
			}
			to := members[bi].Schema.ColumnIndex(bcol.Name)
			if to < 0 {
				continue
			}
			a.v.Props = append(a.v.Props, Prop{Table: members[bi].Name, From: from, To: to})
			a.v.Evidence = append(a.v.Evidence, Evidence{
				Rule: "routing",
				Detail: fmt.Sprintf("inner reference %s routed to the outer key through %s[%d->%d]: "+
					"every row entering or leaving a key's input belongs to a changed key's equijoin image",
					members[i].Alias, members[bi].Name, from, to),
			})
			return true
		}
	}
	return false
}
