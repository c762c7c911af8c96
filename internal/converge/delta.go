package converge

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// This file holds the Delta-termination rules, the interesting part of
// the lattice: UNTIL DELTA < n fires exactly when an iteration changes
// fewer than n rows, so proving termination means proving the loop
// reaches a state where the body re-derives what the CTE already
// holds. Four rules are tried strongest-first; each failure leaves a
// diagnostic so an Unknown verdict explains itself.
//
//	invariant-body       the body never reads the CTE: its output is a
//	                     constant relation, so the second pass changes
//	                     zero rows. Terminates(2).
//	identity-map         the body re-selects the CTE's own columns
//	                     unchanged: the first pass compares equal to
//	                     the snapshot. Terminates(1).
//	inflationary-finite-keys   merge path whose output key is a bare
//	                     base-table column and whose only CTE
//	                     dependence is the key column: the key set
//	                     grows monotonically inside a finite domain,
//	                     and once it stabilizes the body is constant.
//	                     Terminates(|key domain| + 2).
//	stationary-merge /   merge path whose output key is the CTE's own
//	monotone-merge       key (frontier never expands). With no value
//	                     feedback the body is constant after one pass:
//	                     Terminates(2). With feedback, every non-key
//	                     column must be carried verbatim or move one
//	                     direction via LEAST/GREATEST/MIN/MAX over a
//	                     finite candidate lattice: Converges.
type deltaAnalysis struct {
	cte    *ast.CTE
	cols   []string
	lookup Lookup
	v      *Verdict

	core  *ast.SelectCore
	chain *ast.Chain
}

// isCTE reports whether chain member i is the analyzed CTE itself
// rather than a base table.
func (d *deltaAnalysis) isCTE(i int) bool {
	return strings.EqualFold(d.chain.Members[i].Name, d.cte.Name)
}

func analyzeDelta(cte *ast.CTE, lookup Lookup, v *Verdict) {
	if cte.Until.N <= 0 {
		v.Diags = append(v.Diags, fmt.Sprintf(
			"UNTIL DELTA < %d can never be satisfied: the changed-row count is always >= 0", cte.Until.N))
		return
	}
	cols := cteColumns(cte)
	if len(cols) == 0 || cols[0] == "" {
		v.Diags = append(v.Diags, "cannot determine the CTE's declared columns (no column list and the "+
			"non-iterative part's output names are not plain references)")
		return
	}

	refs := ast.CountStmtTableRefs(cte.Iter, cte.Name)
	if refs == 0 {
		v.Kind = Terminates
		v.Bound = 2
		v.Evidence = append(v.Evidence, Evidence{
			Rule: "invariant-body",
			Detail: fmt.Sprintf("the iterative part never reads %s, so its output is the same relation every "+
				"iteration; the second pass changes zero rows and DELTA < %d fires", cte.Name, cte.Until.N),
		})
		return
	}

	d := &deltaAnalysis{cte: cte, cols: cols, lookup: lookup, v: v}
	if !d.prepare(refs) {
		v.Diags = append(v.Diags, bodyDiagnostics(cte)...)
		return
	}
	if d.identityMap() {
		return
	}
	if d.core.Where == nil {
		// Rename/copy-back path: the whole CTE is replaced each
		// iteration, so any CTE feedback beyond the identity map can
		// oscillate (the FF query recomputes every value from its own
		// previous values).
		v.Diags = append(v.Diags, fmt.Sprintf(
			"the iterative part has no WHERE clause (full-update path) and feeds %s back into itself; "+
				"nothing constrains the recomputed values toward a fixpoint", cte.Name))
		v.Diags = append(v.Diags, bodyDiagnostics(cte)...)
		return
	}
	if d.mergeRules() {
		return
	}
	v.Diags = append(v.Diags, bodyDiagnostics(cte)...)
}

// prepare performs the shape checks shared by every chain rule and
// fills in the member table and equality conjuncts. A false return
// has already appended the blocking diagnostic.
func (d *deltaAnalysis) prepare(cteRefs int) bool {
	iter, v := d.cte.Iter, d.v
	if iter.OrderBy != nil || iter.Limit != nil || iter.Offset != nil {
		v.Diags = append(v.Diags, "ORDER BY/LIMIT/OFFSET on the iterative part make the produced row set "+
			"depend on more than the data; no chain rule applies")
		return false
	}
	core, ok := iter.Body.(*ast.SelectCore)
	if !ok {
		v.Diags = append(v.Diags, "the iterative part is a set operation; row provenance across UNION arms "+
			"is not tracked")
		return false
	}
	if core.From == nil {
		v.Diags = append(v.Diags, "the iterative part has no FROM clause")
		return false
	}
	// The CTE member's schema is its declared column list (types play no
	// part in column ownership); base tables come from the lookup.
	chain, ok := ast.ParseChain(core, func(name string) (sqltypes.Schema, bool) {
		if strings.EqualFold(name, d.cte.Name) {
			s := make(sqltypes.Schema, len(d.cols))
			for i, c := range d.cols {
				s[i].Name = c
			}
			return s, true
		}
		if d.lookup == nil {
			return nil, false
		}
		return d.lookup.TableSchema(name)
	})
	if !ok {
		v.Diags = append(v.Diags, "the FROM clause is not a left-deep join chain")
		return false
	}
	d.core, d.chain = core, chain
	seenCTE := 0
	for i, m := range chain.Members {
		if i > 0 && m.Join != ast.InnerJoin && m.Join != ast.LeftJoin {
			v.Diags = append(v.Diags, fmt.Sprintf("%s can null-extend or emit rows for the left side; only "+
				"inner and left joins keep row provenance", m.Join))
			return false
		}
		if m.Name == "" {
			v.Diags = append(v.Diags, "a derived table in FROM hides which rows reach the output")
			return false
		}
		if d.isCTE(i) {
			seenCTE++
		}
	}
	if chain.HasBadAlias {
		v.Diags = append(v.Diags, fmt.Sprintf("duplicate or empty FROM alias %q; column ownership is "+
			"ambiguous", chain.BadAlias))
		return false
	}
	if seenCTE != cteRefs {
		v.Diags = append(v.Diags, fmt.Sprintf("references to %s are hidden inside derived tables or set "+
			"operations", d.cte.Name))
		return false
	}
	return true
}

// identityMap proves the body re-selects the CTE verbatim: one chain
// member (the CTE itself), no WHERE/GROUP BY/HAVING/DISTINCT, and item
// i is the bare i-th declared column. The first pass then reproduces
// the snapshot exactly. Terminates(1).
func (d *deltaAnalysis) identityMap() bool {
	c := d.core
	if len(d.chain.Members) != 1 || !d.isCTE(0) ||
		c.Where != nil || len(c.GroupBy) > 0 || c.Having != nil || c.Distinct {
		return false
	}
	if len(c.Items) != len(d.cols) {
		return false
	}
	for i, it := range c.Items {
		ref, ok := it.Expr.(*ast.ColumnRef)
		if !ok || !strings.EqualFold(ref.Name, d.cols[i]) || d.chain.Resolve(ref) != 0 {
			return false
		}
	}
	d.v.Kind = Terminates
	d.v.Bound = 1
	d.v.Evidence = append(d.v.Evidence, Evidence{
		Rule: "identity-map",
		Detail: fmt.Sprintf("the iterative part re-selects %s's own rows unchanged (%s), so the first pass "+
			"already compares equal to the snapshot", d.cte.Name, cite(c.Items[0].Expr)),
	})
	return true
}

// mergeRules tries the merge-path rules. The output key (item 0)
// decides the case: a bare base-table column means the frontier
// expands inside that column's finite domain; the CTE's own key means
// the frontier is stable and the value columns decide.
func (d *deltaAnalysis) mergeRules() bool {
	v := d.v
	refs, star := ast.StmtColumnRefs(d.cte.Iter)
	if star {
		v.Diags = append(v.Diags, "the iterative part selects *; the analysis cannot attribute every output "+
			"column")
		return false
	}
	keyExpr := d.core.Items[0].Expr
	keyRef, ok := keyExpr.(*ast.ColumnRef)
	if !ok {
		v.Diags = append(v.Diags, fmt.Sprintf("frontier-expanding merge with computed key expression %s: the "+
			"key source is unbounded, new keys can be generated forever", cite(keyExpr)))
		return false
	}
	owner := d.chain.Resolve(keyRef)
	if owner < 0 {
		v.Diags = append(v.Diags, fmt.Sprintf("cannot attribute the key output %s to a single FROM member",
			cite(keyRef)))
		return false
	}
	if d.isCTE(owner) {
		if !strings.EqualFold(keyRef.Name, d.cols[0]) {
			v.Diags = append(v.Diags, fmt.Sprintf("the key output %s is a non-key column of %s; merged keys "+
				"are not row identities", cite(keyRef), d.cte.Name))
			return false
		}
		if owner != 0 {
			v.Diags = append(v.Diags, fmt.Sprintf("the iterative reference %s is not at the head of the join "+
				"chain; a left join can null-extend its key", d.chain.Members[owner].Alias))
			return false
		}
		return d.stableFrontier(owner, refs)
	}
	return d.finiteKeyDomain(owner, keyRef, refs)
}

// finiteKeyDomain is the inflationary rule: output keys are drawn from
// a base-table column, and the only CTE columns the body reads are key
// columns. The merged key set then grows monotonically inside the
// finite domain (the merge never deletes), and once it stabilizes the
// body — a deterministic function of base tables and the key set —
// re-derives identical rows, so the following pass changes zero rows.
func (d *deltaAnalysis) finiteKeyDomain(owner int, keyRef *ast.ColumnRef, refs []*ast.ColumnRef) bool {
	v := d.v
	for _, ref := range refs {
		i := d.chain.Resolve(ref)
		if i < 0 {
			v.Diags = append(v.Diags, fmt.Sprintf("cannot attribute %s to a single FROM member", cite(ref)))
			return false
		}
		if d.isCTE(i) && !strings.EqualFold(ref.Name, d.cols[0]) {
			v.Diags = append(v.Diags, fmt.Sprintf("value column %s feeds a frontier-expanding body; recomputed "+
				"values can keep changing while new keys appear", cite(ref)))
			return false
		}
	}
	v.Kind = Terminates
	domain := fmt.Sprintf("%s.%s", d.chain.Members[owner].Name, keyRef.Name)
	detail := fmt.Sprintf("output keys are drawn from %s, a finite domain", cite(keyRef))
	if card, ok := tableRowCount(d.lookup, d.chain.Members[owner].Name); ok {
		v.Bound = int64(card) + 2
		v.BoundRef = fmt.Sprintf("|distinct %s| + 2, %d rows at plan time", domain, card)
	} else {
		v.BoundRef = fmt.Sprintf("|distinct %s| + 2", domain)
	}
	v.Evidence = append(v.Evidence,
		Evidence{Rule: "finite-key-domain", Detail: detail},
		Evidence{
			Rule: "key-stability",
			Detail: fmt.Sprintf("the merge only appends or replaces rows, so %s's key set grows monotonically "+
				"inside that domain; the body reads no CTE column except the key %s, so once the key set "+
				"stabilizes the body re-derives identical rows and the next pass changes zero rows",
				d.cte.Name, d.cols[0]),
		})
	return true
}

// tableRowCount asks the lookup for a base table's current row count.
func tableRowCount(l Lookup, table string) (int, bool) {
	c, ok := l.(CardinalityLookup)
	if !ok {
		return 0, false
	}
	return c.TableRowCount(table)
}

// stableFrontier handles merges whose output key is the CTE's own key:
// the merged key set never grows, so termination rests on the value
// columns. Carried-only bodies are stationary after one pass; bodies
// with monotone lattice feedback converge.
func (d *deltaAnalysis) stableFrontier(outer int, refs []*ast.ColumnRef) bool {
	v := d.v
	feedback := false
	for _, ref := range refs {
		if i := d.chain.Resolve(ref); i >= 0 && d.isCTE(i) && !strings.EqualFold(ref.Name, d.cols[0]) {
			feedback = true
			break
		}
	}
	frontier := Evidence{
		Rule: "stable-frontier",
		Detail: fmt.Sprintf("the output key %s is %s's own key at the head of the join chain, so the merge "+
			"never appends new keys (the delta-iteration frontier argument)", cite(d.core.Items[0].Expr), d.cte.Name),
	}
	if !feedback {
		v.Kind = Terminates
		v.Bound = 2
		v.Evidence = append(v.Evidence, frontier, Evidence{
			Rule: "stationary-merge",
			Detail: "no CTE value column feeds the body, so its output depends only on base tables and the " +
				"stable key set; the second pass re-derives the rows the first pass merged and changes zero rows",
		})
		return true
	}
	// Value feedback: every non-key output must be carried verbatim or
	// move one direction through a finite lattice.
	for j := 1; j < len(d.core.Items); j++ {
		it := d.core.Items[j]
		if j < len(d.cols) && d.carried(it.Expr, outer, j) {
			continue
		}
		dir, ok := d.monotone(it.Expr, outer, j)
		if !ok {
			return false // monotone appended the diagnostic
		}
		v.Evidence = append(v.Evidence, Evidence{
			Rule: "monotone-merge",
			Detail: fmt.Sprintf("column %d (%s) only moves %s: the new value is the %s of the old value and "+
				"candidates selected from base-table values, never computed past them",
				j+1, cite(it.Expr), dir.word(), dir.fn()),
		})
	}
	v.Kind = Converges
	v.Evidence = append(v.Evidence, frontier, Evidence{
		Rule: "finite-lattice",
		Detail: "every candidate is selected (LEAST/GREATEST/MIN/MAX/COALESCE) from base-table values and " +
			"constants, so each column's values live in a finite lattice; monotone movement through a finite " +
			"lattice changes each row finitely often, so some pass changes zero rows and DELTA fires",
	})
	return true
}

// carried reports whether the item is the bare j-th column of the
// outer CTE reference (old value passed through unchanged).
func (d *deltaAnalysis) carried(e ast.Expr, outer, j int) bool {
	ref, ok := e.(*ast.ColumnRef)
	return ok && strings.EqualFold(ref.Name, d.cols[j]) && d.chain.Resolve(ref) == outer
}

// direction is the monotone movement of a lattice merge.
type direction int

const (
	down direction = iota // LEAST/MIN: values only decrease
	up                    // GREATEST/MAX: values only increase
)

func (dir direction) word() string {
	if dir == up {
		return "upward"
	}
	return "downward"
}

func (dir direction) fn() string {
	if dir == up {
		return "GREATEST/MAX"
	}
	return "LEAST/MIN"
}

// monotone proves item j is a one-directional lattice merge: a
// top-level LEAST/MIN (or GREATEST/MAX) whose arguments include the
// column's own old value, with every other argument a candidate —
// selected from base-table columns, the key, or constants, through
// selection functions only (LEAST/GREATEST/MIN/MAX/COALESCE preserve
// the operand value set; arithmetic would generate new values and
// unbound the lattice). A false return appends the diagnostic.
func (d *deltaAnalysis) monotone(e ast.Expr, outer, j int) (direction, bool) {
	v := d.v
	call, ok := e.(*ast.FuncCall)
	if !ok || call.Star || call.Distinct {
		v.Diags = append(v.Diags, fmt.Sprintf("column %d (%s) recomputes a value that depends on %s without a "+
			"LEAST/GREATEST envelope; nothing forces it toward a fixpoint", j+1, cite(e), d.cte.Name))
		return down, false
	}
	var dir direction
	switch strings.ToUpper(call.Name) {
	case "LEAST", "MIN":
		dir = down
	case "GREATEST", "MAX":
		dir = up
	default:
		v.Diags = append(v.Diags, fmt.Sprintf("column %d (%s): %s over the iterative reference is not a "+
			"lattice selection; %s", j+1, cite(e), call.Name, sumAvgNote(call.Name)))
		return down, false
	}
	usesOld := false
	for _, arg := range call.Args {
		if d.carried(arg, outer, j) {
			usesOld = true
			continue
		}
		if !d.candidate(arg, j) {
			return down, false
		}
	}
	if !usesOld {
		v.Diags = append(v.Diags, fmt.Sprintf("column %d (%s) drops its own previous value from the %s; the "+
			"result can move both directions as the inputs change", j+1, cite(e), call.Name))
		return down, false
	}
	return dir, true
}

// sumAvgNote names the specific float-fixpoint hazard for SUM/AVG.
func sumAvgNote(name string) string {
	switch strings.ToUpper(name) {
	case "SUM", "AVG":
		return "a floating-point " + strings.ToUpper(name) + " fixpoint can oscillate below the whole-row " +
			"comparison precision and never satisfy DELTA"
	}
	return "the recomputed value can move both directions"
}

// candidate proves an expression draws only from the stable part of
// the state: base-table columns, the CTE key, literals, combined by
// selection functions (LEAST/GREATEST/MIN/MAX/COALESCE). A false
// return appends the diagnostic.
func (d *deltaAnalysis) candidate(e ast.Expr, j int) bool {
	v := d.v
	switch t := e.(type) {
	case *ast.Literal:
		return true
	case *ast.ColumnRef:
		i := d.chain.Resolve(t)
		if i < 0 {
			v.Diags = append(v.Diags, fmt.Sprintf("cannot attribute %s to a single FROM member", cite(t)))
			return false
		}
		if d.isCTE(i) && !strings.EqualFold(t.Name, d.cols[0]) {
			v.Diags = append(v.Diags, fmt.Sprintf("column %d couples to the recursively-defined column %s; "+
				"its candidates change as that column changes and the lattice argument breaks", j+1, cite(t)))
			return false
		}
		return true
	case *ast.FuncCall:
		switch strings.ToUpper(t.Name) {
		case "LEAST", "GREATEST", "MIN", "MAX", "COALESCE":
			for _, arg := range t.Args {
				if !d.candidate(arg, j) {
					return false
				}
			}
			return !t.Star
		}
		v.Diags = append(v.Diags, fmt.Sprintf("candidate %s is not a selection from existing values; %s",
			cite(t), sumAvgNote(t.Name)))
		return false
	}
	v.Diags = append(v.Diags, fmt.Sprintf("candidate %s generates values outside a finite lattice (only "+
		"selections from base-table values and constants keep it finite)", cite(e)))
	return false
}

// ---------------------------------------------------------------------
// Best-effort diagnostics for Unknown verdicts
// ---------------------------------------------------------------------

// bodyDiagnostics scans the iterative part for the classic
// non-convergence hazards, so Unknown verdicts (and the cap-exceeded
// error that carries them) explain what to look at. It never proves
// anything; it only annotates.
func bodyDiagnostics(cte *ast.CTE) []string {
	// Every alias the CTE appears under in the iterative part: a
	// qualified reference through any of them reads the iterative
	// reference. Unqualified references are not counted (attribution
	// needs the member table, and diagnostics must not claim more than
	// they know).
	aliases := map[string]bool{strings.ToLower(cte.Name): true}
	for _, bt := range ast.StmtBaseTables(cte.Iter) {
		if strings.EqualFold(bt.Name, cte.Name) && bt.Alias != "" {
			aliases[strings.ToLower(bt.Alias)] = true
		}
	}
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	ast.WalkStmtExprs(cte.Iter, func(root ast.Expr) {
		ast.WalkExpr(root, func(e ast.Expr) bool {
			switch t := e.(type) {
			case *ast.FuncCall:
				name := strings.ToUpper(t.Name)
				if (name == "SUM" || name == "AVG") && refsAliased(t, aliases) {
					add(fmt.Sprintf("%s aggregates the iterative reference: a floating-point fixpoint can "+
						"oscillate below the whole-row comparison precision", cite(t)))
				}
			case *ast.BinaryExpr:
				switch t.Op {
				case "+", "-", "*", "/", "%":
					if refsAliased(t, aliases) {
						add(fmt.Sprintf("arithmetic %s over the iterative reference generates values outside "+
							"any finite lattice", cite(t)))
					}
					return false // the innermost arithmetic is noise
				}
			}
			return true
		})
	})
	return out
}

// refsAliased reports whether the expression contains a column
// reference qualified with any of the given (lowercased) aliases.
func refsAliased(e ast.Expr, aliases map[string]bool) bool {
	found := false
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if c, ok := x.(*ast.ColumnRef); ok && aliases[strings.ToLower(c.Table)] && c.Table != "" {
			found = true
			return false
		}
		return !found
	})
	return found
}
