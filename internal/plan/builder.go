package plan

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/sqltypes"
)

// TableLookup resolves table names during planning. Base tables come
// from the catalog; named results are the intermediate results of the
// iterative-CTE step program (and regular materialized CTEs).
type TableLookup interface {
	// TableSchema returns the schema of a base table, with ok=false if
	// the table does not exist.
	TableSchema(name string) (sqltypes.Schema, bool)
	// ResultSchema returns the schema of a named intermediate result.
	ResultSchema(name string) (sqltypes.Schema, bool)
}

// Builder constructs logical plans from SELECT statements.
type Builder struct {
	Lookup TableLookup
	// ctes holds regular CTE definitions visible to the current query,
	// expanded inline at reference sites (view expansion).
	ctes map[string]*ast.CTE
}

// NewBuilder returns a Builder over the given lookup.
func NewBuilder(lookup TableLookup) *Builder {
	return &Builder{Lookup: lookup, ctes: map[string]*ast.CTE{}}
}

// RegisterCTE makes a regular CTE definition visible to subsequent
// Build calls (used by the iterative-CTE rewrite, which strips the WITH
// clause apart and plans R0/Ri/Qf separately).
func (b *Builder) RegisterCTE(cte *ast.CTE) error {
	if cte.Iterative {
		return fmt.Errorf("iterative CTE %q cannot be registered for inline expansion", cte.Name)
	}
	b.ctes[strings.ToLower(cte.Name)] = cte
	return nil
}

// clone returns a builder with a copied CTE scope.
func (b *Builder) clone() *Builder {
	nb := &Builder{Lookup: b.Lookup, ctes: make(map[string]*ast.CTE, len(b.ctes))}
	for k, v := range b.ctes {
		nb.ctes[k] = v
	}
	return nb
}

// Build plans a full SELECT statement. Iterative CTEs must have been
// rewritten away before this point (internal/core does that); finding
// one here is an error.
func (b *Builder) Build(sel *ast.SelectStmt) (Node, error) {
	nb := b
	if sel.With != nil {
		nb = b.clone()
		for _, cte := range sel.With.CTEs {
			if cte.Iterative {
				return nil, fmt.Errorf("iterative CTE %q reached the plan builder; the functional rewrite must expand it first", cte.Name)
			}
			if sel.With.Recursive {
				return nil, fmt.Errorf("recursive CTEs are handled by the recursive-union rewrite, not the plan builder")
			}
			nb.ctes[strings.ToLower(cte.Name)] = cte
		}
	}
	node, err := nb.buildBody(sel.Body)
	if err != nil {
		return nil, err
	}
	if len(sel.OrderBy) > 0 {
		keys, err := resolveOrderBy(sel.OrderBy, node.Columns())
		if err != nil {
			// Standard SQL also allows ordering by input columns and
			// expressions that are not in the select list: rebuild the
			// core with hidden sort columns and trim them after the
			// sort.
			if core, ok := sel.Body.(*ast.SelectCore); ok && !core.Distinct {
				if n2, err2 := nb.buildHiddenSort(core, sel.OrderBy, len(node.Columns())); err2 == nil {
					node = n2
					goto sorted
				}
			}
			return nil, err
		}
		node = &Sort{Input: node, Keys: keys}
	}
sorted:
	if sel.Limit != nil || sel.Offset != nil {
		c := Counts{N: -1}
		var err error
		if sel.Limit != nil {
			if c.N, c.NSlot, err = constCount(sel.Limit); err != nil {
				return nil, fmt.Errorf("LIMIT: %w", err)
			}
		}
		if sel.Offset != nil {
			if c.Offset, c.OffsetSlot, err = constCount(sel.Offset); err != nil {
				return nil, fmt.Errorf("OFFSET: %w", err)
			}
		}
		node = fuseTopN(node, c)
	}
	return node, nil
}

// fuseTopN turns Limit(Sort(x)) — also through a Trim added for hidden
// sort columns — into a TopN that keeps only the needed rows.
func fuseTopN(node Node, c Counts) Node {
	if c.N >= 0 {
		switch t := node.(type) {
		case *Sort:
			return &TopN{Input: t.Input, Keys: t.Keys, Counts: c}
		case *Trim:
			if s, ok := t.Input.(*Sort); ok {
				return &Trim{
					Input: &TopN{Input: s.Input, Keys: s.Keys, Counts: c},
					Keep:  t.Keep,
				}
			}
		}
	}
	return &Limit{Input: node, Counts: c}
}

// buildHiddenSort re-plans a select core with the unresolvable ORDER
// BY expressions appended as hidden output columns, sorts, and trims
// them away.
func (b *Builder) buildHiddenSort(core *ast.SelectCore, orderBy []ast.OrderItem, visible int) (Node, error) {
	// With * in the select list the item index no longer equals the
	// output column index; keep the simple path only.
	for _, it := range core.Items {
		if _, isStar := it.Expr.(*ast.Star); isStar {
			return nil, fmt.Errorf("hidden sort columns are not supported with *")
		}
	}
	ext := *core
	ext.Items = append([]ast.SelectItem(nil), core.Items...)
	hidden := map[string]int{} // expr key -> output index
	for _, it := range orderBy {
		if _, isLit := it.Expr.(*ast.Literal); isLit {
			continue
		}
		key := exprKey(it.Expr)
		if _, ok := hidden[key]; ok {
			continue
		}
		// Try resolving against the visible items first (by alias).
		if ref, ok := it.Expr.(*ast.ColumnRef); ok {
			found := false
			for _, existing := range core.Items {
				if existing.Alias != "" && strings.EqualFold(existing.Alias, ref.Name) && ref.Table == "" {
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		hidden[key] = len(ext.Items)
		ext.Items = append(ext.Items, ast.SelectItem{
			Expr:  it.Expr,
			Alias: fmt.Sprintf("#sort%d", len(hidden)),
		})
	}
	node, err := b.buildCore(&ext)
	if err != nil {
		return nil, err
	}
	cols := node.Columns()
	keys := make([]SortKey, len(orderBy))
	for i, it := range orderBy {
		if idx, ok := hidden[exprKey(it.Expr)]; ok {
			keys[i] = SortKey{Col: idx, Desc: it.Desc}
			continue
		}
		resolved, err := resolveOrderBy([]ast.OrderItem{it}, cols[:visible])
		if err != nil {
			return nil, err
		}
		keys[i] = resolved[0]
	}
	return &Trim{Input: &Sort{Input: node, Keys: keys}, Keep: visible}, nil
}

// constCount reads a LIMIT or OFFSET count: an integer literal, which a
// run with bound values reads from its slot. The count's value decides
// nothing here — a slotted INT literal is a digit string, never
// negative — so the slot stays bound.
func constCount(e ast.Expr) (n int64, slot int, err error) {
	l, ok := e.(*ast.Literal)
	if !ok || l.Type() != sqltypes.Int {
		return 0, 0, fmt.Errorf("expected an integer constant, got %s", e)
	}
	slot, v := l.Param()
	if v.I < 0 {
		return 0, 0, fmt.Errorf("must not be negative")
	}
	return v.I, slot, nil
}

func resolveOrderBy(items []ast.OrderItem, cols []ColInfo) ([]SortKey, error) {
	keys := make([]SortKey, len(items))
	for i, it := range items {
		idx := -1
		switch e := it.Expr.(type) {
		case *ast.Literal:
			v := e.Value()
			if v.T != sqltypes.Int {
				return nil, fmt.Errorf("ORDER BY position must be an integer")
			}
			p := int(v.I)
			if p < 1 || p > len(cols) {
				return nil, fmt.Errorf("ORDER BY position %d is out of range", p)
			}
			idx = p - 1
		case *ast.ColumnRef:
			// Exact (qualifier-respecting) match first; if the output
			// columns are unqualified (the common case above a
			// projection), fall back to a name-only match.
			for pass := 0; pass < 2 && idx < 0; pass++ {
				for j, c := range cols {
					if !strings.EqualFold(c.Name, e.Name) {
						continue
					}
					if pass == 0 && e.Table != "" && !strings.EqualFold(c.Table, e.Table) {
						continue
					}
					if idx >= 0 {
						return nil, fmt.Errorf("ORDER BY reference %q is ambiguous", e.Name)
					}
					idx = j
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("ORDER BY column %q is not in the select list", e.Name)
			}
		default:
			return nil, fmt.Errorf("ORDER BY expression %s must be an output column or position", it.Expr)
		}
		keys[i] = SortKey{Col: idx, Desc: it.Desc}
	}
	return keys, nil
}

func (b *Builder) buildBody(body ast.SelectBody) (Node, error) {
	switch t := body.(type) {
	case *ast.SelectCore:
		return b.buildCore(t)
	case *ast.UnionExpr:
		left, err := b.buildBody(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.buildBody(t.Right)
		if err != nil {
			return nil, err
		}
		lc, rc := left.Columns(), right.Columns()
		if len(lc) != len(rc) {
			return nil, fmt.Errorf("UNION arms have different column counts (%d vs %d)", len(lc), len(rc))
		}
		var node Node = &Union{Left: left, Right: right}
		if !t.All {
			node = &Distinct{Input: node}
		}
		return node, nil
	}
	return nil, fmt.Errorf("unsupported select body %T", body)
}

// env builds a name-resolution environment from plan columns.
func env(cols []ColInfo) *expr.Env {
	e := &expr.Env{}
	for i, c := range cols {
		e.Cols = append(e.Cols, expr.Binding{
			Table: strings.ToLower(c.Table),
			Name:  strings.ToLower(c.Name),
			Index: i,
			Type:  c.Type,
		})
	}
	return e
}

func (b *Builder) buildCore(core *ast.SelectCore) (Node, error) {
	var node Node
	if core.From != nil {
		n, err := b.buildFrom(core.From)
		if err != nil {
			return nil, err
		}
		node = n
	} else {
		node = &OneRow{}
	}

	if core.Where != nil {
		if ast.HasAggregate(core.Where) {
			return nil, fmt.Errorf("aggregates are not allowed in WHERE")
		}
		c, err := expr.Compile(core.Where, env(node.Columns()))
		if err != nil {
			return nil, fmt.Errorf("WHERE: %w", err)
		}
		if err := expr.Condition(c, "WHERE"); err != nil {
			return nil, err
		}
	}
	node = placeWhere(node, FoldConstants(core.Where))

	// Expand * select items against the pre-aggregation columns, then
	// fold constant sub-expressions.
	items, err := expandStars(core.Items, node.Columns())
	if err != nil {
		return nil, err
	}
	items = foldItems(items)

	// Detect grouping.
	grouped := len(core.GroupBy) > 0
	if !grouped {
		for _, it := range items {
			if ast.HasAggregate(it.Expr) {
				grouped = true
				break
			}
		}
		if core.Having != nil {
			grouped = true
		}
	}

	having := core.Having
	if grouped {
		node, items, having, err = b.buildAggregate(node, core.GroupBy, items, having)
		if err != nil {
			return nil, err
		}
		if having != nil {
			c, err := expr.Compile(having, env(node.Columns()))
			if err != nil {
				return nil, fmt.Errorf("HAVING: %w", err)
			}
			if err := expr.Condition(c, "HAVING"); err != nil {
				return nil, err
			}
			node = &Filter{Input: node, Cond: having}
		}
	} else if core.Having != nil {
		return nil, fmt.Errorf("HAVING requires GROUP BY or aggregates")
	}

	// Projection.
	inEnv := env(node.Columns())
	projItems := make([]ProjItem, len(items))
	for i, it := range items {
		c, err := expr.Compile(it.Expr, inEnv)
		if err != nil {
			if grouped && strings.Contains(err.Error(), "does not exist") {
				return nil, fmt.Errorf("select item %s: column must appear in GROUP BY or be used in an aggregate (%w)", it.Expr, err)
			}
			return nil, fmt.Errorf("select item %s: %w", it.Expr, err)
		}
		projItems[i] = ProjItem{Expr: it.Expr, Name: itemName(it, i), Type: c.Type}
	}
	node = &Project{Input: node, Items: projItems}

	if core.Distinct {
		node = &Distinct{Input: node}
	}
	return node, nil
}

// itemName picks the output column name of a select item.
func itemName(it ast.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ast.ColumnRef); ok {
		return c.Name
	}
	if f, ok := it.Expr.(*ast.FuncCall); ok {
		return strings.ToLower(f.Name)
	}
	return fmt.Sprintf("column%d", i+1)
}

func expandStars(items []ast.SelectItem, cols []ColInfo) ([]ast.SelectItem, error) {
	var out []ast.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*ast.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range cols {
			if star.Table != "" && !strings.EqualFold(c.Table, star.Table) {
				continue
			}
			// Skip synthetic aggregate columns.
			if c.Table == AggTable {
				continue
			}
			ref := &ast.ColumnRef{Table: c.Table, Name: c.Name}
			out = append(out, ast.SelectItem{Expr: ref, Alias: c.Name})
			matched = true
		}
		if !matched {
			if star.Table != "" {
				return nil, fmt.Errorf("table %q in %s.* not found", star.Table, star.Table)
			}
			return nil, fmt.Errorf("SELECT * with no FROM clause")
		}
	}
	return out, nil
}

// buildAggregate constructs the Aggregate node and rewrites the select
// items and HAVING so they reference the aggregate's synthetic output
// columns (#agg.gN / #agg.aN).
func (b *Builder) buildAggregate(input Node, groupBy []ast.Expr, items []ast.SelectItem, having ast.Expr) (Node, []ast.SelectItem, ast.Expr, error) {
	inEnv := env(input.Columns())
	agg := &Aggregate{Input: input, GroupBy: groupBy}

	groupIdx := make(map[string]int, len(groupBy))
	for i, g := range groupBy {
		if ast.HasAggregate(g) {
			return nil, nil, nil, fmt.Errorf("aggregates are not allowed in GROUP BY")
		}
		c, err := expr.Compile(g, inEnv)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("GROUP BY: %w", err)
		}
		agg.Types = append(agg.Types, c.Type)
		groupIdx[exprKey(g)] = i
	}

	aggIdx := make(map[string]int)
	var register func(f *ast.FuncCall) (*ast.ColumnRef, error)
	register = func(f *ast.FuncCall) (*ast.ColumnRef, error) {
		key := exprKey(f)
		if i, ok := aggIdx[key]; ok {
			return &ast.ColumnRef{Table: AggTable, Name: agg.Aggs[i].OutName}, nil
		}
		spec := AggSpec{Name: f.Name, Star: f.Star, Distinct: f.Distinct}
		argType := sqltypes.Unknown
		if !f.Star {
			if len(f.Args) != 1 {
				return nil, fmt.Errorf("%s takes exactly one argument", f.Name)
			}
			if ast.HasAggregate(f.Args[0]) {
				return nil, fmt.Errorf("nested aggregates are not allowed")
			}
			c, err := expr.Compile(f.Args[0], inEnv)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.Name, err)
			}
			spec.Arg = f.Args[0]
			argType = c.Type
		}
		spec.Type = expr.AggregateResultType(f.Name, argType)
		spec.OutName = fmt.Sprintf("a%d", len(agg.Aggs))
		aggIdx[key] = len(agg.Aggs)
		agg.Aggs = append(agg.Aggs, spec)
		return &ast.ColumnRef{Table: AggTable, Name: spec.OutName}, nil
	}

	// rewrite replaces group expressions and aggregate calls with
	// references to the aggregate output. Applied top-down so that a
	// whole group expression matches before its parts are examined.
	var rewrite func(e ast.Expr) (ast.Expr, error)
	rewrite = func(e ast.Expr) (ast.Expr, error) {
		if e == nil {
			return nil, nil
		}
		if i, ok := groupIdx[exprKey(e)]; ok {
			return &ast.ColumnRef{Table: AggTable, Name: fmt.Sprintf("g%d", i)}, nil
		}
		if f, ok := e.(*ast.FuncCall); ok && ast.IsAggregateName(f.Name) {
			return register(f)
		}
		// Rebuild with rewritten children.
		var err error
		switch t := e.(type) {
		case *ast.BinaryExpr:
			n := &ast.BinaryExpr{Op: t.Op}
			if n.L, err = rewrite(t.L); err != nil {
				return nil, err
			}
			if n.R, err = rewrite(t.R); err != nil {
				return nil, err
			}
			return n, nil
		case *ast.UnaryExpr:
			n := &ast.UnaryExpr{Op: t.Op}
			if n.E, err = rewrite(t.E); err != nil {
				return nil, err
			}
			return n, nil
		case *ast.FuncCall:
			n := &ast.FuncCall{Name: t.Name, Star: t.Star, Distinct: t.Distinct}
			for _, a := range t.Args {
				ra, err := rewrite(a)
				if err != nil {
					return nil, err
				}
				n.Args = append(n.Args, ra)
			}
			return n, nil
		case *ast.CaseExpr:
			n := &ast.CaseExpr{}
			for _, w := range t.Whens {
				rc, err := rewrite(w.Cond)
				if err != nil {
					return nil, err
				}
				rr, err := rewrite(w.Result)
				if err != nil {
					return nil, err
				}
				n.Whens = append(n.Whens, ast.WhenClause{Cond: rc, Result: rr})
			}
			if n.Else, err = rewrite(t.Else); err != nil {
				return nil, err
			}
			return n, nil
		case *ast.CastExpr:
			n := &ast.CastExpr{To: t.To}
			if n.E, err = rewrite(t.E); err != nil {
				return nil, err
			}
			return n, nil
		case *ast.IsNullExpr:
			n := &ast.IsNullExpr{Negate: t.Negate}
			if n.E, err = rewrite(t.E); err != nil {
				return nil, err
			}
			return n, nil
		case *ast.InExpr:
			n := &ast.InExpr{Negate: t.Negate}
			if n.E, err = rewrite(t.E); err != nil {
				return nil, err
			}
			for _, x := range t.List {
				rx, err := rewrite(x)
				if err != nil {
					return nil, err
				}
				n.List = append(n.List, rx)
			}
			return n, nil
		case *ast.BetweenExpr:
			n := &ast.BetweenExpr{Negate: t.Negate}
			if n.E, err = rewrite(t.E); err != nil {
				return nil, err
			}
			if n.Lo, err = rewrite(t.Lo); err != nil {
				return nil, err
			}
			if n.Hi, err = rewrite(t.Hi); err != nil {
				return nil, err
			}
			return n, nil
		}
		return e, nil
	}

	outItems := make([]ast.SelectItem, len(items))
	for i, it := range items {
		re, err := rewrite(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		outItems[i] = ast.SelectItem{Expr: re, Alias: it.Alias}
		if outItems[i].Alias == "" {
			// Preserve the user-visible name from the original expr.
			outItems[i].Alias = itemName(it, i)
		}
	}
	var outHaving ast.Expr
	if having != nil {
		var err error
		outHaving, err = rewrite(having)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return agg, outItems, outHaving, nil
}

// exprKey is a normalized textual key for expression equality: column
// references are lowercased so PageRank.Node and pagerank.node match.
func exprKey(e ast.Expr) string {
	n := ast.RewriteExpr(e, func(x ast.Expr) ast.Expr {
		if c, ok := x.(*ast.ColumnRef); ok {
			return &ast.ColumnRef{Table: strings.ToLower(c.Table), Name: strings.ToLower(c.Name)}
		}
		return x
	})
	return n.String()
}

// ExprKey exposes the normalized expression key for the optimizer
// rewrites in internal/core.
func ExprKey(e ast.Expr) string { return exprKey(e) }

func (b *Builder) buildFrom(tr ast.TableRef) (Node, error) {
	switch t := tr.(type) {
	case *ast.BaseTable:
		return b.buildBase(t)
	case *ast.SubqueryRef:
		inner, err := b.clone().Build(t.Select)
		if err != nil {
			return nil, err
		}
		if t.Alias == "" {
			return inner, nil
		}
		return &Alias{Input: inner, Name: t.Alias}, nil
	case *ast.JoinRef:
		left, err := b.buildFrom(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.buildFrom(t.Right)
		if err != nil {
			return nil, err
		}
		j := &Join{Type: t.Type, Left: left, Right: right, On: FoldConstants(t.On)}
		if t.On != nil {
			if ast.HasAggregate(t.On) {
				return nil, fmt.Errorf("aggregates are not allowed in JOIN conditions")
			}
			c, err := expr.Compile(t.On, env(j.Columns()))
			if err != nil {
				return nil, fmt.Errorf("JOIN ON: %w", err)
			}
			if err := expr.Condition(c, "ON"); err != nil {
				return nil, err
			}
		}
		return j, nil
	}
	return nil, fmt.Errorf("unsupported table reference %T", tr)
}

func (b *Builder) buildBase(t *ast.BaseTable) (Node, error) {
	alias := t.Alias
	if alias == "" {
		alias = t.Name
	}
	// 1. Regular CTE reference: inline expansion (view expansion).
	if cte, ok := b.ctes[strings.ToLower(t.Name)]; ok {
		inner, err := b.clone().Build(cte.Select)
		if err != nil {
			return nil, fmt.Errorf("CTE %s: %w", cte.Name, err)
		}
		if len(cte.Cols) > 0 {
			inner, err = renameColumns(inner, cte.Cols)
			if err != nil {
				return nil, fmt.Errorf("CTE %s: %w", cte.Name, err)
			}
		}
		return &Alias{Input: inner, Name: alias}, nil
	}
	// 2. Named intermediate result (iterative CTE tables).
	if schema, ok := b.Lookup.ResultSchema(t.Name); ok {
		return &NamedResult{Name: t.Name, Alias: alias, Cols: qualify(alias, schema)}, nil
	}
	// 3. Base table.
	if schema, ok := b.Lookup.TableSchema(t.Name); ok {
		return &Scan{Table: t.Name, Alias: alias, Cols: qualify(alias, schema)}, nil
	}
	return nil, fmt.Errorf("table %q does not exist", t.Name)
}

// renameColumns applies a CTE column list over a plan's output.
func renameColumns(n Node, names []string) (Node, error) {
	cols := n.Columns()
	if len(names) != len(cols) {
		return nil, fmt.Errorf("column list has %d names but the query produces %d columns", len(names), len(cols))
	}
	items := make([]ProjItem, len(cols))
	for i, c := range cols {
		items[i] = ProjItem{
			Expr: &ast.ColumnRef{Table: c.Table, Name: c.Name},
			Name: names[i],
			Type: c.Type,
		}
	}
	return &Project{Input: n, Items: items}, nil
}

func qualify(alias string, schema sqltypes.Schema) []ColInfo {
	out := make([]ColInfo, len(schema))
	la := strings.ToLower(alias)
	for i, c := range schema {
		out[i] = ColInfo{Table: la, Name: c.Name, Type: c.Type}
	}
	return out
}
