package ast

import "strings"

// WalkExpr calls fn for e and every sub-expression, pre-order. fn may
// return false to stop descending into the current node's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil {
		return
	}
	if !fn(e) {
		return
	}
	switch t := e.(type) {
	case *BinaryExpr:
		WalkExpr(t.L, fn)
		WalkExpr(t.R, fn)
	case *UnaryExpr:
		WalkExpr(t.E, fn)
	case *FuncCall:
		for _, a := range t.Args {
			WalkExpr(a, fn)
		}
	case *CaseExpr:
		for _, w := range t.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Result, fn)
		}
		WalkExpr(t.Else, fn)
	case *CastExpr:
		WalkExpr(t.E, fn)
	case *IsNullExpr:
		WalkExpr(t.E, fn)
	case *InExpr:
		WalkExpr(t.E, fn)
		for _, x := range t.List {
			WalkExpr(x, fn)
		}
	case *BetweenExpr:
		WalkExpr(t.E, fn)
		WalkExpr(t.Lo, fn)
		WalkExpr(t.Hi, fn)
	}
}

// CloneExpr returns a deep copy of an expression tree.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *ColumnRef:
		c := *t
		return &c
	case *Literal:
		c := *t
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: t.Op, L: CloneExpr(t.L), R: CloneExpr(t.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: t.Op, E: CloneExpr(t.E)}
	case *FuncCall:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = CloneExpr(a)
		}
		return &FuncCall{Name: t.Name, Args: args, Star: t.Star, Distinct: t.Distinct, Pos: t.Pos}
	case *CaseExpr:
		whens := make([]WhenClause, len(t.Whens))
		for i, w := range t.Whens {
			whens[i] = WhenClause{Cond: CloneExpr(w.Cond), Result: CloneExpr(w.Result)}
		}
		return &CaseExpr{Whens: whens, Else: CloneExpr(t.Else)}
	case *CastExpr:
		return &CastExpr{E: CloneExpr(t.E), To: t.To}
	case *IsNullExpr:
		return &IsNullExpr{E: CloneExpr(t.E), Negate: t.Negate}
	case *InExpr:
		list := make([]Expr, len(t.List))
		for i, x := range t.List {
			list[i] = CloneExpr(x)
		}
		return &InExpr{E: CloneExpr(t.E), List: list, Negate: t.Negate}
	case *BetweenExpr:
		return &BetweenExpr{E: CloneExpr(t.E), Lo: CloneExpr(t.Lo), Hi: CloneExpr(t.Hi), Negate: t.Negate}
	case *Star:
		c := *t
		return &c
	}
	return e
}

// RewriteExpr returns a copy of e with fn applied bottom-up: children
// are rewritten first, then fn is applied to the rebuilt node. fn must
// return the (possibly replaced) expression.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *BinaryExpr:
		e = &BinaryExpr{Op: t.Op, L: RewriteExpr(t.L, fn), R: RewriteExpr(t.R, fn)}
	case *UnaryExpr:
		e = &UnaryExpr{Op: t.Op, E: RewriteExpr(t.E, fn)}
	case *FuncCall:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = RewriteExpr(a, fn)
		}
		e = &FuncCall{Name: t.Name, Args: args, Star: t.Star, Distinct: t.Distinct, Pos: t.Pos}
	case *CaseExpr:
		whens := make([]WhenClause, len(t.Whens))
		for i, w := range t.Whens {
			whens[i] = WhenClause{Cond: RewriteExpr(w.Cond, fn), Result: RewriteExpr(w.Result, fn)}
		}
		e = &CaseExpr{Whens: whens, Else: RewriteExpr(t.Else, fn)}
	case *CastExpr:
		e = &CastExpr{E: RewriteExpr(t.E, fn), To: t.To}
	case *IsNullExpr:
		e = &IsNullExpr{E: RewriteExpr(t.E, fn), Negate: t.Negate}
	case *InExpr:
		list := make([]Expr, len(t.List))
		for i, x := range t.List {
			list[i] = RewriteExpr(x, fn)
		}
		e = &InExpr{E: RewriteExpr(t.E, fn), List: list, Negate: t.Negate}
	case *BetweenExpr:
		e = &BetweenExpr{E: RewriteExpr(t.E, fn), Lo: RewriteExpr(t.Lo, fn), Hi: RewriteExpr(t.Hi, fn), Negate: t.Negate}
	}
	return fn(e)
}

// ColumnRefs collects every column reference in an expression.
func ColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// aggregateNames is the set of recognized aggregate functions.
var aggregateNames = map[string]bool{
	"SUM": true, "COUNT": true, "MIN": true, "MAX": true, "AVG": true,
}

// IsAggregateName reports whether the (uppercased) function name is an
// aggregate.
func IsAggregateName(name string) bool { return aggregateNames[strings.ToUpper(name)] }

// HasAggregate reports whether e contains any aggregate function call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && IsAggregateName(f.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// WalkTableRefs calls fn for t and every nested table ref.
func WalkTableRefs(t TableRef, fn func(TableRef) bool) {
	if t == nil {
		return
	}
	if !fn(t) {
		return
	}
	if j, ok := t.(*JoinRef); ok {
		WalkTableRefs(j.Left, fn)
		WalkTableRefs(j.Right, fn)
	}
}

// BaseTables returns all base-table references in a FROM tree.
func BaseTables(t TableRef) []*BaseTable {
	var out []*BaseTable
	WalkTableRefs(t, func(r TableRef) bool {
		if b, ok := r.(*BaseTable); ok {
			out = append(out, b)
		}
		return true
	})
	return out
}

// CountTableRefs counts references to the named table (case
// insensitive) in a FROM tree, including inside derived tables.
func CountTableRefs(t TableRef, name string) int {
	n := 0
	WalkTableRefs(t, func(r TableRef) bool {
		switch x := r.(type) {
		case *BaseTable:
			if strings.EqualFold(x.Name, name) {
				n++
			}
		case *SubqueryRef:
			n += CountStmtTableRefs(x.Select, name)
		}
		return true
	})
	return n
}

// CountStmtTableRefs counts references to the named table anywhere in a
// statement's FROM clauses (descending through UNION arms and derived
// tables).
func CountStmtTableRefs(s *SelectStmt, name string) int {
	if s == nil {
		return 0
	}
	return countBodyTableRefs(s.Body, name)
}

func countBodyTableRefs(b SelectBody, name string) int {
	switch t := b.(type) {
	case *SelectCore:
		if t.From == nil {
			return 0
		}
		return CountTableRefs(t.From, name)
	case *UnionExpr:
		return countBodyTableRefs(t.Left, name) + countBodyTableRefs(t.Right, name)
	}
	return 0
}

// WalkStmtExprs calls fn with the root of every expression tree
// attached to a statement outside its WITH clause: each select item,
// WHERE, GROUP BY keys, HAVING, ORDER BY keys and join ON conditions,
// recursing into UNION arms and derived tables. Use WalkExpr inside fn
// to descend into each tree.
func WalkStmtExprs(s *SelectStmt, fn func(Expr)) {
	if s == nil {
		return
	}
	walkBodyExprs(s.Body, fn)
	for _, o := range s.OrderBy {
		fn(o.Expr)
	}
	if s.Limit != nil {
		fn(s.Limit)
	}
	if s.Offset != nil {
		fn(s.Offset)
	}
}

func walkBodyExprs(b SelectBody, fn func(Expr)) {
	switch t := b.(type) {
	case *SelectCore:
		for _, it := range t.Items {
			fn(it.Expr)
		}
		walkFromExprs(t.From, fn)
		if t.Where != nil {
			fn(t.Where)
		}
		for _, g := range t.GroupBy {
			fn(g)
		}
		if t.Having != nil {
			fn(t.Having)
		}
	case *UnionExpr:
		walkBodyExprs(t.Left, fn)
		walkBodyExprs(t.Right, fn)
	}
}

func walkFromExprs(t TableRef, fn func(Expr)) {
	WalkTableRefs(t, func(r TableRef) bool {
		switch x := r.(type) {
		case *JoinRef:
			if x.On != nil {
				fn(x.On)
			}
		case *SubqueryRef:
			WalkStmtExprs(x.Select, fn)
		}
		return true
	})
}

// StmtColumnRefs collects every column reference appearing anywhere in
// a statement outside its WITH clause (select items, WHERE, GROUP BY,
// HAVING, ORDER BY, join ON conditions, derived tables, UNION arms).
// The second result reports whether any select list at any depth
// contains a * / t.* item, in which case the reference list is
// incomplete and callers must be conservative.
func StmtColumnRefs(s *SelectStmt) ([]*ColumnRef, bool) {
	var refs []*ColumnRef
	star := false
	WalkStmtExprs(s, func(e Expr) {
		WalkExpr(e, func(x Expr) bool {
			switch c := x.(type) {
			case *ColumnRef:
				refs = append(refs, c)
			case *Star:
				star = true
			}
			return true
		})
	})
	return refs, star
}

// StmtBaseTables returns every base-table reference in any FROM clause
// of the statement, descending through UNION arms and derived tables
// (but not the WITH clause).
func StmtBaseTables(s *SelectStmt) []*BaseTable {
	if s == nil {
		return nil
	}
	var out []*BaseTable
	collectBodyBaseTables(s.Body, &out)
	return out
}

func collectBodyBaseTables(b SelectBody, out *[]*BaseTable) {
	switch t := b.(type) {
	case *SelectCore:
		WalkTableRefs(t.From, func(r TableRef) bool {
			switch x := r.(type) {
			case *BaseTable:
				*out = append(*out, x)
			case *SubqueryRef:
				collectBodyBaseTables(x.Select.Body, out)
			}
			return true
		})
	case *UnionExpr:
		collectBodyBaseTables(t.Left, out)
		collectBodyBaseTables(t.Right, out)
	}
}

// SplitConjuncts splits an expression on top-level ANDs.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(make([]Expr, 0, 4), e)
}

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && strings.EqualFold(b.Op, "AND") {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	if e == nil {
		return dst
	}
	return append(dst, e)
}

// Strict reports whether e is never TRUE when any column it reads is
// NULL: it is built only of column references, literals, comparisons and
// arithmetic, each of which yields NULL from a NULL operand. A WHERE
// conjunct that is strict and reads the nullable side of an outer join
// rejects that join's NULL-extended rows. The test is a whitelist:
// IS NULL, CASE, OR, NOT, and functions such as COALESCE, LEAST,
// GREATEST, CONCAT and NULLIF can make something of a NULL argument.
func Strict(e Expr) bool {
	strict := true
	WalkExpr(e, func(x Expr) bool {
		switch t := x.(type) {
		case *ColumnRef, *Literal:
		case *BinaryExpr:
			strict = strict && strictOps[t.Op]
		case *UnaryExpr:
			strict = strict && t.Op == "-"
		default:
			strict = false
		}
		return strict
	})
	return strict
}

// strictOps are the binary operators that yield NULL from a NULL
// operand.
var strictOps = map[string]bool{
	"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true,
	"+": true, "-": true, "*": true, "/": true, "%": true,
}

// JoinConjuncts rebuilds a conjunction from a list of predicates (nil
// for an empty list).
func JoinConjuncts(list []Expr) Expr {
	var out Expr
	for _, e := range list {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}
