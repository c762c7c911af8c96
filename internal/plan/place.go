package plan

import (
	"strings"

	"dbspinner/internal/ast"
)

// placeWhere plans a WHERE condition over the FROM tree n. Each conjunct
// goes down the join tree to the lowest input whose columns it reads:
//
//   - an inner or cross join passes a conjunct to either input;
//   - a left join passes one to its preserved (left) input always, and to
//     its nullable (right) input only when the conjunct is strict
//     (ast.Strict), which makes the join inner;
//   - a full or right join passes nothing down.
//
// A left join also becomes inner when a strict predicate above it — a
// WHERE conjunct, or a conjunct of an enclosing inner join's ON — reads
// its nullable input: such a predicate rejects every NULL-extended row
// the outer join adds. What stays above the whole tree is one Filter, or
// none or an empty result when it folded to a constant (simplifyFilter).
//
// Statements that write are planned on every call, so the pass walks the
// expressions where they are and allocates little beyond the nodes it
// makes.
func placeWhere(n Node, where ast.Expr) Node {
	if _, ok := n.(*Join); !ok {
		return simplifyFilter(n, where)
	}
	conjs := ast.SplitConjuncts(where)
	above := make([]ast.Expr, 0, 8)
	if where != nil {
		above = append(above, where)
	}
	n, stay := place(n, conjs, above)
	if len(stay) == len(conjs) {
		// Nothing moved: keep the condition as written.
		return simplifyFilter(n, where)
	}
	return simplifyFilter(n, ast.JoinConjuncts(stay))
}

// place places the conjuncts conjs, which hold above n, at or below n.
// above lists the conditions that hold above n — the WHERE among them
// unless an outer join's nullable or full input lies between — and is
// read only for their strict conjuncts, to make left joins inner. It is
// a stack: a call appends to it only past its own length, which is why
// each input's list is made right before that input is placed. place
// returns n with the conjuncts that went below it, and those that stay
// directly above it, in their order.
func place(n Node, conjs, above []ast.Expr) (Node, []ast.Expr) {
	j, ok := n.(*Join)
	if !ok {
		return n, conjs
	}
	typ := j.Type
	if typ == ast.LeftJoin && (anyRejectsNulls(above, j.Right) || anyRejectsNulls(conjs, j.Right)) {
		typ = ast.InnerJoin
	}
	left, right, stay := split(conjs, j, typ)
	l, lstay := place(j.Left, left, below(typ, onLeft, above, j.On))
	r, rstay := place(j.Right, right, below(typ, onRight, above, j.On))
	l, r = filterOver(l, lstay), filterOver(r, rstay)
	if l == j.Left && r == j.Right && typ == j.Type {
		return j, stay
	}
	return &Join{Type: typ, Left: l, Right: r, On: j.On}, stay
}

// below returns what rejects NULLs in input s of a join of type typ with
// condition on, given above, what holds above the join: everything above
// an inner join or a left join's preserved input, and the join's own ON
// on an input it does not preserve. The conjuncts placed at the join are
// in above by then, or were pushed into a nullable input by a mutant.
func below(typ ast.JoinType, s side, above []ast.Expr, on ast.Expr) []ast.Expr {
	switch {
	case typ == ast.InnerJoin, typ == ast.CrossJoin:
	case typ == ast.LeftJoin && s == onLeft:
		return above
	case typ == ast.LeftJoin, typ == ast.RightJoin && s == onLeft:
		above = above[len(above):]
	default:
		return nil
	}
	if on == nil {
		return above
	}
	return append(above, on)
}

// split sorts conjs into those that go into j's left input, those that
// go into its right input, and those that stay above it, each in their
// order. It reuses conjs when all go one way and otherwise allocates one
// slice for the three.
func split(conjs []ast.Expr, j *Join, typ ast.JoinType) (left, right, stay []ast.Expr) {
	var buf [8]side
	dest := buf[:0]
	var count [3]int
	for _, c := range conjs {
		s := sideOf(c, j)
		if s != onBoth && !pushes(typ, s) {
			s = onBoth
		}
		dest = append(dest, s)
		count[s]++
	}
	switch len(conjs) {
	case count[onBoth]:
		return nil, nil, conjs
	case count[onLeft]:
		return conjs, nil, nil
	case count[onRight]:
		return nil, conjs, nil
	}
	nl, nr := count[onLeft], count[onLeft]+count[onRight]
	out := make([]ast.Expr, len(conjs))
	next := [3]int{onBoth: nr, onLeft: 0, onRight: nl}
	for i, c := range conjs {
		out[next[dest[i]]] = c
		next[dest[i]]++
	}
	return out[:nl:nl], out[nl:nr:nr], out[nr:]
}

// filterOver puts the conjuncts cs in one Filter over n.
func filterOver(n Node, cs []ast.Expr) Node {
	if len(cs) == 0 {
		return n
	}
	return &Filter{Input: n, Cond: ast.JoinConjuncts(cs)}
}

// pushes reports whether a conjunct that reads only input s of a join of
// type typ goes into that input: any input of an inner or cross join,
// the preserved input of a left join. A strict conjunct over a left
// join's nullable input has made the join inner by now. A variable only
// so the tests can seed the mutants that push into a nullable input or
// a full join; nothing else assigns it.
var pushes = func(typ ast.JoinType, s side) bool {
	switch typ {
	case ast.InnerJoin, ast.CrossJoin:
		return true
	case ast.LeftJoin:
		return s == onLeft
	}
	return false
}

// anyRejectsNulls reports whether a strict conjunct of a condition in cs
// reads a column of n.
func anyRejectsNulls(cs []ast.Expr, n Node) bool {
	for _, c := range cs {
		if rejectsNulls(c, n) {
			return true
		}
	}
	return false
}

// rejectsNulls reports whether a strict conjunct of cond reads a column
// of n.
func rejectsNulls(cond ast.Expr, n Node) bool {
	if b, ok := cond.(*ast.BinaryExpr); ok && strings.EqualFold(b.Op, "AND") {
		return rejectsNulls(b.L, n) || rejectsNulls(b.R, n)
	}
	if !ast.Strict(cond) {
		return false
	}
	found := false
	ast.WalkExpr(cond, func(x ast.Expr) bool {
		if ref, ok := x.(*ast.ColumnRef); ok && reads(n, ref) {
			found = true
		}
		return !found
	})
	return found
}

// side is the input of a join a conjunct reads.
type side uint8

const (
	onBoth side = iota // both inputs, neither, or no column at all
	onLeft
	onRight
)

// sideOf reports the input of j whose columns every column reference of
// c resolves in, where none resolves in the other input too.
func sideOf(c ast.Expr, j *Join) side {
	s, first := onBoth, true
	ast.WalkExpr(c, func(x ast.Expr) bool {
		ref, ok := x.(*ast.ColumnRef)
		if !ok {
			return true
		}
		var rs side
		switch l, r := reads(j.Left, ref), reads(j.Right, ref); {
		case l && !r:
			rs = onLeft
		case r && !l:
			rs = onRight
		}
		if first || s == rs {
			s, first = rs, false
		} else {
			s = onBoth
		}
		return s != onBoth
	})
	return s
}

// reads reports whether ref resolves among n's columns, by the rule
// expr.Env.Resolve applies: the name matches, and the qualifier too when
// there is one.
func reads(n Node, ref *ast.ColumnRef) bool { return hasColumn(n, ref.Table, ref.Name) }

func hasColumn(n Node, table, name string) bool {
	switch t := n.(type) {
	case *Join:
		return hasColumn(t.Left, table, name) || hasColumn(t.Right, table, name)
	case *Alias:
		return (table == "" || strings.EqualFold(table, t.Name)) && hasColumn(t.Input, "", name)
	}
	for _, c := range n.Columns() {
		if strings.EqualFold(c.Name, name) && (table == "" || strings.EqualFold(c.Table, table)) {
			return true
		}
	}
	return false
}
