package expr

import (
	"dbspinner/internal/sqltypes"
)

// Operands are read in place. A bound evaluator calls an operand's Eval
// only when the operand is itself an operator, a function call or a
// CASE: a bare column is read as row[i], after the bound check the
// column's Eval makes, and a literal is the value the run bound to it,
// captured when the evaluator binds. A row too short for a column fails
// with the column's own error, which its Eval returns, at the point the
// column's turn to be evaluated comes: operands still evaluate left to
// right, and the first error wins.
//
// The binary operators, the hottest evaluators, get one closure per
// shape of their operands, chosen at compile time (bindLeaves). The rest
// read each operand through an operand value: an inlined check, and the
// operand's Eval only where it is no leaf.
//
// Operands compile through compileOperand, which never attaches the typed
// path (float.go): a FLOAT tree is tried as one program at the root that
// Compile returns, once per row, and a row it bails on runs these
// closures alone.

// binaryFn is a function of two evaluated operands: a binary operator's
// kernel or a library function of two arguments.
type binaryFn = func(a, b sqltypes.Value) (sqltypes.Value, error)

// bindBinary binds f over the operands l and r. A variable only so the
// tests can seed a mutant shape; nothing else assigns it.
var bindBinary = bindLeaves

// bindLeaves binds f over the operands l and r, evaluated left to right:
// one closure per shape — column, literal or any other expression on
// each side — so that a leaf costs no call. Two literals take the
// literal∘expression shape.
func bindLeaves(f binaryFn, l, r *Compiled) evalFunc {
	li, ri := l.Col, r.Col
	lv, lLit := l.literal()
	rv, rLit := r.literal()
	le, re := l.Eval, r.Eval
	switch {
	case li >= 0 && ri >= 0:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			if li >= len(row) {
				return le(row)
			}
			if ri >= len(row) {
				return re(row)
			}
			return f(row[li], row[ri])
		}
	case li >= 0 && rLit:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			if li >= len(row) {
				return le(row)
			}
			return f(row[li], rv)
		}
	case lLit && ri >= 0:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			if ri >= len(row) {
				return re(row)
			}
			return f(lv, row[ri])
		}
	case li >= 0:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			if li >= len(row) {
				return le(row)
			}
			b, err := re(row)
			if err != nil {
				return sqltypes.NullValue, err
			}
			return f(row[li], b)
		}
	case ri >= 0:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			a, err := le(row)
			if err != nil {
				return sqltypes.NullValue, err
			}
			if ri >= len(row) {
				return re(row)
			}
			return f(a, row[ri])
		}
	case lLit:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			b, err := re(row)
			if err != nil {
				return sqltypes.NullValue, err
			}
			return f(lv, b)
		}
	case rLit:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			a, err := le(row)
			if err != nil {
				return sqltypes.NullValue, err
			}
			return f(a, rv)
		}
	}
	return func(row sqltypes.Row) (sqltypes.Value, error) {
		a, err := le(row)
		if err != nil {
			return sqltypes.NullValue, err
		}
		b, err := re(row)
		if err != nil {
			return sqltypes.NullValue, err
		}
		return f(a, b)
	}
}

// operand is a compiled operand as an evaluator reads it: a column
// (col >= 0) or a literal (lit, valued v) in place, anything else — and
// a column the row is too short for — through eval.
type operand struct {
	eval evalFunc
	col  int
	lit  bool
	v    sqltypes.Value
}

func operandOf(c *Compiled) operand {
	v, lit := c.literal()
	return operand{eval: c.Eval, col: c.Col, lit: lit, v: v}
}

func operandsOf(cs []*Compiled) []operand {
	out := make([]operand, len(cs))
	for i, c := range cs {
		out[i] = operandOf(c)
	}
	return out
}

// leaf returns the operand's value over row when it is read in place —
// a column the row holds, or a literal — and ok false when the caller
// must call eval instead: for any other expression, and for a column the
// row is too short for, whose eval fails. It is small enough to inline,
// so a leaf costs its evaluator a branch, not a call.
func (o *operand) leaf(row sqltypes.Row) (v sqltypes.Value, ok bool) {
	if uint(o.col) < uint(len(row)) {
		return row[o.col], true
	}
	return o.v, o.lit
}
