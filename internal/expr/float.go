package expr

import (
	"math"
	"slices"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// The typed path. An expression whose root is a FLOAT arithmetic tree of
// two operators or more — + - * / whose static type is FLOAT, CAST(… AS
// FLOAT) and ROUND(x, <literal digits>), over numeric columns and FLOAT
// literals — is also compiled into a floatProg, which evaluates it as
// float64 with no Value per node. Exported Compile attaches it at the root
// only, and the root's Eval runs it once per row; where it cannot
// reproduce the generic result exactly it bails, and the generic
// evaluator, which never tries it again, computes the row. It bails on:
//   - a leaf that is not INT or FLOAT at run time (NULL, BOOLEAN,
//     VARCHAR), or a column the row is too short for;
//   - an operator over two INTs, which is integer arithmetic with
//     overflow checks, and a zero divisor, for which the generic one fails;
//   - ROUND of an INT, whose result is an INT, and an INT result.
//
// Everywhere else it computes what the generic kernels compute: an INT
// widens exactly as Value.Float widens it, a FLOAT op FLOAT or a mixed
// operator is the IEEE operation on the two floats, CAST of a FLOAT is
// itself, and ROUND calls the same roundFloat.

// floatOp is what a step of a floatProg does.
type floatOp uint8

const (
	floatCol   floatOp = iota // push row[col] as a float64
	floatConst                // push v
	floatArith                // pop b and a, push kernel(a, b)
	floatCast                 // CAST AS FLOAT: the top is no longer an INT
	floatRound                // round the top with 10^digits = v
)

type floatStep struct {
	op     floatOp
	col    int
	v      float64
	kernel floatKernel
}

// A floatProg is a FLOAT arithmetic tree in postfix order over a stack of
// float64s, each marked whether it is a widened INT. A tree of n leaves
// has n-1 binary operators, so a program of maxFloatSteps steps has at
// most floatDepth leaves, and its stack never holds more values.
type floatProg []floatStep

const (
	maxFloatSteps = 15
	floatDepth    = (maxFloatSteps + 1) / 2
)

// floatKernel is a binary operator of the typed path: a∘b, and ok false
// where the generic kernel returns no FLOAT a∘b — for two INTs (ints),
// and for a zero divisor.
type floatKernel func(a, b float64, ints bool) (float64, bool)

// floatKernels hold + - * /. A variable only so the tests can seed
// mutant bails; nothing else assigns it.
var floatKernels = map[string]floatKernel{
	"+": func(a, b float64, ints bool) (float64, bool) { return a + b, !ints },
	"-": func(a, b float64, ints bool) (float64, bool) { return a - b, !ints },
	"*": func(a, b float64, ints bool) (float64, bool) { return a * b, !ints },
	"/": func(a, b float64, ints bool) (float64, bool) { return a / b, !ints && b != 0 },
}

// eval runs p over row: the FLOAT it evaluates to, or ok false where it
// bails.
func (p floatProg) eval(row sqltypes.Row) (f float64, ok bool) {
	var st [floatDepth]float64
	var ints uint // bit i: st[i] is a widened INT; the bits from n up are 0
	n := 0
	for i := range p {
		s := &p[i]
		switch s.op {
		case floatCol:
			if uint(s.col) >= uint(len(row)) {
				return 0, false
			}
			switch v := &row[s.col]; v.T {
			case sqltypes.Float:
				st[n] = v.F
			case sqltypes.Int:
				st[n], ints = v.Float(), ints|1<<n
			default:
				return 0, false
			}
			n++
		case floatConst:
			st[n] = s.v
			n++
		case floatArith:
			n--
			if st[n-1], ok = s.kernel(st[n-1], st[n], ints>>(n-1)&3 == 3); !ok {
				return 0, false
			}
			ints &^= 3 << (n - 1)
		case floatCast:
			ints &^= 1 << (n - 1)
		case floatRound:
			if ints>>(n-1)&1 != 0 {
				return 0, false
			}
			st[n-1] = roundFloat(st[n-1], s.v)
		}
	}
	return st[0], ints == 0
}

// withFloat attaches the typed path to c, compiled from e, where e is a
// FLOAT arithmetic tree of two operators or more. A single operator over
// leaves keeps its bindLeaves closure alone, so that the single operators
// of PageRank and SSSP evaluate as they did (DESIGN.md §5h gives what the
// program measures on them).
func withFloat(c *Compiled, e ast.Expr, env *Env) *Compiled {
	if c.Type != sqltypes.Float || c.Col >= 0 || c.lit != nil {
		return c // not FLOAT, or a leaf: no operator at all
	}
	var buf [maxFloatSteps]floatStep
	p, _, ok := emitFloat(buf[:0], e, env)
	ops := 0
	for _, s := range p {
		if s.op >= floatArith {
			ops++
		}
	}
	if !ok || ops < 2 {
		return c
	}
	prog, generic := floatProg(slices.Clone(p)), c.Eval
	c.Eval = func(row sqltypes.Row) (sqltypes.Value, error) {
		if f, ok := prog.eval(row); ok {
			return sqltypes.NewFloat(f), nil
		}
		return generic(row)
	}
	return c
}

// emitFloat appends e's steps to p in postfix order and returns e's
// static type, or ok false where e is no FLOAT arithmetic tree over
// numeric columns and FLOAT literals, or needs more steps than a program
// may have. Every operator it takes must be statically FLOAT: a column
// typed INT may hold FLOATs at run time (FF's friends does), but INT∘INT
// would bail on every row.
func emitFloat(p []floatStep, e ast.Expr, env *Env) (_ []floatStep, typ sqltypes.Type, ok bool) {
	var s floatStep
	switch t := e.(type) {
	case *ast.ColumnRef:
		b, err := env.Resolve(t.Table, t.Name)
		if err != nil || b.Type != sqltypes.Int && b.Type != sqltypes.Float {
			return p, typ, false
		}
		s, typ = floatStep{op: floatCol, col: b.Index}, b.Type
	case *ast.Literal:
		v := env.bound(t)
		if v.T != sqltypes.Float {
			return p, typ, false
		}
		s, typ = floatStep{op: floatConst, v: v.F}, t.Type()
	case *ast.BinaryExpr:
		k, isArith := floatKernels[t.Op]
		if !isArith {
			return p, typ, false
		}
		var lt, rt sqltypes.Type
		if p, lt, ok = emitFloat(p, t.L, env); !ok {
			return p, typ, false
		}
		if p, rt, ok = emitFloat(p, t.R, env); !ok {
			return p, typ, false
		}
		s, typ = floatStep{op: floatArith, kernel: k}, sqltypes.ResultType(lt, rt, t.Op)
	case *ast.CastExpr:
		if t.To != sqltypes.Float {
			return p, typ, false
		}
		if p, _, ok = emitFloat(p, t.E, env); !ok {
			return p, typ, false
		}
		s, typ = floatStep{op: floatCast}, sqltypes.Float
	case *ast.FuncCall:
		if t.Name != "ROUND" || len(t.Args) != 2 {
			return p, typ, false
		}
		lit, isLit := t.Args[1].(*ast.Literal)
		if !isLit {
			return p, typ, false
		}
		d := readDigits(env.bound(lit))
		if d.null || d.err != nil {
			return p, typ, false
		}
		if p, typ, ok = emitFloat(p, t.Args[0], env); !ok {
			return p, typ, false
		}
		s = floatStep{op: floatRound, v: d.scale}
	default:
		return p, typ, false
	}
	if s.op >= floatArith && typ != sqltypes.Float || len(p) == maxFloatSteps {
		return p, typ, false
	}
	return append(p, s), typ, true
}

// roundFloat rounds v to the digits whose power of ten is scale: the one
// rounding of the generic ROUND and the typed path. Where scale or
// v·scale is infinite, no digit below 10^-digits exists at v's magnitude
// and v is its own rounding; where scale underflowed to 0, v·0 is the
// signed zero that a finite tiny scale gives (NaN for NaN).
func roundFloat(v, scale float64) float64 {
	x := v * scale
	switch {
	case math.IsInf(v, 0) || math.IsInf(scale, 0) || math.IsInf(x, 0):
		return v
	case scale == 0:
		return x
	}
	return math.Round(x) / scale
}
