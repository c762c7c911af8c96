package expr

import (
	"math"
	"slices"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// The typed path. An expression whose root is a FLOAT arithmetic tree of
// one operator or more — + - * / whose static type is FLOAT, CAST(… AS
// FLOAT), ROUND(x, <literal digits>), CEILING/CEIL/FLOOR and the INT % or
// MOD of two statically INT operands, over numeric columns and INT and
// FLOAT literals — is also compiled into a floatProg, which evaluates it
// as float64 with no Value per node. Exported Compile attaches it at the
// root only, and the root's Eval runs it once per row; where it cannot
// reproduce the generic result exactly it bails, and the generic
// evaluator, which never tries it again, computes the row. It bails on:
//   - a leaf that is not INT or FLOAT at run time (NULL, BOOLEAN,
//     VARCHAR), or a column the row is too short for;
//   - an arithmetic operator over two INTs, which is integer arithmetic
//     with overflow checks, and a zero divisor, for which the generic one
//     fails;
//   - a % or MOD whose operands are not both INTs, or one of them is not
//     below 2^53 in magnitude — the float64 it is carried in would not be
//     the INT — or whose divisor is 0;
//   - ROUND of an INT, whose result is an INT, and an INT result.
//
// Everywhere else it computes what the generic kernels compute: an INT
// widens exactly as Value.Float widens it, a FLOAT op FLOAT or a mixed
// operator is the IEEE operation on the two floats, an INT % INT is the
// int64 remainder of the INTs the two floats carry exactly, CAST of a
// FLOAT is itself, CEILING and FLOOR are math.Ceil and math.Floor of the
// widened operand, and ROUND calls the same roundFloat.
//
// A condition whose root is a comparison (= != < <= > >=) of two such
// trees, or of numeric leaves — FF's MOD(node, 2) = 0, SSSP-VS's
// delta != 9999999 — gets a program too, ending in a floatCmp step. Its
// Eval does not run it: only a batch does (batch.go), where it yields
// the rows the condition holds for.

// floatOp is what a step of a floatProg does.
type floatOp uint8

const (
	floatCol   floatOp = iota // push row[col] as a float64
	floatConst                // push v, an INT if isInt
	floatArith                // pop b and a, push kernel(a, b)
	floatMod                  // pop b and a, push the INT a % b
	floatCast                 // CAST AS FLOAT: the top is no longer an INT
	floatRound                // round the top with 10^digits = v
	floatCeil                 // CEILING of the top
	floatFloor                // FLOOR of the top
	floatCmp                  // pop b and a: a condition's root (batch only)
)

type floatStep struct {
	col    int
	v      float64
	kernel floatKernel // floatArith
	vec    vecKernel   // floatArith: kernel over a batch
	op     floatOp
	isInt  bool    // floatConst: v is an INT literal's
	holds  [3]bool // floatCmp: whether a < b, a = b and a > b satisfy it
}

// A floatProg is a FLOAT arithmetic tree in postfix order over a stack of
// float64s, each marked whether it is a widened INT. A tree of n leaves
// has at most n-1 binary operators, so a program of maxFloatSteps steps
// has at most floatDepth leaves, and its stack never holds more values.
type floatProg []floatStep

const (
	maxFloatSteps = 15
	floatDepth    = (maxFloatSteps + 1) / 2
)

// ops counts the steps that are operators, not leaves.
func (p floatProg) ops() int {
	n := 0
	for _, s := range p {
		if s.op >= floatArith {
			n++
		}
	}
	return n
}

// cond reports whether p is a condition's program, ending in floatCmp.
func (p floatProg) cond() bool { return len(p) > 0 && p[len(p)-1].op == floatCmp }

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

// exactInt reports whether an INT carried as f is carried exactly: an
// int64 below 2^53 in magnitude widens to the float64 of the same value,
// and one at or above it to a float64 at or above it.
func exactInt(f float64) bool { return f > -(1<<53) && f < 1<<53 }

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
			if s.isInt {
				ints |= 1 << n
			}
			n++
		case floatArith:
			n--
			if st[n-1], ok = s.kernel(st[n-1], st[n], ints>>(n-1)&3 == 3); !ok {
				return 0, false
			}
			ints &^= 3 << (n - 1)
		case floatMod:
			n--
			a, b := st[n-1], st[n]
			if ints>>(n-1)&3 != 3 || !exactInt(a) || !exactInt(b) || b == 0 {
				return 0, false
			}
			st[n-1] = float64(int64(a) % int64(b))
			ints &^= 1 << n
		case floatCast:
			ints &^= 1 << (n - 1)
		case floatRound:
			if ints>>(n-1)&1 != 0 {
				return 0, false
			}
			st[n-1] = roundFloat(st[n-1], s.v)
		case floatCeil:
			st[n-1], ints = math.Ceil(st[n-1]), ints&^(1<<(n-1))
		case floatFloor:
			st[n-1], ints = math.Floor(st[n-1]), ints&^(1<<(n-1))
		default: // floatCmp: a condition's program runs over batches only
			return 0, false
		}
	}
	return st[0], ints == 0
}

// withFloat attaches the typed path to c, compiled from e, where e is a
// FLOAT arithmetic tree or a comparison of two typed trees or numeric
// leaves: PageRank's rank + delta, delta * Weight and 0.85 * SUM(…) take
// it, so a batch runs each as one program over its vectors. A FLOAT
// tree's Eval tries the program first; a condition's Eval is left as it
// was, and its program runs only over a batch (batch.go).
func withFloat(c *Compiled, e ast.Expr, env *Env) *Compiled { return withProg(c, e, env, 1) }

// withProg is withFloat for programs of minOps operators or more.
func withProg(c *Compiled, e ast.Expr, env *Env, minOps int) *Compiled {
	if c.Col >= 0 || c.lit != nil || c.Type != sqltypes.Float && c.Type != sqltypes.Bool {
		return c // a leaf, or neither a FLOAT nor a condition
	}
	var buf [maxFloatSteps]floatStep
	var p floatProg
	ok := false
	if c.Type == sqltypes.Float {
		p, _, ok = emitFloat(buf[:0], e, env)
	} else {
		p, ok = emitCond(buf[:0], e, env)
	}
	if !ok || p.ops() < minOps {
		return c
	}
	prog := floatProg(slices.Clone(p))
	c.prog = prog
	if prog.cond() {
		return c
	}
	generic := c.Eval
	c.Eval = func(row sqltypes.Row) (sqltypes.Value, error) {
		if f, ok := prog.eval(row); ok {
			return sqltypes.NewFloat(f), nil
		}
		return generic(row)
	}
	return c
}

// comparisons are the comparison operators a condition's program may end
// in, with whether a < b, a = b and a > b satisfy each.
var comparisons = map[string][3]bool{
	"=":  {false, true, false},
	"!=": {true, false, true},
	"<":  {true, false, false},
	"<=": {true, true, false},
	">":  {false, false, true},
	">=": {false, true, true},
}

// emitCond appends the steps of a comparison of two typed trees to p, or
// returns ok false where e is no such comparison.
func emitCond(p []floatStep, e ast.Expr, env *Env) (_ []floatStep, ok bool) {
	t, isBin := e.(*ast.BinaryExpr)
	if !isBin {
		return p, false
	}
	holds, isCmp := comparisons[t.Op]
	if !isCmp {
		return p, false
	}
	if p, _, ok = emitFloat(p, t.L, env); !ok {
		return p, false
	}
	if p, _, ok = emitFloat(p, t.R, env); !ok || len(p) == maxFloatSteps {
		return p, false
	}
	return append(p, floatStep{op: floatCmp, holds: holds}), true
}

// emitFloat appends e's steps to p in postfix order and returns e's
// static type, or ok false where e is no typed tree over numeric columns
// and INT and FLOAT literals, or needs more steps than a program may
// have. Every arithmetic operator it takes must be statically FLOAT, and
// every % or MOD statically INT: a column typed INT may hold FLOATs at
// run time (FF's friends does), but INT∘INT would bail on every row of
// + - * /, and a FLOAT % on every row of %.
func emitFloat(p []floatStep, e ast.Expr, env *Env) (_ []floatStep, typ sqltypes.Type, ok bool) {
	var s floatStep
	var l, r ast.Expr // the operands of a binary operator, which s is
	switch t := e.(type) {
	case *ast.ColumnRef:
		b, err := env.Resolve(t.Table, t.Name)
		if err != nil || b.Type != sqltypes.Int && b.Type != sqltypes.Float {
			return p, typ, false
		}
		s, typ = floatStep{op: floatCol, col: b.Index}, b.Type
	case *ast.Literal:
		switch v := env.bound(t); v.T {
		case sqltypes.Float:
			s = floatStep{op: floatConst, v: v.F}
		case sqltypes.Int:
			s = floatStep{op: floatConst, v: v.Float(), isInt: true}
		default:
			return p, typ, false
		}
		typ = t.Type()
	case *ast.BinaryExpr:
		if t.Op == "%" {
			s = floatStep{op: floatMod}
		} else if k, isArith := floatKernels[t.Op]; isArith {
			s = floatStep{op: floatArith, kernel: k, vec: vecKernels[t.Op]}
		} else {
			return p, typ, false
		}
		l, r = t.L, t.R
	case *ast.CastExpr:
		if t.To != sqltypes.Float {
			return p, typ, false
		}
		if p, _, ok = emitFloat(p, t.E, env); !ok {
			return p, typ, false
		}
		s, typ = floatStep{op: floatCast}, sqltypes.Float
	case *ast.FuncCall:
		switch {
		case t.Name == "MOD" && len(t.Args) == 2:
			s, l, r = floatStep{op: floatMod}, t.Args[0], t.Args[1]
		case (t.Name == "CEILING" || t.Name == "CEIL" || t.Name == "FLOOR") && len(t.Args) == 1:
			if p, _, ok = emitFloat(p, t.Args[0], env); !ok {
				return p, typ, false
			}
			s, typ = floatStep{op: floatCeil}, sqltypes.Float
			if t.Name == "FLOOR" {
				s.op = floatFloor
			}
		case t.Name == "ROUND" && len(t.Args) == 2:
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
	default:
		return p, typ, false
	}
	if l != nil {
		var lt, rt sqltypes.Type
		if p, lt, ok = emitFloat(p, l, env); !ok {
			return p, typ, false
		}
		if p, rt, ok = emitFloat(p, r, env); !ok {
			return p, typ, false
		}
		typ = sqltypes.ResultType(lt, rt, "+") // INT∘INT is INT, else FLOAT
	}
	if s.op == floatMod && typ != sqltypes.Int || s.op >= floatArith && s.op != floatMod && typ != sqltypes.Float ||
		len(p) == maxFloatSteps {
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
