package expr

import (
	"cmp"
	"math"

	"dbspinner/internal/sqltypes"
)

// binaryKernel evaluates one binary operator over its evaluated
// operands. compileBinary looks the operator up once, when it compiles
// the expression; nothing switches on the operator per row.
type binaryKernel struct {
	eval func(a, b sqltypes.Value) (sqltypes.Value, error)
	// predicate marks operators whose result is BOOLEAN; the others are
	// typed by sqltypes.ResultType.
	predicate bool
}

// binaryKernels holds every binary operator but AND and OR, which
// short-circuit and so evaluate their right operand themselves.
var binaryKernels = map[string]binaryKernel{
	"+":    {eval: add},
	"-":    {eval: sub},
	"*":    {eval: mul},
	"/":    {eval: div},
	"%":    {eval: mod},
	"=":    comparison(false, true, false),
	"!=":   comparison(true, false, true),
	"<":    comparison(true, false, false),
	"<=":   comparison(true, true, false),
	">":    comparison(false, false, true),
	">=":   comparison(false, true, true),
	"||":   {eval: sqltypes.Concat},
	"LIKE": {eval: like, predicate: true},
}

// The arithmetic kernels compute INT op INT (through the checked sqltypes
// INT functions) and FLOAT op FLOAT inline, with exactly the arithmetic of
// the sqltypes function, and hand everything else — mixed tags, NULL,
// non-numbers, a zero FLOAT divisor — to that function, which also
// reports the errors.

func add(a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.T == b.T {
		switch a.T {
		case sqltypes.Int:
			return sqltypes.AddInt(a.I, b.I)
		case sqltypes.Float:
			return sqltypes.NewFloat(a.F + b.F), nil
		}
	}
	return sqltypes.Add(a, b)
}

func sub(a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.T == b.T {
		switch a.T {
		case sqltypes.Int:
			return sqltypes.SubInt(a.I, b.I)
		case sqltypes.Float:
			return sqltypes.NewFloat(a.F - b.F), nil
		}
	}
	return sqltypes.Sub(a, b)
}

func mul(a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.T == b.T {
		switch a.T {
		case sqltypes.Int:
			return sqltypes.MulInt(a.I, b.I)
		case sqltypes.Float:
			return sqltypes.NewFloat(a.F * b.F), nil
		}
	}
	return sqltypes.Mul(a, b)
}

func div(a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.T == b.T {
		switch {
		case a.T == sqltypes.Int:
			return sqltypes.DivInt(a.I, b.I)
		case a.T == sqltypes.Float && b.F != 0:
			return sqltypes.NewFloat(a.F / b.F), nil
		}
	}
	return sqltypes.Div(a, b)
}

func mod(a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.T == b.T {
		switch {
		case a.T == sqltypes.Int && b.I != 0:
			return sqltypes.NewInt(a.I % b.I), nil
		case a.T == sqltypes.Float && b.F != 0:
			return sqltypes.NewFloat(math.Mod(a.F, b.F)), nil
		}
	}
	return sqltypes.Mod(a, b)
}

// comparison returns the kernel of a comparison operator that holds
// where compare says less, equal or greater as lt, eq and gt say. NULL
// on either side makes the result NULL.
func comparison(lt, eq, gt bool) binaryKernel {
	holds := [3]bool{lt, eq, gt}
	return binaryKernel{predicate: true, eval: func(a, b sqltypes.Value) (sqltypes.Value, error) {
		if a.IsNull() || b.IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewBool(holds[compare(a, b)+1]), nil
	}}
}

// compare is sqltypes.Compare with INT–INT and FLOAT–FLOAT decided
// inline.
func compare(a, b sqltypes.Value) int {
	if a.T == b.T {
		switch a.T {
		case sqltypes.Int:
			return cmp.Compare(a.I, b.I)
		case sqltypes.Float:
			return sqltypes.CompareFloat(a.F, b.F)
		}
	}
	return sqltypes.Compare(a, b)
}

func like(a, b sqltypes.Value) (sqltypes.Value, error) {
	if a.IsNull() || b.IsNull() {
		return sqltypes.NullValue, nil
	}
	return sqltypes.NewBool(likeMatch(a.String(), b.String())), nil
}
