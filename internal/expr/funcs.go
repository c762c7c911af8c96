package expr

import (
	"fmt"
	"math"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// evalFunc is what a compiled expression runs per row.
type evalFunc = func(sqltypes.Row) (sqltypes.Value, error)

// scalarFunc is one library function: its arity, its result type, and
// how it binds to the compiled arguments of a call. bind runs once per
// call site, at compile time; the evaluator it returns evaluates every
// argument left to right, returns the first error, and allocates nothing
// per row beyond what the function's result itself needs (a new string).
type scalarFunc struct {
	minArgs, maxArgs int // maxArgs < 0 means variadic
	resultType       func(args []sqltypes.Type) sqltypes.Type
	bind             func(args []*Compiled) evalFunc
}

func fixedType(t sqltypes.Type) func([]sqltypes.Type) sqltypes.Type {
	return func([]sqltypes.Type) sqltypes.Type { return t }
}

func firstArgType(args []sqltypes.Type) sqltypes.Type {
	if len(args) == 0 {
		return sqltypes.Unknown
	}
	return args[0]
}

func mergedType(args []sqltypes.Type) sqltypes.Type {
	t := sqltypes.Unknown
	for _, a := range args {
		t = mergeTypes(t, a)
	}
	return t
}

// unary binds a function of one argument.
func unary(f func(sqltypes.Value) (sqltypes.Value, error)) func([]*Compiled) evalFunc {
	return func(args []*Compiled) evalFunc {
		x := operandOf(args[0])
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			v, ok := x.leaf(row)
			if !ok {
				var err error
				if v, err = x.eval(row); err != nil {
					return sqltypes.NullValue, err
				}
			}
			return f(v)
		}
	}
}

// binary binds a function of two arguments, with the binary operators'
// operand shapes.
func binary(f binaryFn) func([]*Compiled) evalFunc {
	return func(args []*Compiled) evalFunc { return bindBinary(f, args[0], args[1]) }
}

// numeric1 wraps a float function as a NULL-propagating unary scalar.
func numeric1(f func(float64) float64, rt sqltypes.Type) func([]*Compiled) evalFunc {
	return unary(func(v sqltypes.Value) (sqltypes.Value, error) {
		if v.IsNull() {
			return sqltypes.NullValue, nil
		}
		if v.T != sqltypes.Int && v.T != sqltypes.Float {
			return sqltypes.NullValue, fmt.Errorf("numeric argument required, got %s", v.T)
		}
		r := f(v.Float())
		if rt == sqltypes.Int {
			return sqltypes.NewInt(int64(r)), nil
		}
		return sqltypes.NewFloat(r), nil
	})
}

var scalarFuncs = map[string]scalarFunc{
	"ABS": {1, 1, firstArgType, unary(func(v sqltypes.Value) (sqltypes.Value, error) {
		if v.IsNull() {
			return sqltypes.NullValue, nil
		}
		switch v.T {
		case sqltypes.Int:
			if v.I < 0 {
				return sqltypes.SubInt(0, v.I)
			}
			return v, nil
		case sqltypes.Float:
			return sqltypes.NewFloat(math.Abs(v.F)), nil
		}
		return sqltypes.NullValue, fmt.Errorf("ABS requires a numeric argument")
	})},
	"CEILING": {1, 1, fixedType(sqltypes.Float), numeric1(math.Ceil, sqltypes.Float)},
	"CEIL":    {1, 1, fixedType(sqltypes.Float), numeric1(math.Ceil, sqltypes.Float)},
	"FLOOR":   {1, 1, fixedType(sqltypes.Float), numeric1(math.Floor, sqltypes.Float)},
	"SQRT":    {1, 1, fixedType(sqltypes.Float), numeric1(math.Sqrt, sqltypes.Float)},
	"EXP":     {1, 1, fixedType(sqltypes.Float), numeric1(math.Exp, sqltypes.Float)},
	"LN":      {1, 1, fixedType(sqltypes.Float), numeric1(math.Log, sqltypes.Float)},
	"SIGN": {1, 1, fixedType(sqltypes.Int), numeric1(func(f float64) float64 {
		switch {
		case f > 0:
			return 1
		case f < 0:
			return -1
		}
		return 0
	}, sqltypes.Int)},
	"ROUND": {1, 2, firstArgType, bindRound},
	"MOD":   {2, 2, mergedType, binary(mod)},
	"POWER": {2, 2, fixedType(sqltypes.Float), binary(func(a, b sqltypes.Value) (sqltypes.Value, error) {
		if a.IsNull() || b.IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewFloat(math.Pow(a.Float(), b.Float())), nil
	})},
	"LEAST":    {1, -1, mergedType, extremum(-1)},
	"GREATEST": {1, -1, mergedType, extremum(1)},
	"COALESCE": {1, -1, mergedType, bindCoalesce},
	"NULLIF": {2, 2, firstArgType, binary(func(a, b sqltypes.Value) (sqltypes.Value, error) {
		if eq, ok := sqltypes.Equal(a, b); ok && eq {
			return sqltypes.NullValue, nil
		}
		return a, nil
	})},
	"UPPER": {1, 1, fixedType(sqltypes.String), unary(func(v sqltypes.Value) (sqltypes.Value, error) {
		if v.IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewString(strings.ToUpper(v.String())), nil
	})},
	"LOWER": {1, 1, fixedType(sqltypes.String), unary(func(v sqltypes.Value) (sqltypes.Value, error) {
		if v.IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewString(strings.ToLower(v.String())), nil
	})},
	"LENGTH": {1, 1, fixedType(sqltypes.Int), unary(func(v sqltypes.Value) (sqltypes.Value, error) {
		if v.IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewInt(int64(len(v.String()))), nil
	})},
	"SUBSTR": {2, 3, fixedType(sqltypes.String), bindSubstr},
	"CONCAT": {1, -1, fixedType(sqltypes.String), bindConcat},
}

// roundDigits is ROUND's second argument once read: the digits and
// 10^digits, or that it was NULL, or why it does not cast to INT.
type roundDigits struct {
	digits int64
	scale  float64
	null   bool
	err    error
}

func readDigits(d sqltypes.Value) roundDigits {
	if d.IsNull() {
		return roundDigits{null: true}
	}
	c, err := sqltypes.Cast(d, sqltypes.Int)
	if err != nil {
		return roundDigits{err: err}
	}
	return roundDigits{digits: c.I, scale: math.Pow(10, float64(c.I))}
}

// round rounds v to the digits: NULL if v is NULL, an error if v is not
// a number, then NULL or the cast error if the digits were.
func (d roundDigits) round(v sqltypes.Value) (sqltypes.Value, error) {
	if v.IsNull() {
		return sqltypes.NullValue, nil
	}
	if v.T != sqltypes.Int && v.T != sqltypes.Float {
		return sqltypes.NullValue, fmt.Errorf("ROUND requires a numeric argument")
	}
	if d.null || d.err != nil {
		return sqltypes.NullValue, d.err
	}
	r := roundFloat(v.Float(), d.scale)
	if v.T == sqltypes.Int && d.digits >= 0 {
		return sqltypes.NewInt(int64(r)), nil
	}
	return sqltypes.NewFloat(r), nil
}

// bindRound binds ROUND(v [, digits]). Digits given as a literal (FF's
// ROUND(..., 5)) are read once here, so a row pays for neither the cast
// nor the power of ten; ROUND(v) is ROUND(v, 0). Other digits are an
// operand like v, evaluated after it.
func bindRound(args []*Compiled) evalFunc {
	d := readDigits(sqltypes.NewInt(0))
	if len(args) == 2 {
		lit, ok := args[1].literal()
		if !ok {
			return bindBinary(func(v, dv sqltypes.Value) (sqltypes.Value, error) {
				return readDigits(dv).round(v)
			}, args[0], args[1])
		}
		d = readDigits(lit)
	}
	x := operandOf(args[0])
	return func(row sqltypes.Row) (sqltypes.Value, error) {
		v, ok := x.leaf(row)
		if !ok {
			var err error
			if v, err = x.eval(row); err != nil {
				return sqltypes.NullValue, err
			}
		}
		return d.round(v)
	}
}

// extremum binds LEAST (dir < 0) or GREATEST (dir > 0): the least or
// greatest non-NULL argument in Compare's order (NaN is the greatest
// number), NULL if all are NULL. Every argument is evaluated.
func extremum(dir int) func([]*Compiled) evalFunc {
	return func(args []*Compiled) evalFunc {
		ops := operandsOf(args)
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			best := sqltypes.NullValue
			for i := range ops {
				v, ok := ops[i].leaf(row)
				if !ok {
					var err error
					if v, err = ops[i].eval(row); err != nil {
						return sqltypes.NullValue, err
					}
				}
				if !v.IsNull() && (best.IsNull() || compare(v, best)*dir > 0) {
					best = v
				}
			}
			return best, nil
		}
	}
}

// bindCoalesce binds COALESCE: the first non-NULL argument. It does not
// short-circuit: the arguments after it are still evaluated, and an
// error among them is still returned.
func bindCoalesce(args []*Compiled) evalFunc {
	ops := operandsOf(args)
	return func(row sqltypes.Row) (sqltypes.Value, error) {
		out := sqltypes.NullValue
		for i := range ops {
			v, ok := ops[i].leaf(row)
			if !ok {
				var err error
				if v, err = ops[i].eval(row); err != nil {
					return sqltypes.NullValue, err
				}
			}
			if out.IsNull() && !v.IsNull() {
				out = v
			}
		}
		return out, nil
	}
}

// bindConcat binds CONCAT, which skips NULLs (PostgreSQL behaviour).
func bindConcat(args []*Compiled) evalFunc {
	ops := operandsOf(args)
	return func(row sqltypes.Row) (sqltypes.Value, error) {
		var b strings.Builder
		for i := range ops {
			v, ok := ops[i].leaf(row)
			if !ok {
				var err error
				if v, err = ops[i].eval(row); err != nil {
					return sqltypes.NullValue, err
				}
			}
			if !v.IsNull() {
				b.WriteString(v.String())
			}
		}
		return sqltypes.NewString(b.String()), nil
	}
}

// bindSubstr binds SUBSTR(s, start [, length]).
func bindSubstr(args []*Compiled) evalFunc {
	x, y := args[0].Eval, args[1].Eval
	var z evalFunc
	if len(args) == 3 {
		z = args[2].Eval
	}
	return func(row sqltypes.Row) (sqltypes.Value, error) {
		s, err := x(row)
		if err != nil {
			return sqltypes.NullValue, err
		}
		start, err := y(row)
		if err != nil {
			return sqltypes.NullValue, err
		}
		if z == nil {
			return substr(s, start, sqltypes.NullValue, false)
		}
		n, err := z(row)
		if err != nil {
			return sqltypes.NullValue, err
		}
		return substr(s, start, n, true)
	}
}

func substr(sv, startv, nv sqltypes.Value, hasN bool) (sqltypes.Value, error) {
	if sv.IsNull() || startv.IsNull() {
		return sqltypes.NullValue, nil
	}
	s := sv.String()
	start, err := sqltypes.Cast(startv, sqltypes.Int)
	if err != nil {
		return sqltypes.NullValue, err
	}
	// SQL SUBSTR is 1-based: the result is the window of positions
	// [start, start+length), clipped to the string's [1, len+1).
	end := int64(len(s)) + 1
	if hasN {
		if nv.IsNull() {
			return sqltypes.NullValue, nil
		}
		n, err := sqltypes.Cast(nv, sqltypes.Int)
		if err != nil {
			return sqltypes.NullValue, err
		}
		if n.I < 0 {
			return sqltypes.NullValue, fmt.Errorf("negative SUBSTR length")
		}
		// start+length only overflows for a positive start, past any end.
		if start.I <= 0 || n.I <= math.MaxInt64-start.I {
			end = min(end, start.I+n.I)
		}
	}
	lo := max(start.I, 1)
	if lo >= end {
		return sqltypes.NewString(""), nil
	}
	return sqltypes.NewString(s[lo-1 : end-1]), nil
}

// IsScalarFunc reports whether the (uppercased) name is a known scalar
// function.
func IsScalarFunc(name string) bool {
	_, ok := scalarFuncs[strings.ToUpper(name)]
	return ok
}

func compileScalarFunc(t *ast.FuncCall, env *Env) (*Compiled, error) {
	f, ok := scalarFuncs[t.Name]
	if !ok {
		return nil, fmt.Errorf("unknown function %s", t.Name)
	}
	if t.Star {
		return nil, fmt.Errorf("%s(*) is not valid", t.Name)
	}
	if len(t.Args) < f.minArgs || (f.maxArgs >= 0 && len(t.Args) > f.maxArgs) {
		return nil, fmt.Errorf("%s: wrong number of arguments (%d)", t.Name, len(t.Args))
	}
	compiled := make([]*Compiled, len(t.Args))
	types := make([]sqltypes.Type, len(t.Args))
	for i, a := range t.Args {
		c, err := compileOperand(a, env)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
		types[i] = c.Type
	}
	return &Compiled{Eval: f.bind(compiled), Type: f.resultType(types)}, nil
}
