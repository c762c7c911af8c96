package expr

import (
	"fmt"
	"math"
	"math/big"
	"strings"

	"dbspinner/internal/sqltypes"
)

// The reference evaluator: a test-only copy of the evaluator as it was
// before operators, functions and casts were bound at compile time — it
// switches on the operator per row, collects a call's arguments into a
// fresh slice, casts ROUND's digits and takes their power of ten per
// row. The differential test (kernels_test.go) demands that the bound
// kernels agree with it value for value, bit for bit and error for
// error. It differs from that evaluator only where a later change fixed
// a bug: refCompare's NaN order (NaN equal to NaN and above every other
// number, instead of equal to every number); SUBSTR, which overflowed an
// index and panicked on a length near MaxInt64, and clamped a start
// below 1 before it computed the end (SUBSTR('xyz', 0, 2) was 'xy'); and
// INT arithmetic and ABS, which wrapped around instead of failing with
// "integer out of range"; and a condition, whose value a FLOAT or a
// VARCHAR was read as FALSE (refTruth).

// refArg is an operand as a reference evaluator receives it: its value,
// whose type is also the static type it compiles to, and for a column
// the row is too short for, the error reading it gives.
type refArg struct {
	v   sqltypes.Value
	err error
}

// refFunc is a reference evaluator over operands it reads itself, so it
// can leave unread the ones it does not evaluate.
type refFunc func([]refArg) (sqltypes.Value, error)

// strict is ref over operands that are all read, left to right, before
// it runs: the first one's error, or ref of their values.
func strict(ref func([]sqltypes.Value) (sqltypes.Value, error)) refFunc {
	return func(args []refArg) (sqltypes.Value, error) {
		vals := make([]sqltypes.Value, len(args))
		for i, a := range args {
			if a.err != nil {
				return sqltypes.NullValue, a.err
			}
			vals[i] = a.v
		}
		return ref(vals)
	}
}

// refTruth is a value as a condition: NULL is UNKNOWN, a VARCHAR fails,
// and anything else is what CAST to BOOLEAN makes it.
func refTruth(v sqltypes.Value) (sqltypes.Tri, error) {
	if v.IsNull() {
		return sqltypes.TriUnknown, nil
	}
	if v.T == sqltypes.String {
		return sqltypes.TriUnknown, fmt.Errorf("argument of a condition must be BOOLEAN, not VARCHAR %q", v.S)
	}
	b, err := sqltypes.Cast(v, sqltypes.Bool)
	if err != nil {
		return sqltypes.TriUnknown, err
	}
	if b.I != 0 {
		return sqltypes.TriTrue, nil
	}
	return sqltypes.TriFalse, nil
}

// refConditions is the compile-time check of the condition operands of
// clause: a VARCHAR among them fails before anything runs.
func refConditions(clause string, args ...refArg) error {
	for _, a := range args {
		if a.v.T == sqltypes.String {
			return fmt.Errorf("argument of %s must be BOOLEAN, not VARCHAR", clause)
		}
	}
	return nil
}

// refLogic is AND (and) or OR: the right operand is read only when the
// left one does not decide.
func refLogic(and bool) refFunc {
	op := "OR"
	if and {
		op = "AND"
	}
	return func(a []refArg) (sqltypes.Value, error) {
		if err := refConditions(op, a...); err != nil {
			return sqltypes.NullValue, err
		}
		if a[0].err != nil {
			return sqltypes.NullValue, a[0].err
		}
		l, err := refTruth(a[0].v)
		if err != nil {
			return sqltypes.NullValue, err
		}
		if and && l == sqltypes.TriFalse || !and && l == sqltypes.TriTrue {
			return l.Value(), nil
		}
		if a[1].err != nil {
			return sqltypes.NullValue, a[1].err
		}
		r, err := refTruth(a[1].v)
		if err != nil {
			return sqltypes.NullValue, err
		}
		if and {
			return l.And(r).Value(), nil
		}
		return l.Or(r).Value(), nil
	}
}

func refNot(a []refArg) (sqltypes.Value, error) {
	if err := refConditions("NOT", a...); err != nil {
		return sqltypes.NullValue, err
	}
	if a[0].err != nil {
		return sqltypes.NullValue, a[0].err
	}
	t, err := refTruth(a[0].v)
	if err != nil {
		return sqltypes.NullValue, err
	}
	return t.Not().Value(), nil
}

// refNeg is unary minus, in exact arithmetic for an INT.
func refNeg(a []sqltypes.Value) (sqltypes.Value, error) {
	v := a[0]
	switch {
	case v.IsNull():
		return sqltypes.NullValue, nil
	case v.T == sqltypes.Int:
		return refExactInt(new(big.Int).Neg(big.NewInt(v.I)))
	case v.T == sqltypes.Float:
		return sqltypes.NewFloat(-v.F), nil
	}
	return sqltypes.NullValue, fmt.Errorf("operator - requires a numeric operand, got %s", v.T)
}

func refIsNull(negate bool) func([]sqltypes.Value) (sqltypes.Value, error) {
	return func(a []sqltypes.Value) (sqltypes.Value, error) {
		return sqltypes.NewBool(a[0].IsNull() != negate), nil
	}
}

// refIn is a[0] IN (a[1:]...), or NOT IN: a NULL probe reads no item,
// and a match reads no further one.
func refIn(negate bool) refFunc {
	return func(a []refArg) (sqltypes.Value, error) {
		if a[0].err != nil {
			return sqltypes.NullValue, a[0].err
		}
		if a[0].v.IsNull() {
			return sqltypes.NullValue, nil
		}
		sawNull := false
		for _, it := range a[1:] {
			switch {
			case it.err != nil:
				return sqltypes.NullValue, it.err
			case it.v.IsNull():
				sawNull = true
			case refCompare(a[0].v, it.v) == 0:
				return sqltypes.NewBool(!negate), nil
			}
		}
		if sawNull {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewBool(negate), nil
	}
}

// refCase is CASE WHEN a[0] THEN a[1] ELSE a[2] END: only the chosen
// result is read.
func refCase(a []refArg) (sqltypes.Value, error) {
	if err := refConditions("CASE WHEN", a[0]); err != nil {
		return sqltypes.NullValue, err
	}
	if a[0].err != nil {
		return sqltypes.NullValue, a[0].err
	}
	t, err := refTruth(a[0].v)
	if err != nil {
		return sqltypes.NullValue, err
	}
	pick := a[2]
	if t == sqltypes.TriTrue {
		pick = a[1]
	}
	if pick.err != nil {
		return sqltypes.NullValue, pick.err
	}
	return pick.v, nil
}

// refCompare is sqltypes.Compare as it was, with the fixed NaN order.
func refCompare(a, b sqltypes.Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	isNum := func(t sqltypes.Type) bool { return t == sqltypes.Int || t == sqltypes.Float }
	if isNum(a.T) && isNum(b.T) {
		if a.T == sqltypes.Int && b.T == sqltypes.Int {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		case af == bf:
			return 0
		case af != af && bf != bf:
			return 0
		case af != af:
			return 1
		}
		return -1
	}
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		return 1
	}
	switch a.T {
	case sqltypes.Bool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case sqltypes.String:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// refArith is sqltypes' arithmetic as it was: one switch on the
// operator string.
func refArith(a, b sqltypes.Value, op string) (sqltypes.Value, error) {
	if a.IsNull() || b.IsNull() {
		return sqltypes.NullValue, nil
	}
	isNum := func(t sqltypes.Type) bool { return t == sqltypes.Int || t == sqltypes.Float }
	if !isNum(a.T) || !isNum(b.T) {
		return sqltypes.NullValue, fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, a.T, b.T)
	}
	if a.T == sqltypes.Int && b.T == sqltypes.Int {
		// Exact arithmetic: a result outside 64 bits is the fixed error.
		x, y := big.NewInt(a.I), big.NewInt(b.I)
		var r big.Int
		switch op {
		case "+":
			return refExactInt(r.Add(x, y))
		case "-":
			return refExactInt(r.Sub(x, y))
		case "*":
			return refExactInt(r.Mul(x, y))
		case "/":
			if b.I == 0 {
				return sqltypes.NullValue, fmt.Errorf("division by zero")
			}
			return refExactInt(r.Quo(x, y))
		case "%":
			if b.I == 0 {
				return sqltypes.NullValue, fmt.Errorf("division by zero")
			}
			return refExactInt(r.Rem(x, y))
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case "+":
		return sqltypes.NewFloat(x + y), nil
	case "-":
		return sqltypes.NewFloat(x - y), nil
	case "*":
		return sqltypes.NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return sqltypes.NullValue, fmt.Errorf("division by zero")
		}
		return sqltypes.NewFloat(x / y), nil
	case "%":
		if y == 0 {
			return sqltypes.NullValue, fmt.Errorf("division by zero")
		}
		return sqltypes.NewFloat(math.Mod(x, y)), nil
	}
	return sqltypes.NullValue, fmt.Errorf("unknown operator %s", op)
}

// refExactInt is an exact integer result as an INT, or the out-of-range
// error.
func refExactInt(r *big.Int) (sqltypes.Value, error) {
	if !r.IsInt64() {
		return sqltypes.NullValue, fmt.Errorf("integer out of range")
	}
	return sqltypes.NewInt(r.Int64()), nil
}

// refBinary is compileBinary's per-row body as it was, for every
// operator but AND and OR.
func refBinary(op string, lv, rv sqltypes.Value) (sqltypes.Value, error) {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		if lv.IsNull() || rv.IsNull() {
			return sqltypes.NullValue, nil
		}
		c := refCompare(lv, rv)
		var b bool
		switch op {
		case "=":
			b = c == 0
		case "!=":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return sqltypes.NewBool(b), nil
	case "+", "-", "*", "/", "%":
		return refArith(lv, rv, op)
	case "||":
		if lv.IsNull() || rv.IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewString(lv.String() + rv.String()), nil
	case "LIKE":
		if lv.IsNull() || rv.IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewBool(likeMatch(lv.String(), rv.String())), nil
	}
	panic("refBinary: operator " + op)
}

// refCast is CAST as it was: always through sqltypes.Cast.
func refCast(v sqltypes.Value, to sqltypes.Type) (sqltypes.Value, error) {
	return sqltypes.Cast(v, to)
}

func refNumeric1(f func(float64) float64, rt sqltypes.Type) func([]sqltypes.Value) (sqltypes.Value, error) {
	return func(args []sqltypes.Value) (sqltypes.Value, error) {
		v := args[0]
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
	}
}

func refExtremum(args []sqltypes.Value, dir int) sqltypes.Value {
	best := sqltypes.NullValue
	for _, v := range args {
		if v.IsNull() {
			continue
		}
		if best.IsNull() || refCompare(v, best)*dir > 0 {
			best = v
		}
	}
	return best
}

// refFuncs is the function library as it was: each function over the
// slice of its evaluated arguments.
var refFuncs = map[string]func([]sqltypes.Value) (sqltypes.Value, error){
	"ABS": func(a []sqltypes.Value) (sqltypes.Value, error) {
		v := a[0]
		if v.IsNull() {
			return sqltypes.NullValue, nil
		}
		switch v.T {
		case sqltypes.Int:
			return refExactInt(new(big.Int).Abs(big.NewInt(v.I)))
		case sqltypes.Float:
			return sqltypes.NewFloat(math.Abs(v.F)), nil
		}
		return sqltypes.NullValue, fmt.Errorf("ABS requires a numeric argument")
	},
	"CEILING": refNumeric1(math.Ceil, sqltypes.Float),
	"CEIL":    refNumeric1(math.Ceil, sqltypes.Float),
	"FLOOR":   refNumeric1(math.Floor, sqltypes.Float),
	"SQRT":    refNumeric1(math.Sqrt, sqltypes.Float),
	"EXP":     refNumeric1(math.Exp, sqltypes.Float),
	"LN":      refNumeric1(math.Log, sqltypes.Float),
	"SIGN": refNumeric1(func(f float64) float64 {
		switch {
		case f > 0:
			return 1
		case f < 0:
			return -1
		}
		return 0
	}, sqltypes.Int),
	"ROUND": func(a []sqltypes.Value) (sqltypes.Value, error) {
		v := a[0]
		if v.IsNull() {
			return sqltypes.NullValue, nil
		}
		if v.T != sqltypes.Int && v.T != sqltypes.Float {
			return sqltypes.NullValue, fmt.Errorf("ROUND requires a numeric argument")
		}
		digits := int64(0)
		if len(a) == 2 {
			if a[1].IsNull() {
				return sqltypes.NullValue, nil
			}
			d, err := sqltypes.Cast(a[1], sqltypes.Int)
			if err != nil {
				return sqltypes.NullValue, err
			}
			digits = d.I
		}
		scale := math.Pow(10, float64(digits))
		r := math.Round(v.Float()*scale) / scale
		if v.T == sqltypes.Int && digits >= 0 {
			return sqltypes.NewInt(int64(r)), nil
		}
		return sqltypes.NewFloat(r), nil
	},
	"MOD": func(a []sqltypes.Value) (sqltypes.Value, error) {
		return refArith(a[0], a[1], "%")
	},
	"POWER": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewFloat(math.Pow(a[0].Float(), a[1].Float())), nil
	},
	"LEAST": func(a []sqltypes.Value) (sqltypes.Value, error) {
		return refExtremum(a, -1), nil
	},
	"GREATEST": func(a []sqltypes.Value) (sqltypes.Value, error) {
		return refExtremum(a, 1), nil
	},
	"COALESCE": func(a []sqltypes.Value) (sqltypes.Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return sqltypes.NullValue, nil
	},
	"NULLIF": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if !a[0].IsNull() && !a[1].IsNull() && refCompare(a[0], a[1]) == 0 {
			return sqltypes.NullValue, nil
		}
		return a[0], nil
	},
	"UPPER": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if a[0].IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewString(strings.ToUpper(a[0].String())), nil
	},
	"LOWER": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if a[0].IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewString(strings.ToLower(a[0].String())), nil
	},
	"LENGTH": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if a[0].IsNull() {
			return sqltypes.NullValue, nil
		}
		return sqltypes.NewInt(int64(len(a[0].String()))), nil
	},
	"SUBSTR": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if a[0].IsNull() || a[1].IsNull() {
			return sqltypes.NullValue, nil
		}
		s := a[0].String()
		start, err := sqltypes.Cast(a[1], sqltypes.Int)
		if err != nil {
			return sqltypes.NullValue, err
		}
		// Positions [start, start+length) in exact arithmetic, clipped to
		// the string's [1, len+1).
		lo := new(big.Int).SetInt64(start.I)
		end := big.NewInt(int64(len(s)) + 1)
		if len(a) == 3 {
			if a[2].IsNull() {
				return sqltypes.NullValue, nil
			}
			n, err := sqltypes.Cast(a[2], sqltypes.Int)
			if err != nil {
				return sqltypes.NullValue, err
			}
			if n.I < 0 {
				return sqltypes.NullValue, fmt.Errorf("negative SUBSTR length")
			}
			if hi := new(big.Int).Add(lo, big.NewInt(n.I)); hi.Cmp(end) < 0 {
				end = hi
			}
		}
		if lo.Cmp(big.NewInt(1)) < 0 {
			lo.SetInt64(1)
		}
		if lo.Cmp(end) >= 0 {
			return sqltypes.NewString(""), nil
		}
		return sqltypes.NewString(s[lo.Int64()-1 : end.Int64()-1]), nil
	},
	"CONCAT": func(a []sqltypes.Value) (sqltypes.Value, error) {
		var b strings.Builder
		for _, v := range a {
			if v.IsNull() {
				continue
			}
			b.WriteString(v.String())
		}
		return sqltypes.NewString(b.String()), nil
	},
}
