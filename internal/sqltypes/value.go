// Package sqltypes implements the SQL value model used throughout the
// engine: a small tagged union of NULL, BOOL, INT, FLOAT and STRING with
// SQL comparison semantics (three-valued logic, numeric type promotion)
// and the arithmetic and casting rules the expression evaluator builds on.
package sqltypes

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the SQL type of a Value or a column.
type Type uint8

// The supported SQL types. Unknown is used during planning for columns
// whose type cannot be determined yet (e.g. NULL literals).
const (
	Unknown Type = iota
	Null
	Bool
	Int
	Float
	String
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Bool:
		return "BOOLEAN"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "VARCHAR"
	default:
		return "UNKNOWN"
	}
}

// ParseType converts a SQL type name to a Type. It accepts the common
// aliases found in the paper's queries (int, bigint, float, double,
// numeric, varchar, text, boolean).
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return Int, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return Float, nil
	case "VARCHAR", "TEXT", "CHAR", "STRING":
		return String, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	default:
		return Unknown, fmt.Errorf("unknown type %q", name)
	}
}

// Value is a single SQL datum. The zero Value is SQL NULL.
//
// Values are small (40 bytes: tag, two 8-byte payloads, a string header;
// TestKernelSizes pins it) and passed by value; rows are []Value.
type Value struct {
	// T is the runtime type tag.
	T Type
	// I holds Int and Bool (0/1) payloads.
	I int64
	// F holds Float payloads.
	F float64
	// S holds String payloads.
	S string
}

// Convenience constructors.

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{T: Int, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{T: Float, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{T: String, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{T: Bool, I: 1}
	}
	return Value{T: Bool}
}

// NullValue is the SQL NULL constant.
var NullValue = Value{T: Null}

// IsNull reports whether v is SQL NULL. The zero Value (Unknown tag) is
// treated as NULL as well so that uninitialized row slots behave safely.
func (v Value) IsNull() bool { return v.T == Null || v.T == Unknown }

// Bool returns the boolean payload. Only valid for Bool values.
func (v Value) Bool() bool { return v.I != 0 }

// Int returns the integer payload. Only valid for Int values.
func (v Value) Int() int64 { return v.I }

// Float returns the float payload, promoting Int values.
func (v Value) Float() float64 {
	if v.T == Int {
		return float64(v.I)
	}
	return v.F
}

// Str returns the string payload. Only valid for String values.
func (v Value) Str() string { return v.S }

// String renders the value the way the shell and EXPLAIN print it.
func (v Value) String() string {
	switch v.T {
	case Null, Unknown:
		return "NULL"
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		// Integral floats of moderate magnitude print without an
		// exponent, as database clients expect (9999999, not
		// 9.999999e+06).
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.FormatFloat(v.F, 'f', -1, 64)
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case String:
		return v.S
	default:
		return fmt.Sprintf("<bad value %d>", v.T)
	}
}

// isNumeric reports whether t is INT or FLOAT.
func isNumeric(t Type) bool { return t == Int || t == Float }

// Compare orders two values with SQL semantics and returns -1, 0 or +1.
// NULLs are not comparable in expressions (use Equal/Less via the
// evaluator, which handles three-valued logic); Compare is the total
// order used by ORDER BY, where NULL sorts first and equals itself.
// Numbers order as CompareFloat says, so NaN equals NaN and sorts after
// every other number.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	// Numeric cross-type comparison promotes to float.
	if isNumeric(a.T) && isNumeric(b.T) {
		if a.T == Int && b.T == Int {
			return cmp.Compare(a.I, b.I)
		}
		return CompareFloat(a.Float(), b.Float())
	}
	if a.T != b.T {
		// Incomparable types order by type tag so sorting is total.
		if a.T < b.T {
			return -1
		}
		return 1
	}
	switch a.T {
	case Bool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// CompareFloat is Compare's order on numbers: -0 equals +0, and NaN
// equals NaN and is greater than every other number. That is
// PostgreSQL's order, and the one KeyTable's equality agrees with, so a
// filter, a hash join and a nested-loop join see the same NaN.
func CompareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	}
	// At least one side is NaN.
	xn, yn := x != x, y != y
	switch {
	case xn && yn:
		return 0
	case xn:
		return 1
	}
	return -1
}

// Equal reports SQL equality of two non-NULL values. If either side is
// NULL the result is unknown and ok is false.
func Equal(a, b Value) (eq, ok bool) {
	if a.IsNull() || b.IsNull() {
		return false, false
	}
	return Compare(a, b) == 0, true
}

// Key returns the comparable normalization RowKey routes on. Int and
// Float values that represent the same number map to the same key
// (1 = 1.0), so they land in the same partition; integers beyond 2^53
// may share a key, which routing tolerates (equal keys still co-locate)
// and which is why joins and grouping decide equality in KeyTable.
func (v Value) Key() Key {
	switch v.T {
	case Null, Unknown:
		return Key{k: keyNull}
	case Bool:
		return Key{k: keyBool, i: v.I}
	case Int:
		return Key{k: keyNum, f: float64(v.I)}
	case Float:
		return Key{k: keyNum, f: v.F}
	case String:
		return Key{k: keyStr, s: v.S}
	}
	return Key{k: keyNull}
}

// Key is a comparable normalization of a Value: one component of the
// CompositeKey routing key.
type Key struct {
	k keyKind
	i int64
	f float64
	s string
}

type keyKind uint8

const (
	keyNull keyKind = iota
	keyBool
	keyNum
	keyStr
)

// IsNull reports whether the key came from a NULL value.
func (k Key) IsNull() bool { return k.k == keyNull }

// Cast converts v to the target type using SQL CAST rules.
func Cast(v Value, to Type) (Value, error) {
	if v.IsNull() {
		return NullValue, nil
	}
	switch to {
	case Int:
		switch v.T {
		case Int:
			return v, nil
		case Float:
			// Truncates toward zero; NaN fails both comparisons.
			if !(v.F >= -0x1p63 && v.F < 0x1p63) {
				return NullValue, ErrIntegerOutOfRange
			}
			return NewInt(int64(v.F)), nil
		case Bool:
			return NewInt(v.I), nil
		case String:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return NullValue, fmt.Errorf("cannot cast %q to INT", v.S)
			}
			return NewInt(i), nil
		}
	case Float:
		switch v.T {
		case Int:
			return NewFloat(float64(v.I)), nil
		case Float:
			return v, nil
		case Bool:
			return NewFloat(float64(v.I)), nil
		case String:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return NullValue, fmt.Errorf("cannot cast %q to FLOAT", v.S)
			}
			return NewFloat(f), nil
		}
	case String:
		return NewString(v.String()), nil
	case Bool:
		switch v.T {
		case Bool:
			return v, nil
		case Int:
			return NewBool(v.I != 0), nil
		case Float:
			return NewBool(v.F != 0), nil
		case String:
			b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(v.S)))
			if err != nil {
				return NullValue, fmt.Errorf("cannot cast %q to BOOLEAN", v.S)
			}
			return NewBool(b), nil
		}
	}
	return NullValue, fmt.Errorf("unsupported cast from %s to %s", v.T, to)
}

// Arithmetic binary operators. All return NULL if either operand is NULL
// (SQL NULL propagation) and follow the usual numeric promotion: INT op
// INT yields INT (except division by zero, which is an error), and any
// FLOAT operand promotes the result to FLOAT.

// Add returns a + b.
func Add(a, b Value) (Value, error) {
	if a.T == Int && b.T == Int {
		return AddInt(a.I, b.I)
	}
	x, y, ok, err := floatOperands(a, b, "+")
	if !ok {
		return NullValue, err
	}
	return NewFloat(x + y), nil
}

// Sub returns a - b.
func Sub(a, b Value) (Value, error) {
	if a.T == Int && b.T == Int {
		return SubInt(a.I, b.I)
	}
	x, y, ok, err := floatOperands(a, b, "-")
	if !ok {
		return NullValue, err
	}
	return NewFloat(x - y), nil
}

// Mul returns a * b.
func Mul(a, b Value) (Value, error) {
	if a.T == Int && b.T == Int {
		return MulInt(a.I, b.I)
	}
	x, y, ok, err := floatOperands(a, b, "*")
	if !ok {
		return NullValue, err
	}
	return NewFloat(x * y), nil
}

// Div returns a / b. Integer division of two INTs truncates toward zero,
// matching the behaviour the FF query relies on being avoided via CAST.
func Div(a, b Value) (Value, error) {
	if a.T == Int && b.T == Int {
		return DivInt(a.I, b.I)
	}
	x, y, ok, err := floatOperands(a, b, "/")
	if !ok {
		return NullValue, err
	}
	if y == 0 {
		return NullValue, errDivisionByZero
	}
	return NewFloat(x / y), nil
}

// Mod returns a % b for INT operands, or math.Mod for FLOATs.
func Mod(a, b Value) (Value, error) {
	if a.T == Int && b.T == Int {
		if b.I == 0 {
			return NullValue, errDivisionByZero
		}
		return NewInt(a.I % b.I), nil
	}
	x, y, ok, err := floatOperands(a, b, "%")
	if !ok {
		return NullValue, err
	}
	if y == 0 {
		return NullValue, errDivisionByZero
	}
	return NewFloat(math.Mod(x, y)), nil
}

// errDivisionByZero is what / and % return for a zero divisor, INT or
// FLOAT.
var errDivisionByZero = errors.New("division by zero")

// ErrIntegerOutOfRange is what INT arithmetic, negation and a cast to
// INT return when the exact result does not fit in 64 bits.
var ErrIntegerOutOfRange = errors.New("integer out of range")

// AddInt returns the INT a + b.
func AddInt(a, b int64) (Value, error) {
	c := a + b
	if (a^c)&(b^c) < 0 { // both operands' signs differ from the sum's
		return NullValue, ErrIntegerOutOfRange
	}
	return NewInt(c), nil
}

// SubInt returns the INT a - b.
func SubInt(a, b int64) (Value, error) {
	c := a - b
	if (a^b)&(a^c) < 0 { // the operands' signs differ, and a's from the difference's
		return NullValue, ErrIntegerOutOfRange
	}
	return NewInt(c), nil
}

// MulInt returns the INT a * b.
func MulInt(a, b int64) (Value, error) {
	c := a * b
	if a != 0 && (c/a != b || a == -1 && b == math.MinInt64) {
		return NullValue, ErrIntegerOutOfRange
	}
	return NewInt(c), nil
}

// DivInt returns the INT a / b, truncated toward zero.
func DivInt(a, b int64) (Value, error) {
	switch {
	case b == 0:
		return NullValue, errDivisionByZero
	case b == -1 && a == math.MinInt64:
		return NullValue, ErrIntegerOutOfRange
	}
	return NewInt(a / b), nil
}

// floatOperands checks the operands of an arithmetic operator that is
// not INT op INT and promotes both to float. ok is false when the result
// is NULL (either side is NULL) or err is set (either side is not a
// number).
func floatOperands(a, b Value, op string) (x, y float64, ok bool, err error) {
	if a.IsNull() || b.IsNull() {
		return 0, 0, false, nil
	}
	// String concatenation via "+" is deliberately not supported; SQL
	// uses || which the parser maps to Concat.
	if !isNumeric(a.T) || !isNumeric(b.T) {
		return 0, 0, false, fmt.Errorf("operator %s requires numeric operands, got %s and %s", op, a.T, b.T)
	}
	return a.Float(), b.Float(), true, nil
}

// Neg returns -a.
func Neg(a Value) (Value, error) {
	if a.IsNull() {
		return NullValue, nil
	}
	switch a.T {
	case Int:
		return SubInt(0, a.I)
	case Float:
		return NewFloat(-a.F), nil
	}
	return NullValue, fmt.Errorf("operator - requires a numeric operand, got %s", a.T)
}

// Concat returns the SQL || of two values (NULL-propagating).
func Concat(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return NullValue, nil
	}
	return NewString(a.String() + b.String()), nil
}

// ResultType computes the static result type of a binary arithmetic
// expression over operand types a and b, used by the planner for schema
// inference.
func ResultType(a, b Type, op string) Type {
	if op == "||" {
		return String
	}
	if a == Float || b == Float {
		return Float
	}
	if a == Int && b == Int {
		return Int
	}
	if a == Unknown || a == Null {
		return b
	}
	if b == Unknown || b == Null {
		return a
	}
	return Unknown
}

// Tri is SQL three-valued logic: True, False or Unknown (NULL).
type Tri uint8

// The three logic values.
const (
	TriUnknown Tri = iota
	TriFalse
	TriTrue
)

// Truth is v as a condition — of a WHERE, an ON, a HAVING, AND, OR, NOT
// or CASE WHEN: NULL is UNKNOWN, and any other value is TRUE or FALSE as
// CAST(v AS BOOLEAN) makes it, so a number is TRUE when it is not zero.
// A VARCHAR is no condition: Truth fails rather than read it as FALSE.
func Truth(v Value) (Tri, error) {
	switch v.T {
	case Bool, Int:
		if v.I != 0 {
			return TriTrue, nil
		}
		return TriFalse, nil
	case Float:
		if v.F != 0 { // NaN too, as CAST says
			return TriTrue, nil
		}
		return TriFalse, nil
	case String:
		return TriUnknown, notCondition(v)
	}
	return TriUnknown, nil
}

// notCondition is Truth's error for a VARCHAR.
func notCondition(v Value) error {
	return fmt.Errorf("argument of a condition must be BOOLEAN, not VARCHAR %q", v.S)
}

// Value converts a Tri back to a SQL BOOLEAN Value.
func (t Tri) Value() Value {
	switch t {
	case TriTrue:
		return NewBool(true)
	case TriFalse:
		return NewBool(false)
	}
	return NullValue
}

// And is three-valued AND.
func (t Tri) And(o Tri) Tri {
	if t == TriFalse || o == TriFalse {
		return TriFalse
	}
	if t == TriTrue && o == TriTrue {
		return TriTrue
	}
	return TriUnknown
}

// Or is three-valued OR.
func (t Tri) Or(o Tri) Tri {
	if t == TriTrue || o == TriTrue {
		return TriTrue
	}
	if t == TriFalse && o == TriFalse {
		return TriFalse
	}
	return TriUnknown
}

// Not is three-valued NOT.
func (t Tri) Not() Tri {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	}
	return TriUnknown
}
