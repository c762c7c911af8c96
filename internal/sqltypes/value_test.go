package sqltypes

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Null: "NULL", Bool: "BOOLEAN", Int: "INT", Float: "FLOAT",
		String: "VARCHAR", Unknown: "UNKNOWN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	good := map[string]Type{
		"int": Int, "INTEGER": Int, "BigInt": Int, "smallint": Int,
		"float": Float, "DOUBLE": Float, "numeric": Float, "real": Float, "decimal": Float,
		"varchar": String, "TEXT": String, "char": String, "string": String,
		"bool": Bool, "BOOLEAN": Bool,
	}
	for name, want := range good {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestValueAccessors(t *testing.T) {
	if !NullValue.IsNull() {
		t.Error("NullValue should be null")
	}
	if (Value{}).IsNull() == false {
		t.Error("zero Value should be null")
	}
	if NewInt(7).Int() != 7 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Int should promote via Float()")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue, "NULL"},
		{NewInt(-42), "-42"},
		{NewFloat(1.5), "1.5"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewString("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(1), NewFloat(1.0), 0},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewBool(false), NewBool(true), -1},
		{NullValue, NullValue, 0},
		{NullValue, NewInt(0), -1},
		{NewInt(0), NullValue, 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	if eq, ok := Equal(NewInt(1), NewFloat(1)); !ok || !eq {
		t.Error("1 = 1.0 should be true")
	}
	if _, ok := Equal(NullValue, NewInt(1)); ok {
		t.Error("NULL = 1 should be unknown")
	}
	if eq, ok := Equal(NewString("a"), NewString("b")); !ok || eq {
		t.Error("'a' = 'b' should be false")
	}
}

func TestCast(t *testing.T) {
	cases := []struct {
		v    Value
		to   Type
		want Value
		err  bool
	}{
		{NewFloat(2.9), Int, NewInt(2), false},
		{NewInt(3), Float, NewFloat(3), false},
		{NewString("12"), Int, NewInt(12), false},
		{NewString(" 2.5 "), Float, NewFloat(2.5), false},
		{NewString("abc"), Int, NullValue, true},
		{NewInt(0), Bool, NewBool(false), false},
		{NewInt(5), Bool, NewBool(true), false},
		{NewFloat(1.25), String, NewString("1.25"), false},
		{NullValue, Int, NullValue, false},
		{NewBool(true), Int, NewInt(1), false},
		{NewString("true"), Bool, NewBool(true), false},
	}
	for _, c := range cases {
		got, err := Cast(c.v, c.to)
		if (err != nil) != c.err {
			t.Errorf("Cast(%v, %v) error = %v, wantErr %v", c.v, c.to, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("Cast(%v, %v) = %v, want %v", c.v, c.to, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return v
	}
	if got := mustV(Add(NewInt(2), NewInt(3))); got != NewInt(5) {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Add(NewInt(2), NewFloat(0.5))); got != NewFloat(2.5) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Sub(NewInt(2), NewInt(5))); got != NewInt(-3) {
		t.Errorf("2-5 = %v", got)
	}
	if got := mustV(Mul(NewFloat(1.5), NewInt(4))); got != NewFloat(6) {
		t.Errorf("1.5*4 = %v", got)
	}
	if got := mustV(Div(NewInt(7), NewInt(2))); got != NewInt(3) {
		t.Errorf("7/2 int division = %v", got)
	}
	if got := mustV(Div(NewFloat(7), NewInt(2))); got != NewFloat(3.5) {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := mustV(Mod(NewInt(7), NewInt(3))); got != NewInt(1) {
		t.Errorf("7%%3 = %v", got)
	}
	if got := mustV(Mod(NewFloat(7.5), NewInt(2))); got != NewFloat(1.5) {
		t.Errorf("7.5%%2 = %v", got)
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("1/0 should error")
	}
	if _, err := Mod(NewInt(1), NewInt(0)); err == nil {
		t.Error("1%0 should error")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Error("1.0/0.0 should error")
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Error("'a'+1 should error")
	}
	// NULL propagation.
	if got := mustV(Add(NullValue, NewInt(1))); !got.IsNull() {
		t.Error("NULL+1 should be NULL")
	}
	if got := mustV(Mul(NewInt(1), NullValue)); !got.IsNull() {
		t.Error("1*NULL should be NULL")
	}
}

func TestNegConcat(t *testing.T) {
	if v, err := Neg(NewInt(4)); err != nil || v != NewInt(-4) {
		t.Errorf("Neg(4) = %v, %v", v, err)
	}
	if v, err := Neg(NewFloat(1.5)); err != nil || v != NewFloat(-1.5) {
		t.Errorf("Neg(1.5) = %v, %v", v, err)
	}
	if v, err := Neg(NullValue); err != nil || !v.IsNull() {
		t.Errorf("Neg(NULL) = %v, %v", v, err)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg('x') should error")
	}
	if v, err := Concat(NewString("a"), NewInt(1)); err != nil || v != NewString("a1") {
		t.Errorf("Concat = %v, %v", v, err)
	}
	if v, err := Concat(NullValue, NewString("a")); err != nil || !v.IsNull() {
		t.Errorf("Concat(NULL,..) = %v, %v", v, err)
	}
}

func TestResultType(t *testing.T) {
	if ResultType(Int, Int, "+") != Int {
		t.Error("INT+INT should be INT")
	}
	if ResultType(Int, Float, "*") != Float {
		t.Error("INT*FLOAT should be FLOAT")
	}
	if ResultType(Int, Null, "+") != Int {
		t.Error("INT+NULL should infer INT")
	}
	if ResultType(Unknown, Float, "+") != Float {
		t.Error("UNKNOWN+FLOAT should infer FLOAT")
	}
	if ResultType(Int, Int, "||") != String {
		t.Error("|| should be VARCHAR")
	}
}

func TestTriLogic(t *testing.T) {
	T, F, U := TriTrue, TriFalse, TriUnknown
	andTable := []struct{ a, b, want Tri }{
		{T, T, T}, {T, F, F}, {F, T, F}, {F, F, F},
		{T, U, U}, {U, T, U}, {F, U, F}, {U, F, F}, {U, U, U},
	}
	for _, c := range andTable {
		if got := c.a.And(c.b); got != c.want {
			t.Errorf("%v AND %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	orTable := []struct{ a, b, want Tri }{
		{T, T, T}, {T, F, T}, {F, T, T}, {F, F, F},
		{T, U, T}, {U, T, T}, {F, U, U}, {U, F, U}, {U, U, U},
	}
	for _, c := range orTable {
		if got := c.a.Or(c.b); got != c.want {
			t.Errorf("%v OR %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if T.Not() != F || F.Not() != T || U.Not() != U {
		t.Error("NOT table wrong")
	}
	for _, c := range []struct {
		v    Value
		want Tri
	}{
		{NewBool(true), T}, {NewBool(false), F}, {NullValue, U}, {Value{}, U},
		{NewInt(0), F}, {NewInt(-3), T}, {NewFloat(0.5), T}, {NewFloat(math.Copysign(0, -1)), F}, {NewFloat(math.NaN()), T},
	} {
		// The truth of a value is its CAST to BOOLEAN.
		got, err := Truth(c.v)
		cast, _ := Cast(c.v, Bool)
		if err != nil || got != c.want || (!c.v.IsNull() && got.Value() != cast) {
			t.Errorf("Truth(%v) = %v, %v; want %v, the CAST %v", c.v, got, err, c.want, cast)
		}
	}
	if _, err := Truth(NewString("true")); err == nil {
		t.Error("Truth('true') did not fail: a VARCHAR is no condition")
	}
	if T.Value() != NewBool(true) || F.Value() != NewBool(false) || !U.Value().IsNull() {
		t.Error("Tri.Value wrong")
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return NullValue
	case 1:
		return NewInt(int64(r.Intn(2000) - 1000))
	case 2:
		return NewFloat(float64(r.Intn(2000)-1000) / 4)
	case 3:
		return NewString(string(rune('a' + r.Intn(26))))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

// Generate implements quick.Generator so Value can be used directly in
// property tests.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomValue(r))
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a).
	anti := func(a, b Value) bool { return Compare(a, b) == -Compare(b, a) }
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	// Reflexivity: Compare(a,a) == 0.
	refl := func(a Value) bool { return Compare(a, a) == 0 }
	if err := quick.Check(refl, nil); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	// Transitivity of <= on a triple.
	trans := func(a, b, c Value) bool {
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 {
			return Compare(a, c) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}

func TestKeyProperties(t *testing.T) {
	// Values that compare equal must produce equal keys (so hash joins
	// agree with sort-based comparison).
	agree := func(a, b Value) bool {
		if Compare(a, b) == 0 {
			return a.Key() == b.Key()
		}
		return true
	}
	if err := quick.Check(agree, nil); err != nil {
		t.Errorf("key/compare agreement: %v", err)
	}
	// Int and Float representations of the same number share a key.
	if NewInt(3).Key() != NewFloat(3).Key() {
		t.Error("3 and 3.0 should share a key")
	}
	if !NullValue.Key().IsNull() {
		t.Error("NULL key should report IsNull")
	}
	if NewInt(1).Key().IsNull() {
		t.Error("non-null key should not report IsNull")
	}
}

func TestCastRoundTripProperty(t *testing.T) {
	// Casting an INT to FLOAT and back is the identity for small ints.
	f := func(i int32) bool {
		v := NewInt(int64(i))
		fv, err := Cast(v, Float)
		if err != nil {
			return false
		}
		back, err := Cast(fv, Int)
		if err != nil {
			return false
		}
		return back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("int->float->int roundtrip: %v", err)
	}
	// Casting anything to STRING then parsing back preserves numerics.
	g := func(i int32) bool {
		v := NewInt(int64(i))
		s, _ := Cast(v, String)
		back, err := Cast(s, Int)
		return err == nil && back == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Errorf("int->string->int roundtrip: %v", err)
	}
}

// TestNaNOrder: NaN equals NaN and is greater than every other number,
// INT or FLOAT, infinities included; Compare stays a total order with
// NaN in it, its equality is KeyTable's, and every NaN payload routes to
// the same partition.
func TestNaNOrder(t *testing.T) {
	nan := NewFloat(math.NaN())
	negNaN := NewFloat(math.Copysign(math.NaN(), -1))
	for _, v := range []Value{NewInt(math.MaxInt64), NewInt(-1), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(0)} {
		if Compare(nan, v) != 1 || Compare(v, nan) != -1 {
			t.Errorf("Compare(NaN, %v) = %d, Compare(%v, NaN) = %d; want NaN above every number", v, Compare(nan, v), v, Compare(v, nan))
		}
	}
	if Compare(nan, negNaN) != 0 || Compare(NullValue, nan) != -1 || Compare(nan, NewString("")) != -1 {
		t.Error("NaN must equal every NaN, sort after NULL and before strings")
	}
	pool := []Value{NullValue, NewBool(true), NewInt(-3), NewInt(0), NewFloat(math.Copysign(0, -1)), NewFloat(2.5),
		NewFloat(math.Inf(1)), nan, negNaN, NewFloat(math.Inf(-1)), NewString("a")}
	for _, a := range pool {
		for _, b := range pool {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v, %v) is not antisymmetric", a, b)
			}
			if KeyEqual(a, b) != (Compare(a, b) == 0) {
				t.Errorf("KeyEqual(%v, %v) = %v, but Compare = %d", a, b, KeyEqual(a, b), Compare(a, b))
			}
			for _, c := range pool {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("Compare is not transitive over %v <= %v <= %v", a, b, c)
				}
			}
		}
	}
	route := func(v Value) int { return RowKey(Row{v}, []int{0}).Partition(7) }
	wide := func(v Value) uint64 { return RowKey(Row{v, v, v, v}, []int{0, 1, 2, 3}).Hash() }
	if route(nan) != route(negNaN) || RowKey(Row{nan, nan}, []int{0, 1}).Hash() != RowKey(Row{negNaN, negNaN}, []int{0, 1}).Hash() || wide(nan) != wide(negNaN) {
		t.Error("NaN payloads must route alike")
	}
}

func TestFloatKeyNormalization(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	posZero := NewFloat(0)
	if negZero.Key() != posZero.Key() {
		t.Error("-0.0 and +0.0 should share a key")
	}
}
