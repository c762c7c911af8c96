package sqltypes

import (
	"testing"
	"testing/quick"
)

func TestRowCloneEqual(t *testing.T) {
	r := Row{NewInt(1), NewString("x"), NullValue}
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone should equal original")
	}
	c[0] = NewInt(2)
	if r.Equal(c) {
		t.Error("mutated clone should differ")
	}
	if r[0] != NewInt(1) {
		t.Error("clone mutation leaked into original")
	}
	if (Row{NewInt(1)}).Equal(Row{NewInt(1), NewInt(2)}) {
		t.Error("different lengths should not be equal")
	}
	if !(Row{NullValue}).Equal(Row{NullValue}) {
		t.Error("NULL should equal NULL in storage equality")
	}
	if (Row{NullValue}).Equal(Row{NewInt(0)}) {
		t.Error("NULL should not equal 0")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), NullValue}
	if got := r.String(); got != "1, a, NULL" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestSchema(t *testing.T) {
	s := Schema{{Name: "Node", Type: Int}, {Name: "Rank", Type: Float}}
	if s.ColumnIndex("node") != 0 {
		t.Error("ColumnIndex should be case-insensitive")
	}
	if s.ColumnIndex("RANK") != 1 {
		t.Error("ColumnIndex RANK")
	}
	if s.ColumnIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "Node" || names[1] != "Rank" {
		t.Errorf("Names() = %v", names)
	}
	c := s.Clone()
	c[0].Name = "other"
	if s[0].Name != "Node" {
		t.Error("Clone should not alias")
	}
	if got := s.String(); got != "(Node INT, Rank FLOAT)" {
		t.Errorf("Schema.String() = %q", got)
	}
}

func TestRowKey(t *testing.T) {
	a := Row{NewInt(1), NewString("x"), NewFloat(2)}
	b := Row{NewFloat(1), NewString("x"), NewInt(2)}
	if RowKey(a, []int{0, 1, 2}) != RowKey(b, []int{0, 1, 2}) {
		t.Error("numerically equal rows should share keys")
	}
	if RowKey(a, []int{0}) == RowKey(b, []int{1}) {
		t.Error("different columns should (almost surely) differ")
	}
	if RowKey(a, nil) != (CompositeKey{}) {
		t.Error("empty key should be the zero CompositeKey")
	}
	// Wide keys (>3 columns) use the string fallback.
	w1 := Row{NewInt(1), NewInt(2), NewInt(3), NewInt(4)}
	w2 := Row{NewInt(1), NewInt(2), NewInt(3), NewFloat(4)}
	if RowKey(w1, []int{0, 1, 2, 3}) != RowKey(w2, []int{0, 1, 2, 3}) {
		t.Error("wide keys with equal values should match")
	}
	w3 := Row{NewInt(1), NewInt(2), NewInt(3), NewInt(5)}
	if RowKey(w1, []int{0, 1, 2, 3}) == RowKey(w3, []int{0, 1, 2, 3}) {
		t.Error("wide keys with different values should differ")
	}
}

func TestCompositeKeyHasNull(t *testing.T) {
	r := Row{NewInt(1), NullValue, NewInt(3), NullValue, NewInt(5)}
	if !RowKey(r, []int{1}).HasNull() {
		t.Error("single null key")
	}
	if RowKey(r, []int{0}).HasNull() {
		t.Error("non-null single key")
	}
	if !RowKey(r, []int{0, 1}).HasNull() {
		t.Error("two-col key with null")
	}
	if !RowKey(r, []int{0, 2, 1}).HasNull() {
		t.Error("three-col key with null")
	}
	if !RowKey(r, []int{0, 2, 4, 3}).HasNull() {
		t.Error("wide key with null")
	}
	if RowKey(r, []int{0, 2, 4, 0}).HasNull() {
		t.Error("wide key without null")
	}
}

func TestFullRowKeyProperty(t *testing.T) {
	// Rows equal under storage equality produce equal full-row keys.
	f := func(a, b Value) bool {
		r1, r2 := Row{a, b}, Row{a, b}
		return RowKey(r1, []int{0, 1}) == RowKey(r2, []int{0, 1})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("full-row key determinism: %v", err)
	}
	g := func(a, b Value) bool {
		if Compare(a, b) == 0 {
			return true
		}
		return RowKey(Row{a}, []int{0}) != RowKey(Row{b}, []int{0})
	}
	if err := quick.Check(g, nil); err != nil {
		t.Errorf("full-row key separation: %v", err)
	}
}
