package expr

import (
	"math"
	"testing"

	"dbspinner/internal/sqltypes"
)

func feed(t *testing.T, a Aggregator, vals ...sqltypes.Value) sqltypes.Value {
	t.Helper()
	for _, v := range vals {
		if err := a.Add(v); err != nil {
			t.Fatalf("Add(%v): %v", v, err)
		}
	}
	return a.Result()
}

func mustAgg(t *testing.T, name string, star, distinct bool) Aggregator {
	t.Helper()
	mk, err := NewAggregators(name, star, distinct)
	if err != nil {
		t.Fatal(err)
	}
	return mk()
}

func TestCount(t *testing.T) {
	a := mustAgg(t, "COUNT", false, false)
	got := feed(t, a, sqltypes.NewInt(1), sqltypes.NullValue, sqltypes.NewInt(2))
	if got != sqltypes.NewInt(2) {
		t.Errorf("COUNT ignoring NULL = %v", got)
	}
	star := mustAgg(t, "COUNT", true, false)
	got = feed(t, star, sqltypes.NewInt(1), sqltypes.NullValue, sqltypes.NewInt(2))
	if got != sqltypes.NewInt(3) {
		t.Errorf("COUNT(*) = %v", got)
	}
	empty := mustAgg(t, "COUNT", false, false)
	if empty.Result() != sqltypes.NewInt(0) {
		t.Error("empty COUNT should be 0")
	}
}

func TestSum(t *testing.T) {
	a := mustAgg(t, "SUM", false, false)
	got := feed(t, a, sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NullValue)
	if got != sqltypes.NewInt(3) {
		t.Errorf("int SUM = %v", got)
	}
	f := mustAgg(t, "SUM", false, false)
	got = feed(t, f, sqltypes.NewInt(1), sqltypes.NewFloat(0.5))
	if got != sqltypes.NewFloat(1.5) {
		t.Errorf("mixed SUM = %v (int then float must promote)", got)
	}
	f2 := mustAgg(t, "SUM", false, false)
	got = feed(t, f2, sqltypes.NewFloat(0.5), sqltypes.NewInt(1))
	if got != sqltypes.NewFloat(1.5) {
		t.Errorf("mixed SUM (float first) = %v", got)
	}
	empty := mustAgg(t, "SUM", false, false)
	if !empty.Result().IsNull() {
		t.Error("empty SUM should be NULL")
	}
	onlyNulls := mustAgg(t, "SUM", false, false)
	if !feed(t, onlyNulls, sqltypes.NullValue, sqltypes.NullValue).IsNull() {
		t.Error("all-NULL SUM should be NULL")
	}
	bad := mustAgg(t, "SUM", false, false)
	if err := bad.Add(sqltypes.NewString("x")); err == nil {
		t.Error("SUM of string should error")
	}
}

func TestMinMax(t *testing.T) {
	mn := mustAgg(t, "MIN", false, false)
	got := feed(t, mn, sqltypes.NewInt(3), sqltypes.NullValue, sqltypes.NewInt(1), sqltypes.NewInt(2))
	if got != sqltypes.NewInt(1) {
		t.Errorf("MIN = %v", got)
	}
	mx := mustAgg(t, "MAX", false, false)
	got = feed(t, mx, sqltypes.NewFloat(1.5), sqltypes.NewInt(3))
	if got != sqltypes.NewInt(3) {
		t.Errorf("MAX = %v", got)
	}
	empty := mustAgg(t, "MIN", false, false)
	if !empty.Result().IsNull() {
		t.Error("empty MIN should be NULL")
	}
	// Strings compare lexically.
	s := mustAgg(t, "MIN", false, false)
	got = feed(t, s, sqltypes.NewString("b"), sqltypes.NewString("a"))
	if got != sqltypes.NewString("a") {
		t.Errorf("string MIN = %v", got)
	}
}

func TestAvg(t *testing.T) {
	a := mustAgg(t, "AVG", false, false)
	got := feed(t, a, sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NullValue)
	if got != sqltypes.NewFloat(1.5) {
		t.Errorf("AVG = %v", got)
	}
	empty := mustAgg(t, "AVG", false, false)
	if !empty.Result().IsNull() {
		t.Error("empty AVG should be NULL")
	}
	bad := mustAgg(t, "AVG", false, false)
	if err := bad.Add(sqltypes.NewBool(true)); err == nil {
		t.Error("AVG of bool should error")
	}
}

func TestDistinct(t *testing.T) {
	a := mustAgg(t, "SUM", false, true)
	got := feed(t, a, sqltypes.NewInt(1), sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewFloat(2))
	if got != sqltypes.NewInt(3) {
		t.Errorf("SUM(DISTINCT) = %v (1 and 1, 2 and 2.0 must dedup)", got)
	}
	c := mustAgg(t, "COUNT", false, true)
	got = feed(t, c, sqltypes.NewInt(1), sqltypes.NewInt(1), sqltypes.NullValue, sqltypes.NewInt(2))
	if got != sqltypes.NewInt(2) {
		t.Errorf("COUNT(DISTINCT) = %v", got)
	}
}

// TestAccumulatorsAreIndependent: accumulators of one constructor are
// carved from shared chunks; each must start fresh and keep its own
// state, across chunk boundaries too.
func TestAccumulatorsAreIndependent(t *testing.T) {
	for _, distinct := range []bool{false, true} {
		mk, err := NewAggregators("SUM", false, distinct)
		if err != nil {
			t.Fatal(err)
		}
		const n = 3*maxAccChunk + 5
		accs := make([]Aggregator, n)
		for i := range accs {
			accs[i] = mk()
			feed(t, accs[i], sqltypes.NewInt(int64(i)))
		}
		for i, a := range accs {
			if got := feed(t, a, sqltypes.NewInt(n)); got != sqltypes.NewInt(int64(i)+n) {
				t.Fatalf("distinct=%v: accumulator %d holds %v, want %d", distinct, i, got, i+n)
			}
		}
	}
	mk, _ := NewAggregators("MAX", false, false)
	feed(t, mk(), sqltypes.NewInt(7))
	if got := mk().Result(); !got.IsNull() {
		t.Errorf("a new MAX accumulator starts at %v, want NULL", got)
	}
}

// TestAccumulatorReset: an accumulator that folded some values and was
// reset folds the next ones exactly as a new one does — the same errors
// and the same result, bit for bit — for every aggregate, with and
// without DISTINCT, over runs of the kernel pool's values.
func TestAccumulatorReset(t *testing.T) {
	same := func(a, b sqltypes.Value) bool {
		return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	run := func(a Aggregator, vals []sqltypes.Value) (errs string) {
		for _, v := range vals {
			if err := a.Add(v); err != nil {
				errs += err.Error() + ";"
			}
		}
		return errs
	}
	n := len(kernelPool)
	for _, name := range []string{"COUNT", "SUM", "MIN", "MAX", "AVG"} {
		for _, star := range []bool{false, name == "COUNT"} {
			for _, distinct := range []bool{false, true} {
				mk, err := NewAggregators(name, star, distinct)
				if err != nil {
					t.Fatal(err)
				}
				for i := range n {
					before := []sqltypes.Value{kernelPool[i], kernelPool[(i+1)%n], kernelPool[(i+5)%n]}
					for j := range n + 1 {
						after := []sqltypes.Value{kernelPool[j%n], kernelPool[(j+3)%n], kernelPool[j%n]}
						if j == n {
							after = nil // the empty group
						}
						reused, fresh := mk(), mk()
						run(reused, before)
						reused.Reset()
						gotErrs, wantErrs := run(reused, after), run(fresh, after)
						if got, want := reused.Result(), fresh.Result(); gotErrs != wantErrs || !same(got, want) {
							t.Fatalf("%s star=%v distinct=%v over %v, reset, then %v: %#v (errors %q), a new one %#v (errors %q)",
								name, star, distinct, before, after, got, gotErrs, want, wantErrs)
						}
					}
				}
			}
		}
	}
}

func TestNewAggregatorsErrors(t *testing.T) {
	if _, err := NewAggregators("MEDIAN", false, false); err == nil {
		t.Error("unknown aggregate should fail")
	}
	if !IsAggregate("sum") || !IsAggregate("Count") || IsAggregate("LEAST") {
		t.Error("IsAggregate misclassifies")
	}
}

func TestAggregateResultType(t *testing.T) {
	cases := []struct {
		name string
		in   sqltypes.Type
		want sqltypes.Type
	}{
		{"COUNT", sqltypes.String, sqltypes.Int},
		{"AVG", sqltypes.Int, sqltypes.Float},
		{"SUM", sqltypes.Int, sqltypes.Int},
		{"SUM", sqltypes.Float, sqltypes.Float},
		{"MIN", sqltypes.String, sqltypes.String},
		{"MAX", sqltypes.Float, sqltypes.Float},
	}
	for _, c := range cases {
		if got := AggregateResultType(c.name, c.in); got != c.want {
			t.Errorf("AggregateResultType(%s, %v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}
