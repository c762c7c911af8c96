package dbspinner_test

import (
	"math"
	"testing"

	"dbspinner"
	"dbspinner/internal/sqltypes"
)

// TestRoundDoesNotOverflow: ROUND computed round(v·10^d)/10^d, so where
// 10^d or v·10^d overflowed it returned +Inf or NaN — ROUND(1e300, 10) was
// +Inf, ROUND(1.5, 400) and ROUND(2.5, -400) NaN. A digit below 10^-d
// does not exist at such a magnitude, so v is its own rounding, and a 10^d
// that underflows to 0 rounds every finite v to its signed zero. Each case
// runs on a literal, on a column, and on a column inside FF's ROUND(CAST(…
// AS FLOAT), d), which takes the typed path.
func TestRoundDoesNotOverflow(t *testing.T) {
	e := dbspinner.New(dbspinner.Config{})
	for _, sql := range []string{
		"CREATE TABLE r (x float, one float)",
		"INSERT INTO r VALUES (1e300, 1.0), (1.5, 1.0), (2.5, 1.0), (-2.5, 1.0)",
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, c := range []struct {
		x, digits string
		want      float64
	}{
		{"1e300", "10", 1e300},
		{"1.5", "400", 1.5},
		{"2.5", "-400", 0},
		{"-2.5", "-400", math.Copysign(0, -1)},
	} {
		for _, sql := range []string{
			"SELECT ROUND(" + c.x + ", " + c.digits + ")",
			"SELECT ROUND(x, " + c.digits + ") FROM r WHERE x = " + c.x,
			"SELECT ROUND(CAST((x / one) * one AS FLOAT), " + c.digits + ") FROM r WHERE x = " + c.x,
		} {
			res, err := e.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("%s: %d rows, want 1", sql, len(res.Rows))
			}
			got := res.Rows[0][0]
			if got.T != sqltypes.Float || math.Float64bits(got.F) != math.Float64bits(c.want) {
				t.Errorf("%s = %v, want FLOAT %v", sql, got, c.want)
			}
		}
	}
}
