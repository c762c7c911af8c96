package expr

import (
	"math"
	"strings"
	"testing"

	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

// evalStr compiles and evaluates a standalone expression over a test
// row with columns a=1 (int), b=2.5 (float), s='hi', n=NULL, t=true.
func evalStr(t *testing.T, src string) sqltypes.Value {
	t.Helper()
	env := NewEnv("t", sqltypes.Schema{
		{Name: "a", Type: sqltypes.Int},
		{Name: "b", Type: sqltypes.Float},
		{Name: "s", Type: sqltypes.String},
		{Name: "n", Type: sqltypes.Int},
		{Name: "t", Type: sqltypes.Bool},
	})
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(e, env)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	row := sqltypes.Row{
		sqltypes.NewInt(1), sqltypes.NewFloat(2.5), sqltypes.NewString("hi"),
		sqltypes.NullValue, sqltypes.NewBool(true),
	}
	v, err := c.Eval(row)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmeticEval(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"a + 1":      sqltypes.NewInt(2),
		"a + b":      sqltypes.NewFloat(3.5),
		"b * 2":      sqltypes.NewFloat(5),
		"7 / 2":      sqltypes.NewInt(3),
		"7.0 / 2":    sqltypes.NewFloat(3.5),
		"a % 2":      sqltypes.NewInt(1),
		"-a":         sqltypes.NewInt(-1),
		"a + n":      sqltypes.NullValue,
		"'x' || 'y'": sqltypes.NewString("xy"),
		"'v' || a":   sqltypes.NewString("v1"),
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestComparisonsEval(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"a = 1":    sqltypes.NewBool(true),
		"a != 1":   sqltypes.NewBool(false),
		"a < b":    sqltypes.NewBool(true),
		"b >= 2.5": sqltypes.NewBool(true),
		"a > n":    sqltypes.NullValue,
		"s = 'hi'": sqltypes.NewBool(true),
		"1 = 1.0":  sqltypes.NewBool(true),
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestLogicEval(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"a = 1 AND b > 2": sqltypes.NewBool(true),
		"a = 2 OR b > 2":  sqltypes.NewBool(true),
		"NOT a = 2":       sqltypes.NewBool(true),
		"a = 1 AND n = 1": sqltypes.NullValue,
		"a = 2 AND n = 1": sqltypes.NewBool(false), // short-circuit false
		"a = 1 OR n = 1":  sqltypes.NewBool(true),  // short-circuit true
		"n = 1 OR a = 1":  sqltypes.NewBool(true),
		"n = 1 AND a = 2": sqltypes.NewBool(false),
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestPredicatesEval(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"n IS NULL":             sqltypes.NewBool(true),
		"a IS NULL":             sqltypes.NewBool(false),
		"a IS NOT NULL":         sqltypes.NewBool(true),
		"a IN (1, 2, 3)":        sqltypes.NewBool(true),
		"a IN (2, 3)":           sqltypes.NewBool(false),
		"a NOT IN (2, 3)":       sqltypes.NewBool(true),
		"a IN (2, n)":           sqltypes.NullValue, // no match + NULL = unknown
		"n IN (1)":              sqltypes.NullValue,
		"a BETWEEN 0 AND 2":     sqltypes.NewBool(true),
		"a NOT BETWEEN 0 AND 2": sqltypes.NewBool(false),
		"s LIKE 'h%'":           sqltypes.NewBool(true),
		"s LIKE 'H%'":           sqltypes.NewBool(false),
		"s LIKE '_i'":           sqltypes.NewBool(true),
		"s LIKE 'x%'":           sqltypes.NewBool(false),
		"s NOT LIKE 'x%'":       sqltypes.NewBool(true),
		"n LIKE 'x'":            sqltypes.NullValue,
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestCaseEval(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"CASE WHEN a = 1 THEN 'one' ELSE 'other' END": sqltypes.NewString("one"),
		"CASE WHEN a = 2 THEN 'two' ELSE 'other' END": sqltypes.NewString("other"),
		"CASE WHEN a = 2 THEN 'two' END":              sqltypes.NullValue,
		"CASE a WHEN 1 THEN 10 WHEN 2 THEN 20 END":    sqltypes.NewInt(10),
		"CASE WHEN n = 1 THEN 'x' ELSE 'y' END":       sqltypes.NewString("y"), // UNKNOWN cond skips arm
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestCastEval(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"CAST(b AS int)":     sqltypes.NewInt(2),
		"CAST(a AS float)":   sqltypes.NewFloat(1),
		"CAST(a AS varchar)": sqltypes.NewString("1"),
		"CAST('7' AS int)":   sqltypes.NewInt(7),
		"CAST(n AS int)":     sqltypes.NullValue,
		"CAST(a AS numeric)": sqltypes.NewFloat(1),
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestScalarFuncsEval(t *testing.T) {
	cases := map[string]sqltypes.Value{
		"ABS(-5)":               sqltypes.NewInt(5),
		"ABS(-2.5)":             sqltypes.NewFloat(2.5),
		"CEILING(2.1)":          sqltypes.NewFloat(3),
		"CEIL(2.0)":             sqltypes.NewFloat(2),
		"FLOOR(2.9)":            sqltypes.NewFloat(2),
		"ROUND(2.567, 2)":       sqltypes.NewFloat(2.57),
		"ROUND(2.4)":            sqltypes.NewFloat(2),
		"ROUND(n, 2)":           sqltypes.NullValue,
		"MOD(7, 3)":             sqltypes.NewInt(1),
		"MOD(a, 2)":             sqltypes.NewInt(1),
		"POWER(2, 10)":          sqltypes.NewFloat(1024),
		"SQRT(9)":               sqltypes.NewFloat(3),
		"LEAST(3, 1, 2)":        sqltypes.NewInt(1),
		"LEAST(3, n, 2)":        sqltypes.NewInt(2), // NULLs ignored
		"LEAST(n, n)":           sqltypes.NullValue,
		"GREATEST(3, 1, 2)":     sqltypes.NewInt(3),
		"GREATEST(1, 2.5)":      sqltypes.NewFloat(2.5),
		"COALESCE(n, n, 7)":     sqltypes.NewInt(7),
		"COALESCE(a, 9)":        sqltypes.NewInt(1),
		"COALESCE(n, n)":        sqltypes.NullValue,
		"NULLIF(1, 1)":          sqltypes.NullValue,
		"NULLIF(1, 2)":          sqltypes.NewInt(1),
		"UPPER(s)":              sqltypes.NewString("HI"),
		"LOWER('AbC')":          sqltypes.NewString("abc"),
		"LENGTH(s)":             sqltypes.NewInt(2),
		"SUBSTR('hello', 2, 3)": sqltypes.NewString("ell"),
		"SUBSTR('hello', 2)":    sqltypes.NewString("ello"),
		"CONCAT('a', n, 'b')":   sqltypes.NewString("ab"),
		"SIGN(-4)":              sqltypes.NewInt(-1),
		"SIGN(0)":               sqltypes.NewInt(0),
		"EXP(0)":                sqltypes.NewFloat(1),
		"LN(1)":                 sqltypes.NewFloat(0),
	}
	for src, want := range cases {
		got := evalStr(t, src)
		if got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

// TestSubstrWindow pins SUBSTR(s, start, length) as PostgreSQL computes
// it: the positions [start, start+length) clipped to the string. A start
// below 1 still counts towards the end — SUBSTR('xyz', 0, 2) is 'x', not
// 'xy', as it was when the start was clamped to 1 first — and no start or
// length of the INT pool overflows.
func TestSubstrWindow(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	cases := []struct {
		start, n int64
		noN      bool
		want     string
	}{
		{start: 0, n: 2, want: "x"},
		{start: -1, n: 3, want: "x"},
		{start: -5, n: 3, want: ""},
		{start: -maxI, n: 3, want: ""},
		{start: 1, n: 0, want: ""},
		{start: 2, n: 1, want: "y"},
		{start: 3, n: 5, want: "z"},
		{start: 4, n: 1, want: ""},
		{start: 1, n: maxI, want: "xyz"},
		{start: -1, n: maxI, want: "xyz"},
		{start: maxI, n: maxI, want: ""},
		{start: minI, n: maxI, want: ""}, // ends at -1
		{start: minI, n: 0, want: ""},
		{start: minI, noN: true, want: "xyz"},
		{start: 0, noN: true, want: "xyz"},
		{start: 3, noN: true, want: "z"},
		{start: maxI, noN: true, want: ""},
	}
	for _, c := range cases {
		got, err := substr(sqltypes.NewString("xyz"), sqltypes.NewInt(c.start), sqltypes.NewInt(c.n), !c.noN)
		if err != nil || got != sqltypes.NewString(c.want) {
			t.Errorf("SUBSTR('xyz', %d, %d) (length given: %v) = %v, %v; want %q", c.start, c.n, !c.noN, got, err, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	env := NewEnv("t", sqltypes.Schema{{Name: "a", Type: sqltypes.Int}})
	bad := []string{
		"zzz",            // unknown column
		"t.zzz",          // unknown qualified column
		"x.a",            // unknown table
		"NOSUCHFUNC(a)",  // unknown function
		"SUM(a)",         // aggregate outside agg context
		"ROUND(a, 1, 2)", // too many args
		"MOD(a)",         // too few args
	}
	for _, src := range bad {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(e, env); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	env := NewEnv("t1", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}})
	env.Add("t2", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}})
	e, _ := parser.ParseExpr("x")
	if _, err := Compile(e, env); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous ref should fail, got %v", err)
	}
	// Qualified refs resolve.
	e, _ = parser.ParseExpr("t2.x")
	c, err := Compile(e, env)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Eval(sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(2)})
	if err != nil || v != sqltypes.NewInt(2) {
		t.Errorf("t2.x = %v, %v", v, err)
	}
}

func TestEnvResolveCaseInsensitive(t *testing.T) {
	env := NewEnv("PageRank", sqltypes.Schema{{Name: "Node", Type: sqltypes.Int}})
	if _, err := env.Resolve("pagerank", "NODE"); err != nil {
		t.Errorf("case-insensitive resolve failed: %v", err)
	}
	if _, err := env.Resolve("", "node"); err != nil {
		t.Errorf("unqualified resolve failed: %v", err)
	}
}

func TestTypeInference(t *testing.T) {
	env := NewEnv("t", sqltypes.Schema{
		{Name: "a", Type: sqltypes.Int},
		{Name: "b", Type: sqltypes.Float},
	})
	cases := map[string]sqltypes.Type{
		"a":                                   sqltypes.Int,
		"b":                                   sqltypes.Float,
		"a + 1":                               sqltypes.Int,
		"a + b":                               sqltypes.Float,
		"a = 1":                               sqltypes.Bool,
		"CAST(a AS varchar)":                  sqltypes.String,
		"CASE WHEN a = 1 THEN 1 ELSE 2.0 END": sqltypes.Float,
		"COALESCE(NULL, a)":                   sqltypes.Int,
		"LEAST(a, b)":                         sqltypes.Float,
		"COUNT_MISSING_IS_UNKNOWN":            sqltypes.Unknown,
	}
	for src, want := range cases {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if got := InferType(e, env); got != want {
			t.Errorf("InferType(%s) = %v, want %v", src, got, want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestLowerIsToLower: lowerIs(s, l), which Resolve matches names with,
// is strings.ToLower(s) == l, for non-ASCII names too.
func TestLowerIsToLower(t *testing.T) {
	names := []string{"", "a", "A", "ab", "aB", "abc", "friendsPrev", "friendsprev", "İx", "i̇x", "ÄB", "äb", "xÄ", "xä", "K", "k", "K"}
	for _, s := range names {
		for _, l := range names {
			if got, want := lowerIs(s, l), strings.ToLower(s) == l; got != want {
				t.Errorf("lowerIs(%q, %q) = %v, want %v", s, l, got, want)
			}
		}
	}
}
