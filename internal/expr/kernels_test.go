package expr

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

// kernelPool is the differential test's value pool: NULL and the zero
// Value, both booleans, the zeros, ±1 as INT and FLOAT, integers a float
// cannot hold, the INT extremes, the infinities, NaN, a fraction and two
// strings.
var kernelPool = []sqltypes.Value{
	sqltypes.NullValue, {},
	sqltypes.NewBool(true), sqltypes.NewBool(false),
	sqltypes.NewInt(0), sqltypes.NewFloat(math.Copysign(0, -1)),
	sqltypes.NewInt(1), sqltypes.NewInt(-1), sqltypes.NewFloat(1), sqltypes.NewFloat(-1),
	sqltypes.NewInt(1<<53 + 1), sqltypes.NewInt(-(1<<53 + 1)),
	sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(math.MinInt64),
	sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(math.NaN()),
	sqltypes.NewFloat(1.5),
	sqltypes.NewString("x"), sqltypes.NewString(""),
}

// Where an operand sits: it decides what the compiler sees (a column
// read, a literal bound for the run, an expression around a column, or a
// column past the end of the row).
type placement int

const (
	asColumn placement = iota
	asLiteral
	asNested
	asShort
	placements
)

func (p placement) String() string { return [...]string{"column", "literal", "nested", "short"}[p] }

// placed places v as operand i of n: column ci of the row, the literal of
// slot i+1 — parsed as a decoy of v's type, with v bound to the slot, as
// a prepared statement runs another text's literals — a CASE that yields
// column ci, or column si, which lies past the end of the n-value row.
func placed(v sqltypes.Value, p placement, i int) ast.Expr {
	col := &ast.ColumnRef{Name: fmt.Sprintf("c%d", i)}
	switch p {
	case asLiteral:
		return ast.NewSlotLiteral(decoy(v), i+1, nil)
	case asNested:
		return &ast.CaseExpr{Whens: []ast.WhenClause{{Cond: ast.NewLiteral(sqltypes.NewBool(true)), Result: col}}}
	case asShort:
		return &ast.ColumnRef{Name: fmt.Sprintf("s%d", i)}
	}
	return col
}

// decoy returns a value of v's type that is not v, where the type has
// another value: what a literal reads as if it ignores the run's binding.
func decoy(v sqltypes.Value) sqltypes.Value {
	switch v.T {
	case sqltypes.Bool:
		return sqltypes.NewBool(v.I == 0)
	case sqltypes.Int:
		if v.I == 7 {
			return sqltypes.NewInt(8)
		}
		return sqltypes.NewInt(7)
	case sqltypes.Float:
		if sameValue(v, sqltypes.NewFloat(7)) {
			return sqltypes.NewFloat(8)
		}
		return sqltypes.NewFloat(7)
	case sqltypes.String:
		if v.S == "decoy" {
			return sqltypes.NewString("other decoy")
		}
		return sqltypes.NewString("decoy")
	}
	return v
}

// sameValue compares two values exactly: tag, payloads, and a float's
// bits (so -0 is not 0 and NaN is NaN).
func sameValue(a, b sqltypes.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameResult(v1 sqltypes.Value, e1 error, v2 sqltypes.Value, e2 error) bool {
	if (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
		return false
	}
	return sameValue(v1, v2)
}

func showResult(v sqltypes.Value, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("%#v", v)
}

// sweep compiles build over every n-tuple of kernelPool, each operand in
// every placement (for n = 3, the four rotations of column, literal,
// nested and short, so that each operand takes each), evaluates it over
// the n-value row, and returns how many results differ from ref's, with
// the first few described. A compile error is a result like an
// evaluation error.
func sweep(t *testing.T, name string, n int, build func([]ast.Expr) ast.Expr, ref refFunc) (mismatches int, first []string) {
	t.Helper()
	var layouts [][]placement
	if n == 3 {
		for k := placement(0); k < placements; k++ {
			layouts = append(layouts, []placement{k, (k + 1) % placements, (k + 2) % placements})
		}
	} else {
		for k := 0; k < pow(int(placements), n); k++ {
			ps := make([]placement, n)
			for i, c := 0, k; i < n; i, c = i+1, c/int(placements) {
				ps[i] = placement(c % int(placements))
			}
			layouts = append(layouts, ps)
		}
	}
	vals := make([]sqltypes.Value, n)
	args := make([]ast.Expr, n)
	refArgs := make([]refArg, n)
	for tuple := 0; tuple < pow(len(kernelPool), n); tuple++ {
		env := &Env{Params: make([]sqltypes.Value, n)}
		for i, c := 0, tuple; i < n; i, c = i+1, c/len(kernelPool) {
			vals[i] = kernelPool[c%len(kernelPool)]
			env.Params[i] = vals[i]
			env.Add("t", sqltypes.Schema{{Name: fmt.Sprintf("c%d", i), Type: vals[i].T}})
		}
		for i := range vals {
			env.Add("t", sqltypes.Schema{{Name: fmt.Sprintf("s%d", i), Type: vals[i].T}})
		}
		for _, ps := range layouts {
			for i := range args {
				args[i] = placed(vals[i], ps[i], i)
				refArgs[i] = refArg{v: vals[i]}
				if ps[i] == asShort {
					refArgs[i].err = fmt.Errorf("row too short for column s%d (index %d)", i, n+i)
				}
			}
			want, wantErr := ref(refArgs)
			got := sqltypes.NullValue
			c, gotErr := Compile(build(args), env)
			if gotErr == nil {
				got, gotErr = c.Eval(sqltypes.Row(vals))
			}
			if !sameResult(got, gotErr, want, wantErr) {
				mismatches++
				if len(first) < 5 {
					first = append(first, fmt.Sprintf("%s over %v placed %v: got %s, reference %s",
						name, vals, ps, showResult(got, gotErr), showResult(want, wantErr)))
				}
			}
		}
	}
	return mismatches, first
}

func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}

func binaryOps() []string {
	var ops []string
	for op := range binaryKernels {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

func sweepBinary(t *testing.T, op string) (int, []string) {
	return sweep(t, op, 2,
		func(a []ast.Expr) ast.Expr { return &ast.BinaryExpr{Op: op, L: a[0], R: a[1]} },
		strict(func(v []sqltypes.Value) (sqltypes.Value, error) { return refBinary(op, v[0], v[1]) }))
}

// operators are the operators besides the binary kernels, each with its
// reference: the connectives, which skip what three-valued logic lets
// them, and the unary and list operators.
var operators = []struct {
	name  string
	n     int
	build func([]ast.Expr) ast.Expr
	ref   refFunc
}{
	{"AND", 2, func(a []ast.Expr) ast.Expr { return &ast.BinaryExpr{Op: "AND", L: a[0], R: a[1]} }, refLogic(true)},
	{"OR", 2, func(a []ast.Expr) ast.Expr { return &ast.BinaryExpr{Op: "OR", L: a[0], R: a[1]} }, refLogic(false)},
	{"NOT", 1, func(a []ast.Expr) ast.Expr { return &ast.UnaryExpr{Op: "NOT", E: a[0]} }, refNot},
	{"unary -", 1, func(a []ast.Expr) ast.Expr { return &ast.UnaryExpr{Op: "-", E: a[0]} }, strict(refNeg)},
	{"IS NULL", 1, func(a []ast.Expr) ast.Expr { return &ast.IsNullExpr{E: a[0]} }, strict(refIsNull(false))},
	{"IS NOT NULL", 1, func(a []ast.Expr) ast.Expr { return &ast.IsNullExpr{E: a[0], Negate: true} }, strict(refIsNull(true))},
	{"IN", 3, func(a []ast.Expr) ast.Expr { return &ast.InExpr{E: a[0], List: a[1:]} }, refIn(false)},
	{"NOT IN", 3, func(a []ast.Expr) ast.Expr { return &ast.InExpr{E: a[0], List: a[1:], Negate: true} }, refIn(true)},
	{"CASE WHEN", 3, func(a []ast.Expr) ast.Expr {
		return &ast.CaseExpr{Whens: []ast.WhenClause{{Cond: a[0], Result: a[1]}}, Else: a[2]}
	}, refCase},
}

// arities lists the argument counts a function accepts, variadic ones up
// to three.
func arities(f scalarFunc) []int {
	hi := f.maxArgs
	if hi < 0 {
		hi = 3
	}
	var out []int
	for n := f.minArgs; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

func funcNames() []string {
	var names []string
	for name := range scalarFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestKernelsMatchReference is the differential test of the bound
// kernels: every operator, every CAST target and every library function
// at every arity it accepts, over kernelPool with operands as columns,
// bound literals, nested expressions and columns the row is too short
// for, must give the reference evaluator's value (floats bit for bit)
// and error (reference_test.go) — so also its bound check, and its
// order: operands evaluate left to right and the first error wins.
func TestKernelsMatchReference(t *testing.T) {
	report := func(n int, first []string) {
		t.Helper()
		for _, f := range first {
			t.Error(f)
		}
		if n > len(first) {
			t.Errorf("... %d mismatches in all", n)
		}
	}
	for _, op := range binaryOps() {
		report(sweepBinary(t, op))
	}
	for _, to := range []sqltypes.Type{sqltypes.Int, sqltypes.Float, sqltypes.String, sqltypes.Bool} {
		report(sweep(t, "CAST AS "+to.String(), 1,
			func(a []ast.Expr) ast.Expr { return &ast.CastExpr{E: a[0], To: to} },
			strict(func(v []sqltypes.Value) (sqltypes.Value, error) { return refCast(v[0], to) })))
	}
	for _, op := range operators {
		report(sweep(t, op.name, op.n, op.build, op.ref))
	}
	for _, name := range funcNames() {
		ref, ok := refFuncs[name]
		if !ok {
			t.Errorf("%s has no reference", name)
			continue
		}
		for _, n := range arities(scalarFuncs[name]) {
			report(sweep(t, fmt.Sprintf("%s/%d", name, n), n,
				func(a []ast.Expr) ast.Expr { return &ast.FuncCall{Name: name, Args: append([]ast.Expr(nil), a...)} },
				strict(ref)))
		}
	}
}

// TestKernelMutantIsCaught seeds the bug the FLOAT fast path of / must
// not have — no zero check, so 1.0/0.0 is +Inf instead of an error — and
// requires the differential sweep to see it.
func TestKernelMutantIsCaught(t *testing.T) {
	orig := binaryKernels["/"]
	defer func() { binaryKernels["/"] = orig }()
	binaryKernels["/"] = binaryKernel{eval: func(a, b sqltypes.Value) (sqltypes.Value, error) {
		if a.T == sqltypes.Float && b.T == sqltypes.Float {
			return sqltypes.NewFloat(a.F / b.F), nil
		}
		return div(a, b)
	}}
	if n, first := sweepBinary(t, "/"); n == 0 {
		t.Fatal("a FLOAT / without the zero check passed the differential sweep")
	} else {
		t.Logf("the mutant fails %d cases, e.g. %s", n, first[0])
	}
}

// TestShapeMutantIsCaught seeds an operand shape that reads its two
// columns swapped — the column∘column closure of every binary operator
// and two-argument function — and requires the differential sweep to see
// it.
func TestShapeMutantIsCaught(t *testing.T) {
	defer func(orig func(binaryFn, *Compiled, *Compiled) evalFunc) { bindBinary = orig }(bindBinary)
	orig := bindBinary
	bindBinary = func(f binaryFn, l, r *Compiled) evalFunc {
		if li, ri := l.Col, r.Col; li >= 0 && ri >= 0 {
			return func(row sqltypes.Row) (sqltypes.Value, error) {
				if li >= len(row) || ri >= len(row) {
					return orig(f, l, r)(row)
				}
				return f(row[ri], row[li])
			}
		}
		return orig(f, l, r)
	}
	if n, first := sweepBinary(t, "-"); n == 0 {
		t.Fatal("a column∘column shape with its operands swapped passed the differential sweep")
	} else {
		t.Logf("the mutant fails %d cases, e.g. %s", n, first[0])
	}
}

// TestLiteralLeafMutantIsCaught seeds the literal leaf that reads a
// literal as parsed instead of as the run bound it — what a prepared
// statement would then run with: the literals of the text it was
// prepared from. The sweep places every literal operand as a slot
// parsed with a decoy value and bound to the real one, and must see it.
func TestLiteralLeafMutantIsCaught(t *testing.T) {
	defer func(orig func(*Compiled) sqltypes.Value) { literalValue = orig }(literalValue)
	literalValue = func(c *Compiled) sqltypes.Value {
		_, v := c.lit.Param()
		return v
	}
	if n, first := sweepBinary(t, "+"); n == 0 {
		t.Fatal("a literal leaf that reads the parsed value passed the differential sweep")
	} else {
		t.Logf("the mutant fails %d cases, e.g. %s", n, first[0])
	}
}

// TestArgumentErrorsComeFirst: every operator and function evaluates all
// of its operands left to right and returns the first one's error, as
// the reference (which collected the arguments first) did — in
// particular COALESCE does not stop at its first non-NULL argument.
func TestArgumentErrorsComeFirst(t *testing.T) {
	env := &Env{}
	failing := func(i int) ast.Expr {
		return &ast.CastExpr{E: ast.NewLiteral(sqltypes.NewString(fmt.Sprintf("bad%d", i))), To: sqltypes.Int}
	}
	check := func(name string, n int, build func([]ast.Expr) ast.Expr) {
		for mask := 1; mask < 1<<n; mask++ {
			args := make([]ast.Expr, n)
			firstBad := -1
			for i := range args {
				args[i] = ast.NewLiteral(sqltypes.NewInt(1))
				if mask&(1<<i) != 0 {
					args[i] = failing(i)
					if firstBad < 0 {
						firstBad = i
					}
				}
			}
			c, err := Compile(build(args), env)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := fmt.Sprintf("cannot cast %q to INT", fmt.Sprintf("bad%d", firstBad))
			if v, err := c.Eval(nil); err == nil || err.Error() != want || !sameValue(v, sqltypes.NullValue) {
				t.Errorf("%s with failing arguments %b: got %s, want error %s", name, mask, showResult(v, err), want)
			}
		}
	}
	for _, op := range binaryOps() {
		check(op, 2, func(a []ast.Expr) ast.Expr { return &ast.BinaryExpr{Op: op, L: a[0], R: a[1]} })
	}
	for _, name := range funcNames() {
		for _, n := range arities(scalarFuncs[name]) {
			check(fmt.Sprintf("%s/%d", name, n), n, func(a []ast.Expr) ast.Expr { return &ast.FuncCall{Name: name, Args: a} })
		}
	}
}

// The per-row expressions of the workload queries, over one row of
// (friends, friendsPrev, distance, delta, m, x).
var workloadExprs = map[string]string{
	"ff":         "round(cast((friends / friendsPrev) * friends AS numeric), 5)",
	"sssp-least": "LEAST(distance, delta)",
	"sssp-coal":  "COALESCE(m, 9999999)",
	"sssp-plus":  "delta + x",
	"pr":         "0.85 * x",
	"comparison": "delta != 9999999",
}

// One expression per operand shape the bound evaluators tell apart, over
// the same row: the binary operators' closures, and the operators and
// functions that read leaves in place through an operand.
var shapeExprs = map[string]string{
	"col∘col":      "friends / friendsPrev",
	"col∘lit":      "distance < 5",
	"lit∘col":      "2 * delta",
	"col∘expr":     "distance - (delta + 1)",
	"expr∘col":     "(delta + 1) - distance",
	"lit∘expr":     "3 - (delta + 1)",
	"expr∘lit":     "(delta + 1) % 4",
	"expr∘expr":    "(delta + 1) * (distance + 1)",
	"AND, OR":      "distance > 3 AND (delta < 4 OR m IS NULL)",
	"NOT":          "NOT (distance = delta)",
	"unary -":      "-x",
	"CAST":         "CAST(distance AS float)",
	"IS NULL":      "m IS NOT NULL",
	"IN":           "delta IN (1, m, 3)",
	"ROUND digits": "ROUND(x, distance % 3)",
	"GREATEST":     "GREATEST(x, 1.5, friends)",
	"MOD":          "MOD(distance, 7)",
	"ABS":          "ABS(delta)",
}

var workloadSchema = sqltypes.Schema{
	{Name: "friends", Type: sqltypes.Float}, {Name: "friendsPrev", Type: sqltypes.Float},
	{Name: "distance", Type: sqltypes.Int}, {Name: "delta", Type: sqltypes.Int},
	{Name: "m", Type: sqltypes.Int}, {Name: "x", Type: sqltypes.Float},
}

func workloadRow(i int) sqltypes.Row {
	m := sqltypes.NewInt(int64(i))
	if i%3 == 0 {
		m = sqltypes.NullValue
	}
	return sqltypes.Row{
		sqltypes.NewFloat(float64(i%17) + 3), sqltypes.NewFloat(float64(i%5) + 2),
		sqltypes.NewInt(int64(i % 23)), sqltypes.NewInt(int64(i % 19)),
		m, sqltypes.NewFloat(float64(i) / 7),
	}
}

func compileWorkload(tb testing.TB, src string) *Compiled {
	tb.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		tb.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(e, NewEnv("t", workloadSchema))
	if err != nil {
		tb.Fatalf("compile %q: %v", src, err)
	}
	return c
}

var evalSink sqltypes.Value

// TestEvalDoesNotAllocate: evaluating a workload expression, or one of
// each operand shape, allocates nothing per row — no argument slice, no
// boxed error, no cast.
func TestEvalDoesNotAllocate(t *testing.T) {
	row := workloadRow(4)
	all := maps.Clone(workloadExprs)
	maps.Copy(all, shapeExprs)
	for name, src := range all {
		c := compileWorkload(t, src)
		got := testing.AllocsPerRun(100, func() {
			v, err := c.Eval(row)
			if err != nil {
				t.Fatal(err)
			}
			evalSink = v
		})
		if got != 0 {
			t.Errorf("%s (%s): %.1f allocations per evaluation, want 0", name, src, got)
		}
	}
}

// TestCompiledEvalConcurrent evaluates each compiled workload expression
// from 8 goroutines at once, as the MPP machine's partitions do with the
// one Compiled they share, and demands the sequential results; run it
// under -race (make race) to see that a bound evaluator keeps no state.
func TestCompiledEvalConcurrent(t *testing.T) {
	const rows, workers = 500, 8
	for name, src := range workloadExprs {
		c := compileWorkload(t, src)
		want := make([]sqltypes.Value, rows)
		for i := range want {
			v, err := c.Eval(workloadRow(i))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = v
		}
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range want {
					i := (i + w*rows/workers) % rows
					if v, err := c.Eval(workloadRow(i)); err != nil || !sameValue(v, want[i]) {
						errs <- fmt.Sprintf("%s row %d on worker %d: %s, want %v", name, i, w, showResult(v, err), want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// BenchmarkEvalFF evaluates FF's projection, the whole iterative part of
// the friends-forecast query, over one row.
func BenchmarkEvalFF(b *testing.B) {
	c := compileWorkload(b, workloadExprs["ff"])
	row := workloadRow(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := c.Eval(row)
		if err != nil {
			b.Fatal(err)
		}
		evalSink = v
	}
}
