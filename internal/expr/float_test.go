package expr

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/parser"
	"dbspinner/internal/sqltypes"
)

// composedPool is kernelPool with INT/FLOAT mixes added: small INTs and
// FLOATs whose quotients are fractions (7/2 is 3 as INTs and 3.5 as
// FLOATs), FLOATs at 2^53 and 2^63 next to the INTs ±(2^53+1) and
// MaxInt64 they round to, a FLOAT that 10^digits overflows, a FLOAT +0
// and the least subnormal.
var composedPool = append(slices.Clone(kernelPool),
	sqltypes.NewInt(2), sqltypes.NewInt(-7), sqltypes.NewFloat(2.5), sqltypes.NewFloat(-3), sqltypes.NewFloat(0),
	sqltypes.NewFloat(1<<53), sqltypes.NewFloat(-(1 << 53)), sqltypes.NewFloat(0x1p63),
	sqltypes.NewFloat(1e300), sqltypes.NewFloat(5e-324))

// A composedShape is a FLOAT arithmetic tree of two operators or more
// over n leaves, or a condition over such trees, the shapes the typed
// path takes, with its reference. Its columns are declared FLOAT unless
// types says otherwise.
type composedShape struct {
	name  string
	n     int
	build func(leaf func(i int) ast.Expr) ast.Expr
	ref   func([]refArg) refArg
	types []sqltypes.Type
}

// refOp is the reference of op over two evaluated operands: the first
// one's error, or refBinary of their values.
func refOp(op string, x, y refArg) refArg {
	if x.err != nil {
		return x
	}
	if y.err != nil {
		return y
	}
	v, err := refBinary(op, x.v, y.v)
	return refArg{v, err}
}

func refCastFloat(x refArg) refArg {
	if x.err != nil {
		return x
	}
	v, err := refCast(x.v, sqltypes.Float)
	return refArg{v, err}
}

// composedShapes are (a op b) op c for every two of + - * /, CAST((a op
// b) AS FLOAT) and FF's ROUND(CAST((a / b) * a AS FLOAT), d) for digits
// that round, that overflow 10^digits and that underflow it.
func composedShapes() []composedShape {
	ops := []string{"+", "-", "*", "/"}
	var out []composedShape
	for _, op1 := range ops {
		for _, op2 := range ops {
			out = append(out, composedShape{fmt.Sprintf("(a %s b) %s c", op1, op2), 3,
				func(leaf func(int) ast.Expr) ast.Expr {
					return &ast.BinaryExpr{Op: op2, L: &ast.BinaryExpr{Op: op1, L: leaf(0), R: leaf(1)}, R: leaf(2)}
				},
				func(a []refArg) refArg { return refOp(op2, refOp(op1, a[0], a[1]), a[2]) }, nil})
		}
	}
	for _, op := range ops {
		out = append(out, composedShape{fmt.Sprintf("CAST((a %s b) AS FLOAT)", op), 2,
			func(leaf func(int) ast.Expr) ast.Expr {
				return &ast.CastExpr{E: &ast.BinaryExpr{Op: op, L: leaf(0), R: leaf(1)}, To: sqltypes.Float}
			},
			func(a []refArg) refArg { return refCastFloat(refOp(op, a[0], a[1])) }, nil})
	}
	for _, d := range []int64{-400, -1, 0, 2, 5, 10, 400} {
		out = append(out, composedShape{fmt.Sprintf("ROUND(CAST((a / b) * a AS FLOAT), %d)", d), 2,
			func(leaf func(int) ast.Expr) ast.Expr {
				x := &ast.BinaryExpr{Op: "*", L: &ast.BinaryExpr{Op: "/", L: leaf(0), R: leaf(1)}, R: leaf(0)}
				return &ast.FuncCall{Name: "ROUND", Args: []ast.Expr{
					&ast.CastExpr{E: x, To: sqltypes.Float}, ast.NewLiteral(sqltypes.NewInt(d))}}
			},
			func(a []refArg) refArg {
				x := refCastFloat(refOp("*", refOp("/", a[0], a[1]), a[0]))
				if x.err != nil {
					return x
				}
				v, err := refFuncs["ROUND"]([]sqltypes.Value{x.v, sqltypes.NewInt(d)})
				return refArg{v, err}
			}, nil})
	}
	ints := func(n int) []sqltypes.Type {
		ts := make([]sqltypes.Type, n)
		for i := range ts {
			ts[i] = sqltypes.Int
		}
		return ts
	}
	lit := func(v sqltypes.Value) ast.Expr { return ast.NewLiteral(v) }
	// FF's base term: CEILING(a * (1.0 - ((g % 10) / 100.0))), a the INT
	// COUNT(dst) and g the INT src.
	out = append(out, composedShape{"CEILING(a * (1.0 - ((g % 10) / 100.0)))", 2,
		func(leaf func(int) ast.Expr) ast.Expr {
			g := &ast.BinaryExpr{Op: "/", L: &ast.BinaryExpr{Op: "%", L: leaf(1), R: lit(sqltypes.NewInt(10))}, R: lit(sqltypes.NewFloat(100))}
			x := &ast.BinaryExpr{Op: "*", L: leaf(0), R: &ast.BinaryExpr{Op: "-", L: lit(sqltypes.NewFloat(1)), R: g}}
			return &ast.FuncCall{Name: "CEILING", Args: []ast.Expr{x}}
		},
		func(a []refArg) refArg {
			g := refOp("/", refOp("%", a[1], refArg{v: sqltypes.NewInt(10)}), refArg{v: sqltypes.NewFloat(100)})
			x := refOp("*", a[0], refOp("-", refArg{v: sqltypes.NewFloat(1)}, g))
			if x.err != nil {
				return x
			}
			v, err := refFuncs["CEILING"]([]sqltypes.Value{x.v})
			return refArg{v, err}
		}, ints(2)})
	// FLOOR over a % and a mix: FLOOR((x % k) * 1.5 - y).
	out = append(out, composedShape{"FLOOR((x % k) * 1.5 - y)", 3,
		func(leaf func(int) ast.Expr) ast.Expr {
			m := &ast.BinaryExpr{Op: "*", L: &ast.BinaryExpr{Op: "%", L: leaf(0), R: leaf(1)}, R: lit(sqltypes.NewFloat(1.5))}
			return &ast.FuncCall{Name: "FLOOR", Args: []ast.Expr{&ast.BinaryExpr{Op: "-", L: m, R: leaf(2)}}}
		},
		func(a []refArg) refArg {
			x := refOp("-", refOp("*", refOp("%", a[0], a[1]), refArg{v: sqltypes.NewFloat(1.5)}), a[2])
			if x.err != nil {
				return x
			}
			v, err := refFuncs["FLOOR"]([]sqltypes.Value{x.v})
			return refArg{v, err}
		}, []sqltypes.Type{sqltypes.Int, sqltypes.Int, sqltypes.Float}})
	// FF's pushed-down filter, MOD(x, k) = c, and a comparison of two
	// FLOAT trees.
	for _, op := range []string{"=", "!=", "<", ">="} {
		out = append(out, composedShape{fmt.Sprintf("MOD(x, k) %s c", op), 3,
			func(leaf func(int) ast.Expr) ast.Expr {
				return &ast.BinaryExpr{Op: op, L: &ast.FuncCall{Name: "MOD", Args: []ast.Expr{leaf(0), leaf(1)}}, R: leaf(2)}
			},
			func(a []refArg) refArg { return refOp(op, refOp("%", a[0], a[1]), a[2]) }, ints(3)})
	}
	out = append(out, composedShape{"a * b <= a + c", 3,
		func(leaf func(int) ast.Expr) ast.Expr {
			return &ast.BinaryExpr{Op: "<=", L: &ast.BinaryExpr{Op: "*", L: leaf(0), R: leaf(1)}, R: &ast.BinaryExpr{Op: "+", L: leaf(0), R: leaf(2)}}
		},
		func(a []refArg) refArg { return refOp("<=", refOp("*", a[0], a[1]), refOp("+", a[0], a[2])) }, nil})
	return out
}

// sweepComposed evaluates s over every n-tuple of composedPool with its
// leaves all columns, one a bound literal, or one a column past the end
// of the row, three ways: compiled (typed path attached), compiled
// through compileOperand (the generic evaluator alone) and by the
// reference. Tag, payload, float bits and error must agree. Its batch arm
// (batchArm) evaluates the compiled expression over the same rows in
// batches of up to BatchRows, so that each vector mixes INT, FLOAT, NULL
// and non-numeric cells, and requires the row path's value and error on
// every row. It returns the mismatches, the first few described, on how
// many rows the row program did not bail, and on how many the batch's did
// not. The columns are declared FLOAT whatever they hold, as FF's
// friends is declared INT and holds FLOATs, or as s.types says.
func sweepComposed(t *testing.T, s composedShape) (mismatches, typed, batchTyped int, first []string) {
	t.Helper()
	layouts := [][]placement{make([]placement, s.n)} // all columns
	for i := range s.n {
		for _, p := range []placement{asLiteral, asShort} {
			l := make([]placement, s.n)
			l[i] = p
			layouts = append(layouts, l)
		}
	}
	vals := make([]sqltypes.Value, s.n)
	for _, layout := range layouts {
		// The digit of a literal leaf changes slowest, so each of its
		// values compiles once; a short column reads no value, so it takes
		// only the first.
		order := make([]int, 0, s.n)
		for i, p := range layout {
			if p != asLiteral {
				order = append(order, i)
			}
		}
		if i := slices.Index(layout, asLiteral); i >= 0 {
			order = append(order, i)
		}
		var typedC, genericC *Compiled
		var prog floatProg
		var b Batch
		var batch []sqltypes.Row
		flush := func() {
			if len(batch) == 0 {
				return
			}
			m, n := batchArm(&b, typedC, batch)
			batchTyped += n
			if m != "" {
				mismatches++
				if len(first) < 5 {
					first = append(first, fmt.Sprintf("%s placed %v, batch arm: %s", s.name, layout, m))
				}
			}
			batch = batch[:0]
		}
		lastLit := -1
		for tuple := 0; tuple < pow(len(composedPool), s.n); tuple++ {
			skip, lit := false, 0
			for k, c := 0, tuple; k < s.n; k, c = k+1, c/len(composedPool) {
				i := order[k]
				vals[i] = composedPool[c%len(composedPool)]
				switch layout[i] {
				case asShort:
					skip = skip || c%len(composedPool) != 0
				case asLiteral:
					lit = c % len(composedPool)
				}
			}
			if skip {
				continue
			}
			refArgs := make([]refArg, s.n)
			for i := range vals {
				refArgs[i] = refArg{v: vals[i]}
				if layout[i] == asShort {
					refArgs[i].err = fmt.Errorf("row too short for column s%d (index %d)", i, s.n+i)
				}
			}
			if typedC == nil || lit != lastLit {
				flush()
				env := &Env{Params: slices.Clone(vals)}
				for _, prefix := range []string{"c", "s"} {
					for i := range vals {
						typ := sqltypes.Float
						if s.types != nil {
							typ = s.types[i]
						}
						env.Add("t", sqltypes.Schema{{Name: fmt.Sprintf("%s%d", prefix, i), Type: typ}})
					}
				}
				var err error
				e := s.build(func(i int) ast.Expr { return placed(vals[i], layout[i], i) })
				if typedC, err = Compile(e, env); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if genericC, err = compileOperand(e, env); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				prog = nil
				if p, _, ok := emitFloat(nil, e, env); ok {
					prog = p
				}
				lastLit = lit
			}
			row := sqltypes.Row(vals)
			if batch = append(batch, slices.Clone(row)); len(batch) == BatchRows {
				flush()
			}
			if prog != nil && !prog.cond() {
				if _, ok := prog.eval(row); ok {
					typed++
				}
			}
			got, gotErr := typedC.Eval(row)
			gen, genErr := genericC.Eval(row)
			want := s.ref(refArgs)
			if !sameResult(got, gotErr, want.v, want.err) || !sameResult(gen, genErr, want.v, want.err) {
				mismatches++
				if len(first) < 5 {
					first = append(first, fmt.Sprintf("%s over %v placed %v: typed %s, generic %s, reference %s",
						s.name, vals, layout, showResult(got, gotErr), showResult(gen, genErr), showResult(want.v, want.err)))
				}
			}
		}
		flush()
	}
	return mismatches, typed, batchTyped, first
}

// TestComposedMatchReference is the differential test of the typed path:
// every composed shape, over composedPool with INT and FLOAT leaves mixed
// as columns, bound literals and short columns, must give the generic
// evaluator's and the reference's value, float bits and error, row by
// row and inside a batch — and the typed program must have run, not
// bailed, on some rows of each: a FLOAT tree's row by row and in a batch,
// a condition's in a batch, the only place it runs.
func TestComposedMatchReference(t *testing.T) {
	for _, s := range composedShapes() {
		n, typed, batchTyped, first := sweepComposed(t, s)
		for _, f := range first {
			t.Error(f)
		}
		if n > len(first) {
			t.Errorf("... %d mismatches in all", n)
		}
		if typed == 0 && !strings.ContainsAny(s.name, "=<>") {
			t.Errorf("%s: the typed program bailed on every row", s.name)
		}
		if batchTyped == 0 {
			t.Errorf("%s: the typed program bailed on every row of every batch", s.name)
		}
	}
}

// TestFloatMutantsAreCaught seeds the two bails the typed / must not
// drop — INT/INT, which is integer division (7/2 would be 3.5), and a
// zero divisor, which fails (1.0/0.0 would be +Inf) — and requires the
// composed sweep to see each.
func TestFloatMutantsAreCaught(t *testing.T) {
	orig := floatKernels["/"]
	defer func() { floatKernels["/"] = orig }()
	for _, m := range []struct {
		name   string
		kernel floatKernel
	}{
		{"INT/INT as FLOAT", func(a, b float64, _ bool) (float64, bool) { return orig(a, b, false) }},
		{"no zero-divisor bail", func(a, b float64, ints bool) (float64, bool) { return a / b, !ints }},
	} {
		floatKernels["/"] = m.kernel
		caught := false
		for _, s := range composedShapes() {
			if n, _, _, first := sweepComposed(t, s); n > 0 {
				t.Logf("%s: fails %d cases of %s, e.g. %s", m.name, n, s.name, first[0])
				caught = true
				break
			}
		}
		if !caught {
			t.Errorf("a typed / with %s passed the composed sweep", m.name)
		}
	}
}

// TestTypedPathAllocation: Compile allocates nothing beyond
// compileOperand for an expression that takes no typed path — a FLOAT
// tree with a FLOAT % inside, an INT tree, one too long for a program, one
// over a column whose name has upper case — two objects, the program and
// the root's closure, for a FLOAT tree that does, a single operator too,
// and one, the program, for a condition that does, a comparison of two
// leaves too, whose Eval is unchanged.
func TestTypedPathAllocation(t *testing.T) {
	for src, extra := range map[string]float64{
		"0.85 * x":                            2,
		"delta + x":                           2,
		"distance * (1.0 - (x % 10) / 100.0)": 0,
		"distance * (1.0 - (delta % 10) / 100.0)": 2,
		"delta != 9999999":                        1,
		"MOD(distance, 2) = 0":                    1,
		"(delta + 1) * distance":                  0,
		"friendsPrev * friendsPrev":               2,
		"x + x + x + x + x + x + x + x + x":       0,
		"x + x + x + x + x + x + x + x":           2,
		workloadExprs["ff"]:                       2,
		shapeExprs["typed root"]:                  2,
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		env := NewEnv("t", workloadSchema)
		allocs := func(compile func(ast.Expr, *Env) (*Compiled, error)) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := compile(e, env); err != nil {
					t.Fatal(err)
				}
			})
		}
		if got := allocs(Compile) - allocs(compileOperand); got != extra {
			t.Errorf("%s: the typed path costs %.0f allocations, want %.0f", src, got, extra)
		}
	}
}
