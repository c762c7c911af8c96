// Package expr compiles AST expressions into evaluators bound to a row
// layout, and implements the scalar and aggregate function library used
// by the paper's queries (LEAST, COALESCE, CEILING, ROUND, MOD, SUM,
// MIN, COUNT, ...).
//
// Compiling resolves everything but the row: operators and functions are
// bound to their kernels (kernels.go, funcs.go), and leaf operands are
// read in place (operands.go). An expression whose root is a FLOAT
// arithmetic tree of two operators or more — + - * /, CAST AS FLOAT,
// ROUND to literal digits, CEILING, FLOOR and the INT % or MOD, as in
// FF's ROUND(CAST((a / b) * a AS FLOAT), 5) and CEILING(a * (1.0 - ((g %
// 10) / 100.0))) — also gets a typed program that computes it as float64
// with no Value per node, and falls back to the generic evaluator on any
// row it cannot reproduce exactly (float.go). So does a comparison of
// two such trees with two operators or more in all, such as MOD(node, 2)
// = 0, for batches only. The program also runs over a batch of rows at a
// time, a loop over a column vector per step (batch.go): EvalBatch and
// SelectBatch, which the executor's batch form calls.
//
// Aggregate function calls are not compiled here: the planner extracts
// them into aggregate-output columns first (see internal/plan), so the
// compiler treats a remaining aggregate call as an error.
package expr

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// Binding describes one input column visible to an expression: the
// (lowercased) table alias it belongs to, its (lowercased) name, and
// its position and type in the input row.
type Binding struct {
	Table string
	Name  string
	Index int
	Type  sqltypes.Type
}

// Env is the name-resolution environment for compilation: the ordered
// list of visible columns, and the values a run bound to the
// statement's literal slots.
type Env struct {
	Cols []Binding
	// Params holds the bound value of every literal slot (slot s at
	// s-1): a literal with a slot compiles to the value bound to it. Nil
	// compiles each literal to its own value, which is how the program is
	// compiled while it is built and how a statement runs unprepared.
	Params []sqltypes.Value
}

// NewEnv builds an Env from a schema, attributing every column to the
// given table alias.
func NewEnv(table string, schema sqltypes.Schema) *Env {
	e := &Env{}
	e.Add(table, schema)
	return e
}

// Add appends a table's columns to the environment (used when joining:
// left columns first, then right).
func (e *Env) Add(table string, schema sqltypes.Schema) {
	base := len(e.Cols)
	lt := strings.ToLower(table)
	for i, c := range schema {
		e.Cols = append(e.Cols, Binding{
			Table: lt,
			Name:  strings.ToLower(c.Name),
			Index: base + i,
			Type:  c.Type,
		})
	}
}

// Resolve finds the unique column matching an optionally-qualified
// reference: the first match, unless a second one makes it ambiguous.
func (e *Env) Resolve(table, name string) (Binding, error) {
	found, n := Binding{}, 0
	for _, b := range e.Cols {
		if !lowerIs(name, b.Name) || (table != "" && !lowerIs(table, b.Table)) {
			continue
		}
		if n++; n > 1 {
			return Binding{}, fmt.Errorf("column reference %q is ambiguous", name)
		}
		found = b
	}
	if n == 0 {
		if table != "" {
			return Binding{}, fmt.Errorf("column %s.%s does not exist", table, name)
		}
		return Binding{}, fmt.Errorf("column %s does not exist", name)
	}
	return found, nil
}

// lowerIs reports whether strings.ToLower(s) == lower, allocating
// nothing where s is ASCII: the typed path (float.go) resolves its leaves
// a second time, and must cost an expression that takes no typed path no
// allocation.
func lowerIs(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return strings.ToLower(s) == lower
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if i >= len(lower) || c != lower[i] {
			return false
		}
	}
	return len(s) == len(lower)
}

// bound is the value a literal compiles to: the one the run bound to its
// slot, or its own.
func (e *Env) bound(t *ast.Literal) sqltypes.Value {
	slot, v := t.Param()
	if slot > 0 && e.Params != nil {
		v = e.Params[slot-1]
	}
	return v
}

// Compiled is an executable expression.
type Compiled struct {
	// Eval computes the expression over an input row.
	Eval func(row sqltypes.Row) (sqltypes.Value, error)
	// Type is the statically inferred result type.
	Type sqltypes.Type
	// Col is the input column a bare column reference reads, -1 for any
	// other expression — a literal too. Eval then returns row[Col], or
	// fails for a row too short for it, so a consumer may copy row[Col]
	// in place where Col < len(row) and call Eval otherwise.
	Col int
	// MaxCol is the highest input column the expression reads, -1 where it
	// reads none: Eval over a row agrees with Eval over any row that holds
	// the same first MaxCol+1 cells.
	MaxCol int

	// lit is the literal a literal compiled from, nil for any other
	// expression. Its Eval ignores the row, so an operator reads it once,
	// when it binds (literal).
	lit *ast.Literal
	// prog is the typed program of a FLOAT tree or a comparison (float.go),
	// nil where there is none: what EvalBatch and SelectBatch run over a
	// batch (batch.go).
	prog floatProg
}

// literal returns the value of a compiled literal; ok is false for any
// other expression.
func (c *Compiled) literal() (v sqltypes.Value, ok bool) {
	if c.lit == nil {
		return sqltypes.NullValue, false
	}
	return literalValue(c), true
}

// literalValue is the value an operator reads a literal operand as: the
// one its Eval returns, bound for the run. A variable only so the tests
// can seed the mutant that reads the literal as parsed instead; nothing
// else assigns it.
var literalValue = func(c *Compiled) sqltypes.Value {
	v, _ := c.Eval(nil)
	return v
}

// Condition checks that c can be the argument of clause (WHERE, ON,
// AND, ...): a VARCHAR cannot (sqltypes.Truth), and where its static
// type says so the compiler rejects it before it runs.
func Condition(c *Compiled, clause string) error {
	if c.Type == sqltypes.String {
		return fmt.Errorf("argument of %s must be BOOLEAN, not VARCHAR", clause)
	}
	return nil
}

// Holds evaluates c as a condition over row: whether it is TRUE
// (sqltypes.Truth).
func (c *Compiled) Holds(row sqltypes.Row) (bool, error) {
	v, err := c.Eval(row)
	if err != nil {
		return false, err
	}
	t, err := sqltypes.Truth(v)
	return t == sqltypes.TriTrue, err
}

// compileCondition compiles e as the argument of clause.
func compileCondition(e ast.Expr, env *Env, clause string) (*Compiled, error) {
	c, err := compileOperand(e, env)
	if err != nil {
		return nil, err
	}
	if err := Condition(c, clause); err != nil {
		return nil, err
	}
	return c, nil
}

// Compile binds an expression to the environment. Where e is a FLOAT
// arithmetic tree, its Eval tries the typed path first (float.go).
func Compile(e ast.Expr, env *Env) (*Compiled, error) {
	c, err := compileOperand(e, env)
	if err != nil {
		return nil, err
	}
	c.MaxCol = -1
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if ref, ok := x.(*ast.ColumnRef); ok {
			if b, err := env.Resolve(ref.Table, ref.Name); err == nil {
				c.MaxCol = max(c.MaxCol, b.Index)
			}
		}
		return true
	})
	return withFloat(c, e, env), nil
}

// compileOperand is Compile without the typed path: every operand
// compiles through it, so a row tries the typed path at the root alone.
func compileOperand(e ast.Expr, env *Env) (*Compiled, error) {
	c, err := compile(e, env)
	if err != nil {
		return nil, err
	}
	if _, bare := e.(*ast.ColumnRef); !bare {
		c.Col = -1
	}
	return c, nil
}

func compile(e ast.Expr, env *Env) (*Compiled, error) {
	switch t := e.(type) {
	case *ast.Literal:
		// A literal with a slot compiles to the value the run bound to the
		// slot. Compiling consumes nothing: a run compiles its plan with its
		// own values, so what a compiled expression makes of a literal —
		// ROUND's digits, an operator's literal operand — lasts one run.
		// Whatever evaluates one while the program is built must consume the
		// literals (FoldConstants).
		v := env.bound(t)
		return &Compiled{
			Eval: func(sqltypes.Row) (sqltypes.Value, error) { return v, nil },
			Type: t.Type(),
			lit:  t,
		}, nil

	case *ast.ColumnRef:
		b, err := env.Resolve(t.Table, t.Name)
		if err != nil {
			return nil, err
		}
		idx := b.Index
		return &Compiled{
			Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
				if idx >= len(row) {
					return sqltypes.NullValue, fmt.Errorf("row too short for column %s (index %d)", t.Name, idx)
				}
				return row[idx], nil
			},
			Type: b.Type,
			Col:  idx,
		}, nil

	case *ast.BinaryExpr:
		return compileBinary(t, env)

	case *ast.UnaryExpr:
		if t.Op == "NOT" {
			inner, err := compileCondition(t.E, env, "NOT")
			if err != nil {
				return nil, err
			}
			x := operandOf(inner)
			return &Compiled{
				Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
					v, ok := x.leaf(row)
					if !ok {
						var err error
						if v, err = x.eval(row); err != nil {
							return sqltypes.NullValue, err
						}
					}
					tv, err := sqltypes.Truth(v)
					if err != nil {
						return sqltypes.NullValue, err
					}
					return tv.Not().Value(), nil
				},
				Type: sqltypes.Bool,
			}, nil
		}
		inner, err := compileOperand(t.E, env)
		if err != nil {
			return nil, err
		}
		x := operandOf(inner)
		return &Compiled{
			Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
				v, ok := x.leaf(row)
				if !ok {
					var err error
					if v, err = x.eval(row); err != nil {
						return sqltypes.NullValue, err
					}
				}
				return sqltypes.Neg(v)
			},
			Type: inner.Type,
		}, nil

	case *ast.FuncCall:
		if ast.IsAggregateName(t.Name) {
			return nil, fmt.Errorf("aggregate %s is not allowed here", t.Name)
		}
		return compileScalarFunc(t, env)

	case *ast.CaseExpr:
		return compileCase(t, env)

	case *ast.CastExpr:
		inner, err := compileOperand(t.E, env)
		if err != nil {
			return nil, err
		}
		x, to := operandOf(inner), t.To
		return &Compiled{
			Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
				v, ok := x.leaf(row)
				if !ok {
					var err error
					if v, err = x.eval(row); err != nil {
						return sqltypes.NullValue, err
					}
				}
				if v.T == to {
					return v, nil // a value of the target type casts to itself
				}
				return sqltypes.Cast(v, to)
			},
			Type: to,
		}, nil

	case *ast.IsNullExpr:
		inner, err := compileOperand(t.E, env)
		if err != nil {
			return nil, err
		}
		x, neg := operandOf(inner), t.Negate
		return &Compiled{
			Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
				v, ok := x.leaf(row)
				if !ok {
					var err error
					if v, err = x.eval(row); err != nil {
						return sqltypes.NullValue, err
					}
				}
				return sqltypes.NewBool(v.IsNull() != neg), nil
			},
			Type: sqltypes.Bool,
		}, nil

	case *ast.InExpr:
		return compileIn(t, env)

	case *ast.BetweenExpr:
		lo := &ast.BinaryExpr{Op: ">=", L: t.E, R: t.Lo}
		hi := &ast.BinaryExpr{Op: "<=", L: ast.CloneExpr(t.E), R: t.Hi}
		var both ast.Expr = &ast.BinaryExpr{Op: "AND", L: lo, R: hi}
		if t.Negate {
			both = &ast.UnaryExpr{Op: "NOT", E: both}
		}
		return compileOperand(both, env)

	case *ast.Star:
		return nil, fmt.Errorf("* is only valid in a select list or COUNT(*)")
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func compileBinary(t *ast.BinaryExpr, env *Env) (*Compiled, error) {
	if t.Op == "AND" || t.Op == "OR" {
		return compileLogic(t, env)
	}
	l, err := compileOperand(t.L, env)
	if err != nil {
		return nil, err
	}
	r, err := compileOperand(t.R, env)
	if err != nil {
		return nil, err
	}
	k, ok := binaryKernels[t.Op]
	if !ok {
		return nil, fmt.Errorf("unsupported binary operator %q", t.Op)
	}
	typ := sqltypes.Bool
	if !k.predicate {
		typ = sqltypes.ResultType(l.Type, r.Type, t.Op)
	}
	return &Compiled{Eval: bindBinary(k.eval, l, r), Type: typ}, nil
}

// compileLogic compiles AND and OR, which short-circuit where
// three-valued logic allows, so they read their right operand
// themselves.
func compileLogic(t *ast.BinaryExpr, env *Env) (*Compiled, error) {
	l, err := compileCondition(t.L, env, t.Op)
	if err != nil {
		return nil, err
	}
	r, err := compileCondition(t.R, env, t.Op)
	if err != nil {
		return nil, err
	}
	x, y := operandOf(l), operandOf(r)
	// stop is the left truth that decides the result alone.
	and, stop := t.Op == "AND", sqltypes.TriTrue
	if and {
		stop = sqltypes.TriFalse
	}
	return &Compiled{
		Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, ok := x.leaf(row)
			if !ok {
				var err error
				if lv, err = x.eval(row); err != nil {
					return sqltypes.NullValue, err
				}
			}
			lt, err := sqltypes.Truth(lv)
			if err != nil {
				return sqltypes.NullValue, err
			}
			if lt == stop {
				return lt.Value(), nil
			}
			rv, ok := y.leaf(row)
			if !ok {
				var err error
				if rv, err = y.eval(row); err != nil {
					return sqltypes.NullValue, err
				}
			}
			rt, err := sqltypes.Truth(rv)
			if err != nil {
				return sqltypes.NullValue, err
			}
			if and {
				return lt.And(rt).Value(), nil
			}
			return lt.Or(rt).Value(), nil
		},
		Type: sqltypes.Bool,
	}, nil
}

func compileCase(t *ast.CaseExpr, env *Env) (*Compiled, error) {
	type arm struct {
		cond, res *Compiled
	}
	arms := make([]arm, len(t.Whens))
	resultType := sqltypes.Unknown
	for i, w := range t.Whens {
		c, err := compileCondition(w.Cond, env, "CASE WHEN")
		if err != nil {
			return nil, err
		}
		r, err := compileOperand(w.Result, env)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{c, r}
		resultType = mergeTypes(resultType, r.Type)
	}
	var els *Compiled
	if t.Else != nil {
		var err error
		els, err = compileOperand(t.Else, env)
		if err != nil {
			return nil, err
		}
		resultType = mergeTypes(resultType, els.Type)
	}
	return &Compiled{
		Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
			for _, a := range arms {
				cv, err := a.cond.Eval(row)
				if err != nil {
					return sqltypes.NullValue, err
				}
				ct, err := sqltypes.Truth(cv)
				if err != nil {
					return sqltypes.NullValue, err
				}
				if ct == sqltypes.TriTrue {
					return a.res.Eval(row)
				}
			}
			if els != nil {
				return els.Eval(row)
			}
			return sqltypes.NullValue, nil
		},
		Type: resultType,
	}, nil
}

func compileIn(t *ast.InExpr, env *Env) (*Compiled, error) {
	e, err := compileOperand(t.E, env)
	if err != nil {
		return nil, err
	}
	items := make([]*Compiled, len(t.List))
	for i, x := range t.List {
		c, err := compileOperand(x, env)
		if err != nil {
			return nil, err
		}
		items[i] = c
	}
	probe, list, neg := operandOf(e), operandsOf(items), t.Negate
	return &Compiled{
		Eval: func(row sqltypes.Row) (sqltypes.Value, error) {
			v, ok := probe.leaf(row)
			if !ok {
				var err error
				if v, err = probe.eval(row); err != nil {
					return sqltypes.NullValue, err
				}
			}
			if v.IsNull() {
				return sqltypes.NullValue, nil
			}
			sawNull := false
			for i := range list {
				iv, ok := list[i].leaf(row)
				if !ok {
					var err error
					if iv, err = list[i].eval(row); err != nil {
						return sqltypes.NullValue, err
					}
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if compare(v, iv) == 0 {
					return sqltypes.NewBool(!neg), nil
				}
			}
			if sawNull {
				// x IN (..., NULL) with no match is UNKNOWN.
				return sqltypes.NullValue, nil
			}
			return sqltypes.NewBool(neg), nil
		},
		Type: sqltypes.Bool,
	}, nil
}

// mergeTypes merges branch result types for CASE/COALESCE-style typing.
func mergeTypes(a, b sqltypes.Type) sqltypes.Type {
	switch {
	case a == sqltypes.Unknown || a == sqltypes.Null:
		return b
	case b == sqltypes.Unknown || b == sqltypes.Null:
		return a
	case a == b:
		return a
	case (a == sqltypes.Int && b == sqltypes.Float) || (a == sqltypes.Float && b == sqltypes.Int):
		return sqltypes.Float
	default:
		return a
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// char), case-sensitive, without regexp.
func likeMatch(s, pattern string) bool {
	// Classic two-pointer wildcard matching.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// InferType computes the static type of an expression without building
// an evaluator (used by the planner for schema inference where
// aggregates have already been replaced by column refs).
func InferType(e ast.Expr, env *Env) sqltypes.Type {
	c, err := compileOperand(e, env)
	if err != nil {
		return sqltypes.Unknown
	}
	return c.Type
}
