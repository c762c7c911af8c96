package parser

import (
	"math/rand"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// randExpr builds a random expression tree of bounded depth using the
// constructs the engine supports.
func randExpr(rng *rand.Rand, depth int) ast.Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return ast.NewLiteral(sqltypes.NewInt(int64(rng.Intn(100))))
		case 1:
			return ast.NewLiteral(sqltypes.NewFloat(float64(rng.Intn(100)) / 4))
		case 2:
			return &ast.ColumnRef{Name: "c" + string(rune('a'+rng.Intn(4)))}
		default:
			return &ast.ColumnRef{Table: "t", Name: "c" + string(rune('a'+rng.Intn(4)))}
		}
	}
	switch rng.Intn(9) {
	case 0:
		ops := []string{"+", "-", "*", "/", "%"}
		return &ast.BinaryExpr{Op: ops[rng.Intn(len(ops))], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 1:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		return &ast.BinaryExpr{Op: ops[rng.Intn(len(ops))], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 2:
		ops := []string{"AND", "OR"}
		return &ast.BinaryExpr{Op: ops[rng.Intn(2)], L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 3:
		return &ast.UnaryExpr{Op: "NOT", E: randExpr(rng, depth-1)}
	case 4:
		fns := []string{"ABS", "CEILING", "ROUND", "COALESCE", "LEAST"}
		return &ast.FuncCall{Name: fns[rng.Intn(len(fns))], Args: []ast.Expr{randExpr(rng, depth-1)}}
	case 5:
		return &ast.CaseExpr{
			Whens: []ast.WhenClause{{Cond: randExpr(rng, depth-1), Result: randExpr(rng, depth-1)}},
			Else:  randExpr(rng, depth-1),
		}
	case 6:
		return &ast.CastExpr{E: randExpr(rng, depth-1), To: sqltypes.Float}
	case 7:
		return &ast.IsNullExpr{E: randExpr(rng, depth-1), Negate: rng.Intn(2) == 0}
	default:
		return &ast.InExpr{E: randExpr(rng, depth-1),
			List:   []ast.Expr{randExpr(rng, depth-1), randExpr(rng, depth-1)},
			Negate: rng.Intn(2) == 0}
	}
}

// TestExprRoundTripProperty checks that printing any generated
// expression and re-parsing it is a fixed point: parse(print(e))
// prints identically.
func TestExprRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		e := randExpr(rng, 1+rng.Intn(4))
		printed := e.String()
		parsed, err := ParseExpr(printed)
		if err != nil {
			t.Fatalf("trial %d: re-parse of %q failed: %v", trial, printed, err)
		}
		if parsed.String() != printed {
			t.Fatalf("trial %d: round trip not a fixed point:\n first: %s\nsecond: %s",
				trial, printed, parsed.String())
		}
	}
}

// TestStatementRoundTripProperty builds random single-table SELECTs and
// round-trips them through the printer.
func TestStatementRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		sel := &ast.SelectStmt{Body: &ast.SelectCore{
			Items: []ast.SelectItem{
				{Expr: randExpr(rng, 2)},
				{Expr: randExpr(rng, 1), Alias: "x"},
			},
			From:  &ast.BaseTable{Name: "t"},
			Where: randExpr(rng, 2),
		}}
		printed := sel.String()
		parsed, err := Parse(printed)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, printed)
		}
		if parsed.String() != printed {
			t.Fatalf("trial %d:\n first: %s\nsecond: %s", trial, printed, parsed.String())
		}
	}
}

// TestParserNeverPanics feeds mutated fragments of valid queries to the
// parser; errors are fine, panics are not.
func TestParserNeverPanics(t *testing.T) {
	base := PRQuery + SSSPQuery + FFQuery
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		// Take a random slice and splice random bytes in.
		start := rng.Intn(len(base))
		end := start + rng.Intn(len(base)-start)
		frag := []byte(base[start:end])
		for i := 0; i < 3 && len(frag) > 0; i++ {
			frag[rng.Intn(len(frag))] = byte("(),;*'abON "[rng.Intn(11)])
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", frag, r)
				}
			}()
			_, _ = Parse(string(frag))
			_, _ = ParseAll(string(frag))
		}()
	}
}
