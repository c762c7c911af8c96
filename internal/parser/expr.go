package parser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/lexer"
	"dbspinner/internal/sqltypes"
)

// Expression grammar, lowest to highest precedence:
//
//	expr    := orExpr
//	orExpr  := andExpr { OR andExpr }
//	andExpr := notExpr { AND notExpr }
//	notExpr := NOT notExpr | predicate
//	predicate := addExpr [ cmpOp addExpr
//	            | IS [NOT] NULL
//	            | [NOT] IN ( list )
//	            | [NOT] BETWEEN addExpr AND addExpr
//	            | [NOT] LIKE addExpr ]
//	addExpr := mulExpr { (+|-|'||') mulExpr }
//	mulExpr := unary { (*|/|%) unary }
//	unary   := - unary | primary
//	primary := literal | column | func(...) | CASE | CAST | ( expr )

func (p *Parser) parseExpr() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (ast.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("IS") {
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &ast.IsNullExpr{E: left, Negate: neg}, nil
	}
	// [NOT] IN / BETWEEN / LIKE
	neg := false
	if p.peekKw("NOT") && (p.peekAt(1).Kind == lexer.Keyword &&
		(p.peekAt(1).Text == "IN" || p.peekAt(1).Text == "BETWEEN" || p.peekAt(1).Text == "LIKE")) {
		p.next()
		neg = true
	}
	switch {
	case p.acceptKw("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []ast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &ast.InExpr{E: left, List: list, Negate: neg}, nil
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &ast.BetweenExpr{E: left, Lo: lo, Hi: hi, Negate: neg}, nil
	case p.acceptKw("LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		e := ast.Expr(&ast.BinaryExpr{Op: "LIKE", L: left, R: pat})
		if neg {
			e = &ast.UnaryExpr{Op: "NOT", E: e}
		}
		return e, nil
	}
	if neg {
		return nil, p.errHere("dangling NOT")
	}
	// Comparison operators.
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.acceptOp(op) {
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &ast.BinaryExpr{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseAdd() (ast.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("+"):
			op = "+"
		case p.acceptOp("-"):
			op = "-"
		case p.acceptOp("||"):
			op = "||"
		default:
			return left, nil
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMul() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	if p.acceptOp("-") {
		if t := p.peek(); t.Kind == lexer.IntLit {
			// -9223372036854775808 is an INT although its magnitude is not.
			if i, err := strconv.ParseInt("-"+t.Text, 10, 64); err == nil && i == math.MinInt64 {
				p.next()
				p.uses.Consume(p.lastSlot())
				return ast.NewLiteral(sqltypes.NewInt(i)), nil
			}
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals for cleaner plans.
		if l, ok := e.(*ast.Literal); ok {
			if v, err := sqltypes.Neg(l.Value()); err == nil {
				return ast.NewLiteral(v), nil
			}
		}
		return &ast.UnaryExpr{Op: "-", E: e}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

// LiteralValue is the value of a literal token (lexer.Token.IsLiteral)
// as the parser reads it.
func LiteralValue(t lexer.Token) (sqltypes.Value, error) {
	switch t.Kind {
	case lexer.IntLit:
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return sqltypes.NullValue, fmt.Errorf("bad integer literal %q", t.Text)
		}
		return sqltypes.NewInt(i), nil
	case lexer.FloatLit:
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return sqltypes.NullValue, fmt.Errorf("bad float literal %q", t.Text)
		}
		return sqltypes.NewFloat(f), nil
	case lexer.StringLit:
		return sqltypes.NewString(t.Text), nil
	}
	switch t.Text {
	case "TRUE":
		return sqltypes.NewBool(true), nil
	case "FALSE":
		return sqltypes.NewBool(false), nil
	}
	return sqltypes.NullValue, nil
}

func (p *Parser) parsePrimary() (ast.Expr, error) {
	t := p.peek()
	if t.IsLiteral() {
		p.next()
		v, err := LiteralValue(t)
		if err != nil {
			return nil, err
		}
		return ast.NewSlotLiteral(v, p.lastSlot(), p.uses), nil
	}
	switch t.Kind {
	case lexer.Keyword:
		switch t.Text {
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		}
		// Some keywords double as function names or identifiers (e.g.
		// LEFT(s, n) is out of scope, but KEY/DELTA as column names are
		// needed by Algorithm 1's merge queries).
		if identKeywords[t.Text] {
			return p.parseNameExpr()
		}
		return nil, p.errHere("unexpected keyword %s in expression", t.Text)
	case lexer.Ident:
		return p.parseNameExpr()
	case lexer.Op:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errHere("unexpected token in expression")
}

// parseNameExpr handles identifiers: column refs (possibly qualified)
// and function calls.
func (p *Parser) parseNameExpr() (ast.Expr, error) {
	pos := p.peek().Pos
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Function call?
	if p.peekOp("(") {
		return p.parseFuncCall(name, pos)
	}
	// Qualified column?
	if p.acceptOp(".") {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.ColumnRef{Table: name, Name: col, Pos: pos}, nil
	}
	return &ast.ColumnRef{Name: name, Pos: pos}, nil
}

func (p *Parser) parseFuncCall(name string, pos int) (ast.Expr, error) {
	upper := strings.ToUpper(name)
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &ast.FuncCall{Name: upper, Pos: pos}
	if p.acceptOp("*") {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptOp(")") {
		return f, nil
	}
	if p.acceptKw("DISTINCT") {
		f.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &ast.CaseExpr{}
	// Simple CASE (CASE expr WHEN v THEN r ...) desugars to searched
	// CASE with equality conditions.
	var operand ast.Expr
	if !p.peekKw("WHEN") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		operand = e
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = &ast.BinaryExpr{Op: "=", L: ast.CloneExpr(operand), R: cond}
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.WhenClause{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errHere("CASE requires at least one WHEN")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (ast.Expr, error) {
	if err := p.expectKw("CAST"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	tt := p.next()
	if tt.Kind != lexer.Ident && tt.Kind != lexer.Keyword {
		return nil, p.errHere("expected type name in CAST")
	}
	typ, err := sqltypes.ParseType(tt.Text)
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &ast.CastExpr{E: e, To: typ}, nil
}
