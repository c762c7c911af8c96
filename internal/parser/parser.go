// Package parser implements a hand-written recursive-descent SQL parser
// covering the dialect used by the paper: SELECT with joins, grouping,
// set operations and subqueries; DDL and DML; and regular, recursive and
// iterative common table expressions with the ITERATE ... UNTIL grammar
// proposed in SQLoop and implemented by DBSpinner.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/lexer"
	"dbspinner/internal/sqltypes"
)

// Parser consumes a token stream.
type Parser struct {
	toks []lexer.Token
	pos  int
	src  string
	// slots numbers the literal tokens (lexer.Token.IsLiteral) from 1 in
	// the order lexer.Shape lists them, 0 for every other token; uses
	// records which of them planning reads.
	slots []int
	uses  *ast.Uses
}

func newParser(toks []lexer.Token, src string) *Parser {
	p := &Parser{toks: toks, src: src, slots: make([]int, len(toks))}
	n := 0
	for i, t := range toks {
		if t.IsLiteral() {
			n++
			p.slots[i] = n
		}
	}
	p.uses = ast.NewUses(n)
	return p
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (ast.Statement, error) {
	stmt, _, err := ParseUses(src)
	return stmt, err
}

// ParseUses is Parse that also returns the record of the statement's
// literal slots: after the statement is planned it says which literal
// values the plan depends on.
func ParseUses(src string) (ast.Statement, *ast.Uses, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, nil, err
	}
	p := newParser(toks, src)
	stmts, err := p.parseAll()
	if err != nil {
		return nil, nil, err
	}
	if len(stmts) != 1 {
		return nil, nil, fmt.Errorf("expected a single statement, got %d", len(stmts))
	}
	return stmts[0], p.uses, nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(src string) ([]ast.Statement, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return newParser(toks, src).parseAll()
}

func (p *Parser) parseAll() ([]ast.Statement, error) {
	var out []ast.Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().Kind == lexer.EOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.acceptOp(";") && p.peek().Kind != lexer.EOF {
			return nil, p.errHere("expected ';' or end of input")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty statement")
	}
	return out, nil
}

// ParseExpr parses a standalone scalar expression (used by termination
// conditions supplied programmatically and by tests).
func ParseExpr(src string) (ast.Expr, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := newParser(toks, src)
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != lexer.EOF {
		return nil, p.errHere("unexpected trailing input after expression")
	}
	return e, nil
}

// --- token helpers ----------------------------------------------------

func (p *Parser) peek() lexer.Token { return p.toks[p.pos] }

func (p *Parser) peekAt(n int) lexer.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind != lexer.EOF {
		p.pos++
	}
	return t
}

// lastSlot is the literal slot of the token next returned (0 when it is
// not a literal).
func (p *Parser) lastSlot() int { return p.slots[p.pos-1] }

func (p *Parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.Kind == lexer.Keyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) peekKw(kw string) bool {
	t := p.peek()
	return t.Kind == lexer.Keyword && t.Text == kw
}

func (p *Parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errHere("expected %s", kw)
	}
	return nil
}

func (p *Parser) acceptOp(op string) bool {
	t := p.peek()
	if t.Kind == lexer.Op && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) peekOp(op string) bool {
	t := p.peek()
	return t.Kind == lexer.Op && t.Text == op
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errHere("expected %q", op)
	}
	return nil
}

// ident accepts an identifier or a non-reserved keyword usable as a
// name (e.g. KEY, DELTA appear as column names in the paper's queries).
var identKeywords = map[string]bool{
	"KEY": true, "DELTA": true, "VALUES": true, "ANY": true, "ALL": true,
	"UPDATES": true, "ITERATIONS": true, "ITERATION": true, "SET": true,
	"TEMP": true, "TEMPORARY": true,
}

func (p *Parser) ident() (string, error) {
	t := p.peek()
	if t.Kind == lexer.Ident {
		p.pos++
		return t.Text, nil
	}
	if t.Kind == lexer.Keyword && identKeywords[t.Text] {
		p.pos++
		return strings.ToLower(t.Text), nil
	}
	return "", p.errHere("expected identifier")
}

func (p *Parser) errHere(format string, args ...interface{}) error {
	t := p.peek()
	loc := fmt.Sprintf("offset %d", t.Pos)
	what := t.Text
	if t.Kind == lexer.EOF {
		what = "end of input"
	}
	return fmt.Errorf("%s at %s (near %q)", fmt.Sprintf(format, args...), loc, what)
}

// --- statements -------------------------------------------------------

func (p *Parser) parseStatement() (ast.Statement, error) {
	t := p.peek()
	if t.Kind == lexer.Op && t.Text == "(" {
		// A statement may begin with a parenthesized SELECT body.
		return p.parseSelectStmt()
	}
	if t.Kind != lexer.Keyword {
		return nil, p.errHere("expected a statement keyword")
	}
	switch t.Text {
	case "SELECT", "WITH":
		return p.parseSelectStmt()
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "TRUNCATE":
		p.next()
		p.acceptKw("TABLE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.Delete{Table: name}, nil
	case "EXPLAIN":
		p.next()
		// ANALYZE is not a reserved word (it stays usable as an
		// identifier); accept it positionally after EXPLAIN.
		analyze := false
		if n := p.peek(); n.Kind == lexer.Ident && strings.EqualFold(n.Text, "ANALYZE") {
			p.pos++
			analyze = true
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ast.Explain{Stmt: inner, Analyze: analyze}, nil
	}
	return nil, p.errHere("unsupported statement %s", t.Text)
}

// parseSelectStmt parses [WITH ...] select-body [ORDER BY ...] [LIMIT n].
func (p *Parser) parseSelectStmt() (*ast.SelectStmt, error) {
	stmt := &ast.SelectStmt{}
	if p.peekKw("WITH") {
		w, err := p.parseWithClause()
		if err != nil {
			return nil, err
		}
		stmt.With = w
	}
	body, err := p.parseSelectBody()
	if err != nil {
		return nil, err
	}
	stmt.Body = body
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Limit = e
	}
	if p.acceptKw("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Offset = e
	}
	return stmt, nil
}

func (p *Parser) parseWithClause() (*ast.WithClause, error) {
	if err := p.expectKw("WITH"); err != nil {
		return nil, err
	}
	w := &ast.WithClause{}
	iterative := false
	if p.acceptKw("RECURSIVE") {
		w.Recursive = true
	} else if p.acceptKw("ITERATIVE") {
		iterative = true
	}
	for {
		cte, err := p.parseCTE(iterative)
		if err != nil {
			return nil, err
		}
		w.CTEs = append(w.CTEs, cte)
		if !p.acceptOp(",") {
			break
		}
		// Subsequent CTEs in a WITH ITERATIVE list may themselves be
		// iterative (they contain ITERATE) or plain; parseCTE detects
		// which form the body takes.
	}
	return w, nil
}

func (p *Parser) parseCTE(iterative bool) (*ast.CTE, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cte := &ast.CTE{Name: name}
	if p.acceptOp("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			cte.Cols = append(cte.Cols, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	first, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	if p.peekKw("ITERATE") {
		if !iterative {
			return nil, p.errHere("ITERATE requires WITH ITERATIVE")
		}
		p.next()
		cte.Iterative = true
		cte.Init = first
		iter, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		cte.Iter = iter
		if err := p.expectKw("UNTIL"); err != nil {
			return nil, err
		}
		tc, err := p.parseTermination()
		if err != nil {
			return nil, err
		}
		cte.Until = tc
	} else {
		// A CTE without ITERATE inside a WITH ITERATIVE list is a
		// plain CTE; the keyword only enables the extended grammar.
		cte.Select = first
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return cte, nil
}

// parseTermination parses the UNTIL clause:
//
//	UNTIL <n> ITERATIONS | UNTIL <n> UPDATES
//	UNTIL ANY (<expr>)   | UNTIL ALL (<expr>)
//	UNTIL DELTA < <n>
func (p *Parser) parseTermination() (ast.Termination, error) {
	var tc ast.Termination
	t := p.peek()
	switch {
	case t.Kind == lexer.IntLit:
		p.next()
		p.uses.Consume(p.lastSlot()) // the count is part of the loop operator
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return tc, fmt.Errorf("bad iteration count %q: %v", t.Text, err)
		}
		if n <= 0 {
			return tc, fmt.Errorf("iteration count must be positive, got %d", n)
		}
		tc.Type = ast.TermMetadata
		tc.N = n
		switch {
		case p.acceptKw("ITERATIONS"), p.acceptKw("ITERATION"):
		case p.acceptKw("UPDATES"):
			tc.CountUpdates = true
		default:
			return tc, p.errHere("expected ITERATIONS or UPDATES")
		}
		return tc, nil
	case t.Kind == lexer.Keyword && (t.Text == "ANY" || t.Text == "ALL"):
		p.next()
		tc.Type = ast.TermData
		tc.Any = t.Text == "ANY"
		if err := p.expectOp("("); err != nil {
			return tc, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return tc, err
		}
		if err := p.expectOp(")"); err != nil {
			return tc, err
		}
		tc.Expr = e
		return tc, nil
	case t.Kind == lexer.Keyword && t.Text == "DELTA":
		p.next()
		tc.Type = ast.TermDelta
		if err := p.expectOp("<"); err != nil {
			return tc, err
		}
		nt := p.next()
		if nt.Kind != lexer.IntLit {
			return tc, fmt.Errorf("expected integer after DELTA <, got %q", nt.Text)
		}
		p.uses.Consume(p.lastSlot())
		n, err := strconv.ParseInt(nt.Text, 10, 64)
		if err != nil || n <= 0 {
			return tc, fmt.Errorf("DELTA threshold must be a positive integer")
		}
		tc.N = n
		return tc, nil
	}
	return tc, p.errHere("expected termination condition")
}

// parseSelectBody parses a select core optionally combined with UNION.
// UNION is left-associative.
func (p *Parser) parseSelectBody() (ast.SelectBody, error) {
	left, err := p.parseSelectCoreOrParen()
	if err != nil {
		return nil, err
	}
	for p.peekKw("UNION") {
		p.next()
		all := p.acceptKw("ALL")
		right, err := p.parseSelectCoreOrParen()
		if err != nil {
			return nil, err
		}
		left = &ast.UnionExpr{Left: left, Right: right, All: all}
	}
	return left, nil
}

func (p *Parser) parseSelectCoreOrParen() (ast.SelectBody, error) {
	if p.peekOp("(") && p.peekAt(1).Kind == lexer.Keyword &&
		(p.peekAt(1).Text == "SELECT" || p.peekAt(1).Text == "WITH") {
		p.next() // (
		body, err := p.parseSelectBody()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return body, nil
	}
	return p.parseSelectCore()
}

func (p *Parser) parseSelectCore() (*ast.SelectCore, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	core := &ast.SelectCore{}
	if p.acceptKw("DISTINCT") {
		core.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		core.From = from
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	return core, nil
}

func (p *Parser) parseSelectItem() (ast.SelectItem, error) {
	// "*" or "t.*"
	if p.peekOp("*") {
		p.next()
		return ast.SelectItem{Expr: &ast.Star{}}, nil
	}
	if p.peek().Kind == lexer.Ident && p.peekAt(1).Kind == lexer.Op && p.peekAt(1).Text == "." &&
		p.peekAt(2).Kind == lexer.Op && p.peekAt(2).Text == "*" {
		tbl := p.next().Text
		p.next() // .
		p.next() // *
		return ast.SelectItem{Expr: &ast.Star{Table: tbl}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.acceptKw("AS") {
		alias, err := p.ident()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	} else if p.peek().Kind == lexer.Ident {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseFrom parses the FROM clause: comma-separated refs become cross
// joins; JOIN chains are left-associative.
func (p *Parser) parseFrom() (ast.TableRef, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	for p.acceptOp(",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &ast.JoinRef{Type: ast.CrossJoin, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseJoinChain() (ast.TableRef, error) {
	left, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var jt ast.JoinType
		switch {
		case p.peekKw("JOIN") || p.peekKw("INNER"):
			p.acceptKw("INNER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = ast.InnerJoin
		case p.peekKw("LEFT"):
			p.next()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = ast.LeftJoin
		case p.peekKw("RIGHT"):
			p.next()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = ast.RightJoin
		case p.peekKw("FULL"):
			p.next()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = ast.FullJoin
		case p.peekKw("CROSS"):
			p.next()
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			jt = ast.CrossJoin
		default:
			return left, nil
		}
		right, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		j := &ast.JoinRef{Type: jt, Left: left, Right: right}
		if jt != ast.CrossJoin {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *Parser) parseTableRef() (ast.TableRef, error) {
	if p.acceptOp("(") {
		sel, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ref := &ast.SubqueryRef{Select: sel}
		if p.acceptKw("AS") {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			ref.Alias = a
		} else if p.peek().Kind == lexer.Ident {
			ref.Alias = p.next().Text
		}
		return ref, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ref := &ast.BaseTable{Name: name}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref.Alias = a
	} else if p.peek().Kind == lexer.Ident {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// --- DDL / DML --------------------------------------------------------

func (p *Parser) parseCreateTable() (ast.Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	ct := &ast.CreateTable{}
	if p.acceptKw("TEMP") || p.acceptKw("TEMPORARY") {
		ct.Temp = true
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		typTok := p.next()
		if typTok.Kind != lexer.Ident && typTok.Kind != lexer.Keyword {
			return nil, fmt.Errorf("expected type name for column %s", colName)
		}
		typ, err := sqltypes.ParseType(typTok.Text)
		if err != nil {
			return nil, err
		}
		def := ast.ColumnDef{Name: colName, Type: typ}
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			def.PrimaryKey = true
		}
		ct.Cols = append(ct.Cols, def)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseDropTable() (ast.Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	dt := &ast.DropTable{}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *Parser) parseInsert() (ast.Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: name}
	if p.acceptOp("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("VALUES") {
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.acceptOp(",") {
				break
			}
		}
		return ins, nil
	}
	sel, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	ins.Select = sel
	return ins, nil
}

func (p *Parser) parseUpdate() (ast.Statement, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	u := &ast.Update{Table: name}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		u.Alias = a
	} else if p.peek().Kind == lexer.Ident {
		u.Alias = p.next().Text
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, ast.Assignment{Col: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		u.From = from
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	return u, nil
}

func (p *Parser) parseDelete() (ast.Statement, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &ast.Delete{Table: name}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}
