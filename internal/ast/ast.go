// Package ast defines the abstract syntax tree produced by the parser.
// Every node can print itself back to SQL via String(), which the tests
// use for round-trip checks and EXPLAIN uses for readable predicates.
package ast

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dbspinner/internal/sqltypes"
)

// Statement is any top-level SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is any scalar expression.
type Expr interface {
	expr()
	String() string
}

// TableRef is a FROM-clause item: a base table, a derived table or a
// join of two other refs.
type TableRef interface {
	tableRef()
	String() string
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

// ColumnRef is a possibly-qualified column reference (table.col or col).
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
	// Pos is the byte offset of the reference in the source query,
	// recorded by the parser for diagnostics (evidence chains cite it).
	// 0 means unknown (hand-built AST).
	Pos int
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Literal is a constant value. A literal the parser read from a token
// also carries Slot, the token's 1-based position among the statement's
// literal tokens (0 for a literal made any other way), and the
// statement's Uses.
//
// The value is read through Value, which records the slot as consumed:
// whatever decides something from a literal while the program is built
// — folding, an ORDER BY position, a printed key — reads it that way,
// and a prepared statement then keys on that literal's value. Only the
// readers that take the value through the slot when the statement runs
// (expr.Compile given bound values, a LIMIT count) use Param instead.
type Literal struct {
	value sqltypes.Value
	Slot  int
	uses  *Uses
}

// NewLiteral returns a literal with no slot.
func NewLiteral(v sqltypes.Value) *Literal { return &Literal{value: v} }

// NewSlotLiteral returns the literal the parser read from the literal
// token in slot, recording its reads in uses.
func NewSlotLiteral(v sqltypes.Value, slot int, uses *Uses) *Literal {
	return &Literal{value: v, Slot: slot, uses: uses}
}

// Value returns the literal's value and records its slot as consumed.
func (l *Literal) Value() sqltypes.Value {
	l.uses.Consume(l.Slot)
	return l.value
}

// Type returns the literal's type, which the statement's shape fixes,
// so reading it consumes nothing.
func (l *Literal) Type() sqltypes.Type { return l.value.T }

// Param returns the literal's slot and its value as parsed, consuming
// nothing. It is for a reader that, when a run binds the statement's
// literal values, reads the value bound to the slot instead: the parsed
// value is then only that of the text the statement was prepared from.
func (l *Literal) Param() (slot int, v sqltypes.Value) { return l.Slot, l.value }

func (*Literal) expr() {}

// String prints the literal: while a run shows its bound values
// (Uses.Show), the value bound to its slot.
func (l *Literal) String() string {
	v := l.Value()
	if l.Slot > 0 && l.uses != nil && l.uses.shown != nil {
		v = l.uses.shown[l.Slot-1]
	}
	switch v.T {
	case sqltypes.String:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case sqltypes.Float:
		// Keep a decimal point so the literal re-parses as FLOAT (the
		// FF query depends on 1.0 staying a float to avoid integer
		// division).
		s := v.String()
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// Uses records, for one parsed statement, which of its literal slots
// something read the value of while the statement was planned: the
// consumed slots. Safe for concurrent use, except Show; a nil *Uses
// records nothing.
type Uses struct {
	consumed []atomic.Bool
	shown    []sqltypes.Value
}

// NewUses returns the record of a statement with n literal tokens.
func NewUses(n int) *Uses { return &Uses{consumed: make([]atomic.Bool, n)} }

// Consume records slot as consumed; slot 0 (no slot) is ignored.
func (u *Uses) Consume(slot int) {
	if u != nil && slot > 0 {
		u.consumed[slot-1].Store(true)
	}
}

// Show makes the statement's literals print as params, the values a run
// of another text with the statement's shape bound to their slots, so
// what the run prints of its plan — the step a failure names — shows
// the text being run; nil prints them as parsed. It must not be called
// while anything may print the statement.
func (u *Uses) Show(params []sqltypes.Value) { u.shown = params }

// Consumed lists the consumed slots, 1-based and ascending.
func (u *Uses) Consumed() []int {
	if u == nil {
		return nil
	}
	var out []int
	for i := range u.consumed {
		if u.consumed[i].Load() {
			out = append(out, i+1)
		}
	}
	return out
}

// BinaryExpr is a binary operation. Op is one of + - * / % = != < <= >
// >= AND OR ||.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) expr() {}

func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (*UnaryExpr) expr() {}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", u.E)
	}
	return fmt.Sprintf("(-%s)", u.E)
}

// FuncCall is a function invocation: scalar (LEAST, COALESCE, ROUND, …)
// or aggregate (SUM, COUNT, MIN, MAX, AVG). Star marks COUNT(*).
type FuncCall struct {
	Name     string // uppercase
	Args     []Expr
	Star     bool
	Distinct bool
	// Pos is the byte offset of the call in the source query (0 =
	// unknown), kept for diagnostic provenance like ColumnRef.Pos.
	Pos int
}

func (*FuncCall) expr() {}

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // may be nil (implicit NULL)
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

func (*CaseExpr) expr() {}

func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	E  Expr
	To sqltypes.Type
}

func (*CastExpr) expr() {}

func (c *CastExpr) String() string {
	return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To)
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	E      Expr
	Negate bool
}

func (*IsNullExpr) expr() {}

func (i *IsNullExpr) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// InExpr is expr [NOT] IN (list...).
type InExpr struct {
	E      Expr
	List   []Expr
	Negate bool
}

func (*InExpr) expr() {}

func (i *InExpr) String() string {
	items := make([]string, len(i.List))
	for j, e := range i.List {
		items[j] = e.String()
	}
	op := "IN"
	if i.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", i.E, op, strings.Join(items, ", "))
}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Negate    bool
}

func (*BetweenExpr) expr() {}

func (b *BetweenExpr) String() string {
	op := "BETWEEN"
	if b.Negate {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("(%s %s %s AND %s)", b.E, op, b.Lo, b.Hi)
}

// Star is the bare * in a select list ("SELECT *" or "SELECT t.*").
type Star struct {
	Table string // optional qualifier
}

func (*Star) expr() {}

func (s *Star) String() string {
	if s.Table != "" {
		return s.Table + ".*"
	}
	return "*"
}

// ---------------------------------------------------------------------
// SELECT structure
// ---------------------------------------------------------------------

// SelectStmt is a full query: optional WITH clause, a body (possibly a
// UNION tree), ORDER BY and LIMIT.
type SelectStmt struct {
	With    *WithClause
	Body    SelectBody
	OrderBy []OrderItem
	Limit   Expr // nil when absent
	Offset  Expr // nil when absent
}

func (*SelectStmt) stmt() {}

func (s *SelectStmt) String() string {
	var b strings.Builder
	if s.With != nil {
		b.WriteString(s.With.String())
		b.WriteByte(' ')
	}
	b.WriteString(s.Body.String())
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&b, " LIMIT %s", s.Limit)
	}
	if s.Offset != nil {
		fmt.Fprintf(&b, " OFFSET %s", s.Offset)
	}
	return b.String()
}

// SelectBody is either a simple SELECT core or a UNION of two bodies.
type SelectBody interface {
	selectBody()
	String() string
}

// SelectCore is one SELECT ... FROM ... WHERE ... GROUP BY ... HAVING
// block.
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef // nil for FROM-less selects (SELECT 1)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
}

func (*SelectCore) selectBody() {}

func (s *SelectCore) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	if s.From != nil {
		fmt.Fprintf(&b, " FROM %s", s.From)
	}
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		fmt.Fprintf(&b, " HAVING %s", s.Having)
	}
	return b.String()
}

// UnionExpr combines two bodies with UNION [ALL].
type UnionExpr struct {
	Left, Right SelectBody
	All         bool
}

func (*UnionExpr) selectBody() {}

func (u *UnionExpr) String() string {
	op := "UNION"
	if u.All {
		op = "UNION ALL"
	}
	return fmt.Sprintf("%s %s %s", u.Left, op, u.Right)
}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

func (s SelectItem) String() string {
	if s.Alias != "" {
		return fmt.Sprintf("%s AS %s", s.Expr, s.Alias)
	}
	return s.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// ---------------------------------------------------------------------
// FROM clause
// ---------------------------------------------------------------------

// BaseTable is a named table reference with an optional alias.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

func (t *BaseTable) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// SubqueryRef is a derived table: (SELECT ...) [AS] alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}

func (s *SubqueryRef) String() string {
	if s.Alias != "" {
		return "(" + s.Select.String() + ") AS " + s.Alias
	}
	return "(" + s.Select.String() + ")"
}

// JoinType enumerates the supported join kinds.
type JoinType uint8

// Join kinds.
const (
	InnerJoin JoinType = iota
	LeftJoin
	RightJoin
	FullJoin
	CrossJoin
)

func (j JoinType) String() string {
	switch j {
	case InnerJoin:
		return "JOIN"
	case LeftJoin:
		return "LEFT JOIN"
	case RightJoin:
		return "RIGHT JOIN"
	case FullJoin:
		return "FULL JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	}
	return "JOIN?"
}

// JoinRef joins two table refs with an ON condition (nil for CROSS).
type JoinRef struct {
	Type        JoinType
	Left, Right TableRef
	On          Expr
}

func (*JoinRef) tableRef() {}

func (j *JoinRef) String() string {
	if j.On == nil {
		return fmt.Sprintf("%s %s %s", j.Left, j.Type, j.Right)
	}
	return fmt.Sprintf("%s %s %s ON %s", j.Left, j.Type, j.Right, j.On)
}

// ---------------------------------------------------------------------
// WITH clause (regular, recursive and iterative CTEs)
// ---------------------------------------------------------------------

// WithClause holds the CTE definitions of a query.
type WithClause struct {
	Recursive bool
	CTEs      []*CTE
}

func (w *WithClause) String() string {
	var b strings.Builder
	b.WriteString("WITH ")
	if w.Recursive {
		b.WriteString("RECURSIVE ")
	}
	for _, c := range w.CTEs {
		if c.Iterative {
			b.WriteString("ITERATIVE ")
			break
		}
	}
	for i, c := range w.CTEs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// CTE is one common table expression. For regular/recursive CTEs only
// Select is set. For iterative CTEs (the paper's extension) Iterative is
// true and Init/Iter/Until describe R0, Ri and Tc.
type CTE struct {
	Name      string
	Cols      []string // optional column list
	Iterative bool

	// Regular/recursive body.
	Select *SelectStmt

	// Iterative body: WITH ITERATIVE name AS ( Init ITERATE Iter UNTIL
	// Until ).
	Init  *SelectStmt
	Iter  *SelectStmt
	Until Termination
}

func (c *CTE) String() string {
	var b strings.Builder
	b.WriteString(c.Name)
	if len(c.Cols) > 0 {
		b.WriteString(" (" + strings.Join(c.Cols, ", ") + ")")
	}
	b.WriteString(" AS (")
	if c.Iterative {
		b.WriteString(c.Init.String())
		b.WriteString(" ITERATE ")
		b.WriteString(c.Iter.String())
		b.WriteString(" UNTIL ")
		b.WriteString(c.Until.String())
	} else {
		b.WriteString(c.Select.String())
	}
	b.WriteString(")")
	return b.String()
}

// TermType classifies a termination condition per the paper: Metadata
// (iteration/update counters), Data (a SQL expression over the CTE
// table) or Delta (changed-row count between iterations).
type TermType uint8

// Termination condition types.
const (
	TermMetadata TermType = iota
	TermData
	TermDelta
)

func (t TermType) String() string {
	switch t {
	case TermMetadata:
		return "Metadata"
	case TermData:
		return "Data"
	case TermDelta:
		return "Delta"
	}
	return "?"
}

// Termination is the parsed UNTIL clause.
//
//	UNTIL <n> ITERATIONS          -> Metadata, N, CountUpdates=false
//	UNTIL <n> UPDATES             -> Metadata, N, CountUpdates=true
//	UNTIL ANY (<expr>)            -> Data, Any=true
//	UNTIL ALL (<expr>)            -> Data, Any=false
//	UNTIL DELTA < <n>             -> Delta, N
type Termination struct {
	Type         TermType
	N            int64
	CountUpdates bool
	Expr         Expr
	Any          bool
}

func (t Termination) String() string {
	switch t.Type {
	case TermMetadata:
		if t.CountUpdates {
			return fmt.Sprintf("%d UPDATES", t.N)
		}
		return fmt.Sprintf("%d ITERATIONS", t.N)
	case TermData:
		kw := "ALL"
		if t.Any {
			kw = "ANY"
		}
		return fmt.Sprintf("%s (%s)", kw, t.Expr)
	case TermDelta:
		return fmt.Sprintf("DELTA < %d", t.N)
	}
	return "?"
}

// ---------------------------------------------------------------------
// DDL / DML statements
// ---------------------------------------------------------------------

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Type
	PrimaryKey bool
}

// CreateTable is CREATE [TEMP] TABLE [IF NOT EXISTS] name (cols...).
type CreateTable struct {
	Name        string
	Cols        []ColumnDef
	Temp        bool
	IfNotExists bool
}

func (*CreateTable) stmt() {}

func (c *CreateTable) String() string {
	var b strings.Builder
	b.WriteString("CREATE ")
	if c.Temp {
		b.WriteString("TEMP ")
	}
	b.WriteString("TABLE ")
	if c.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	b.WriteString(c.Name)
	b.WriteString(" (")
	for i, col := range c.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(col.Name + " " + col.Type.String())
		if col.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
	}
	b.WriteString(")")
	return b.String()
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

func (d *DropTable) String() string {
	if d.IfExists {
		return "DROP TABLE IF EXISTS " + d.Name
	}
	return "DROP TABLE " + d.Name
}

// Insert is INSERT INTO name [(cols)] VALUES (...),(...) or INSERT INTO
// name [(cols)] SELECT ....
type Insert struct {
	Table  string
	Cols   []string
	Rows   [][]Expr    // literal VALUES form
	Select *SelectStmt // SELECT form (exclusive with Rows)
}

func (*Insert) stmt() {}

func (i *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + i.Table)
	if len(i.Cols) > 0 {
		b.WriteString(" (" + strings.Join(i.Cols, ", ") + ")")
	}
	if i.Select != nil {
		b.WriteString(" " + i.Select.String())
		return b.String()
	}
	b.WriteString(" VALUES ")
	for r, row := range i.Rows {
		if r > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for c, e := range row {
			if c > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// Assignment is one SET col = expr in UPDATE.
type Assignment struct {
	Col  string
	Expr Expr
}

// Update is UPDATE t SET a=..., b=... [FROM other] [WHERE cond] —
// including the PostgreSQL-style UPDATE ... FROM used by the external
// baseline (Figure 1, lines 29–33).
type Update struct {
	Table string
	Alias string
	Sets  []Assignment
	From  TableRef // optional join source
	Where Expr
}

func (*Update) stmt() {}

func (u *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE " + u.Table)
	if u.Alias != "" {
		b.WriteString(" AS " + u.Alias)
	}
	b.WriteString(" SET ")
	for i, s := range u.Sets {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", s.Col, s.Expr)
	}
	if u.From != nil {
		fmt.Fprintf(&b, " FROM %s", u.From)
	}
	if u.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", u.Where)
	}
	return b.String()
}

// Delete is DELETE FROM t [WHERE cond].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

func (d *Delete) String() string {
	if d.Where != nil {
		return fmt.Sprintf("DELETE FROM %s WHERE %s", d.Table, d.Where)
	}
	return "DELETE FROM " + d.Table
}

// Explain wraps any statement for plan display. Analyze marks EXPLAIN
// ANALYZE: the statement also executes and the runtime trace is
// appended to the plan.
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*Explain) stmt() {}

func (e *Explain) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Stmt.String()
	}
	return "EXPLAIN " + e.Stmt.String()
}
