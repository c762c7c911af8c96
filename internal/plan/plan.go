// Package plan defines the logical query plan and the builder that
// turns parsed SELECT statements into plans. Expressions remain ASTs
// inside the plan; the executor compiles them against each node's input
// environment.
//
// Iterative CTEs are NOT handled here: the functional rewrite in
// internal/core expands them into a step program whose individual steps
// are plain SELECT plans built by this package. The plan builder only
// needs to resolve references to named intermediate results (the CTE
// working tables) via the Results map.
package plan

import (
	"fmt"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/sqltypes"
)

// ColInfo describes one output column of a plan node: the table alias
// it is visible under (empty for derived expressions), its name and
// type.
type ColInfo struct {
	Table string
	Name  string
	Type  sqltypes.Type
}

// Node is a logical plan operator. Columns() describes the output row
// layout. The set of node kinds is closed: only this package's kinds
// implement accept, and Visit dispatches over them.
type Node interface {
	Columns() []ColInfo
	// Explain renders the node (without children) for plan display.
	Explain() string
	// Children returns input nodes (for traversal/printing).
	Children() []Node
	accept(v nodeVisitor)
}

// Schema converts a node's columns into a storage schema.
func Schema(n Node) sqltypes.Schema {
	cols := n.Columns()
	s := make(sqltypes.Schema, len(cols))
	for i, c := range cols {
		s[i] = sqltypes.Column{Name: c.Name, Type: c.Type}
	}
	return s
}

// ---------------------------------------------------------------------
// Node types
// ---------------------------------------------------------------------

// Scan reads a base table from the catalog.
type Scan struct {
	Table string // catalog name
	Alias string // visible alias (defaults to table name)
	Cols  []ColInfo
}

func (s *Scan) Columns() []ColInfo { return s.Cols }
func (s *Scan) Children() []Node   { return nil }
func (s *Scan) Explain() string {
	if s.Alias != "" && !strings.EqualFold(s.Alias, s.Table) {
		return fmt.Sprintf("Scan %s AS %s", s.Table, s.Alias)
	}
	return "Scan " + s.Table
}

// NamedResult reads a named intermediate result from the result store
// (a CTE main/working table).
type NamedResult struct {
	Name  string
	Alias string
	Cols  []ColInfo
}

func (s *NamedResult) Columns() []ColInfo { return s.Cols }
func (s *NamedResult) Children() []Node   { return nil }
func (s *NamedResult) Explain() string {
	if s.Alias != "" && !strings.EqualFold(s.Alias, s.Name) {
		return fmt.Sprintf("Result %s AS %s", s.Name, s.Alias)
	}
	return "Result " + s.Name
}

// OneRow produces a single empty row; FROM-less selects project over
// it.
type OneRow struct{}

func (*OneRow) Columns() []ColInfo { return nil }
func (*OneRow) Children() []Node   { return nil }
func (*OneRow) Explain() string    { return "OneRow" }

// Filter keeps rows satisfying Cond.
type Filter struct {
	Input Node
	Cond  ast.Expr
}

func (f *Filter) Columns() []ColInfo { return f.Input.Columns() }
func (f *Filter) Children() []Node   { return []Node{f.Input} }
func (f *Filter) Explain() string    { return "Filter " + f.Cond.String() }

// ProjItem is one projected output expression.
type ProjItem struct {
	Expr ast.Expr
	Name string
	Type sqltypes.Type
}

// Project computes output expressions.
type Project struct {
	Input Node
	Items []ProjItem
}

func (p *Project) Columns() []ColInfo {
	out := make([]ColInfo, len(p.Items))
	for i, it := range p.Items {
		out[i] = ColInfo{Name: it.Name, Type: it.Type}
	}
	return out
}
func (p *Project) Children() []Node { return []Node{p.Input} }
func (p *Project) Explain() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Expr.String()
		if it.Name != "" && it.Name != it.Expr.String() {
			parts[i] += " AS " + it.Name
		}
	}
	return "Project " + strings.Join(parts, ", ")
}

// Rename exposes the input under a new table alias (used for derived
// tables and self-join aliases of CTE results). It does not move data;
// it only changes name resolution.
type Alias struct {
	Input Node
	Name  string
}

func (a *Alias) Columns() []ColInfo {
	in := a.Input.Columns()
	out := make([]ColInfo, len(in))
	for i, c := range in {
		out[i] = ColInfo{Table: strings.ToLower(a.Name), Name: c.Name, Type: c.Type}
	}
	return out
}
func (a *Alias) Children() []Node { return []Node{a.Input} }
func (a *Alias) Explain() string  { return "Alias " + a.Name }

// Join combines two inputs. Output columns are left's then right's.
type Join struct {
	Type  ast.JoinType // Inner, Left, Full or Cross (Right is rewritten)
	Left  Node
	Right Node
	On    ast.Expr // nil for cross joins
}

func (j *Join) Columns() []ColInfo {
	l := j.Left.Columns()
	r := j.Right.Columns()
	out := make([]ColInfo, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }
func (j *Join) Explain() string {
	var kind string
	switch j.Type {
	case ast.InnerJoin:
		kind = "HashJoin Inner"
	case ast.LeftJoin:
		kind = "HashJoin LeftOuter"
	case ast.RightJoin:
		kind = "HashJoin RightOuter"
	case ast.FullJoin:
		kind = "HashJoin FullOuter"
	case ast.CrossJoin:
		return "NestedLoop Cross"
	default:
		kind = "Join?"
	}
	if j.On != nil {
		return kind + " on " + j.On.String()
	}
	return kind
}

// AggSpec describes one aggregate computation.
type AggSpec struct {
	Name     string // SUM, COUNT, ...
	Arg      ast.Expr
	Star     bool
	Distinct bool
	// OutName is the synthetic column name the aggregate's result is
	// visible under (#agg.aN).
	OutName string
	Type    sqltypes.Type
}

// Aggregate groups the input by GroupBy expressions and computes Aggs.
// Output columns: one per group expression (named #agg.gN) followed by
// one per aggregate (named #agg.aN). A Project above maps them to the
// user-visible select items.
type Aggregate struct {
	Input   Node
	GroupBy []ast.Expr
	Types   []sqltypes.Type // group expr types, parallel to GroupBy
	Aggs    []AggSpec
}

// AggTable is the synthetic alias aggregate outputs are visible under.
const AggTable = "#agg"

func (a *Aggregate) Columns() []ColInfo {
	out := make([]ColInfo, 0, len(a.GroupBy)+len(a.Aggs))
	for i := range a.GroupBy {
		out = append(out, ColInfo{Table: AggTable, Name: fmt.Sprintf("g%d", i), Type: a.Types[i]})
	}
	for _, g := range a.Aggs {
		out = append(out, ColInfo{Table: AggTable, Name: g.OutName, Type: g.Type})
	}
	return out
}
func (a *Aggregate) Children() []Node { return []Node{a.Input} }
func (a *Aggregate) Explain() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	var aggs []string
	for _, g := range a.Aggs {
		s := g.Name + "("
		if g.Star {
			s += "*"
		} else {
			if g.Distinct {
				s += "DISTINCT "
			}
			s += g.Arg.String()
		}
		s += ")"
		aggs = append(aggs, s)
	}
	if len(parts) == 0 {
		return "Aggregate " + strings.Join(aggs, ", ")
	}
	return "HashAggregate by " + strings.Join(parts, ", ") + " computing " + strings.Join(aggs, ", ")
}

// Union concatenates two inputs (ALL) — dedup is a Distinct above.
type Union struct {
	Left, Right Node
}

func (u *Union) Columns() []ColInfo { return u.Left.Columns() }
func (u *Union) Children() []Node   { return []Node{u.Left, u.Right} }
func (u *Union) Explain() string    { return "UnionAll" }

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
}

func (d *Distinct) Columns() []ColInfo { return d.Input.Columns() }
func (d *Distinct) Children() []Node   { return []Node{d.Input} }
func (d *Distinct) Explain() string    { return "Distinct" }

// SortKey is one ORDER BY key over an output column index.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort orders the input.
type Sort struct {
	Input Node
	Keys  []SortKey
}

func (s *Sort) Columns() []ColInfo { return s.Input.Columns() }
func (s *Sort) Children() []Node   { return []Node{s.Input} }
func (s *Sort) Explain() string {
	parts := make([]string, len(s.Keys))
	cols := s.Input.Columns()
	for i, k := range s.Keys {
		parts[i] = cols[k.Col].Name
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort by " + strings.Join(parts, ", ")
}

// Counts are the row counts of a Limit or TopN: at most N rows (-1: no
// limit) after skipping Offset. A count the statement gave as a literal
// also names the literal's slot, and a run that binds the statement's
// literal values reads the count from there.
type Counts struct {
	N, Offset         int64
	NSlot, OffsetSlot int
}

// Bound returns the counts under the run's bound literal values (nil:
// the counts as planned).
func (c Counts) Bound(params []sqltypes.Value) (n, offset int64) {
	n, offset = c.N, c.Offset
	if params != nil {
		if c.NSlot > 0 {
			n = params[c.NSlot-1].I
		}
		if c.OffsetSlot > 0 {
			offset = params[c.OffsetSlot-1].I
		}
	}
	return n, offset
}

// Limit keeps at most N rows after skipping Offset.
type Limit struct {
	Input Node
	Counts
}

func (l *Limit) Columns() []ColInfo { return l.Input.Columns() }
func (l *Limit) Children() []Node   { return []Node{l.Input} }
func (l *Limit) Explain() string {
	if l.Offset > 0 {
		return fmt.Sprintf("Limit %d offset %d", l.N, l.Offset)
	}
	return fmt.Sprintf("Limit %d", l.N)
}

// TopN is the fusion of Sort and Limit: keep the first N rows (after
// Offset) of the sorted order without materializing and sorting the
// whole input. The builder creates it whenever ORDER BY and LIMIT
// appear together.
type TopN struct {
	Input Node
	Keys  []SortKey
	Counts
}

func (t *TopN) Columns() []ColInfo { return t.Input.Columns() }
func (t *TopN) Children() []Node   { return []Node{t.Input} }
func (t *TopN) Explain() string {
	parts := make([]string, len(t.Keys))
	cols := t.Input.Columns()
	for i, k := range t.Keys {
		parts[i] = cols[k.Col].Name
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	s := fmt.Sprintf("TopN %d by %s", t.N, strings.Join(parts, ", "))
	if t.Offset > 0 {
		s += fmt.Sprintf(" offset %d", t.Offset)
	}
	return s
}

// Trim keeps only the first Keep output columns. It is used to drop
// hidden sort columns added for ORDER BY expressions that are not in
// the select list.
type Trim struct {
	Input Node
	Keep  int
}

func (t *Trim) Columns() []ColInfo { return t.Input.Columns()[:t.Keep] }
func (t *Trim) Children() []Node   { return []Node{t.Input} }
func (t *Trim) Explain() string    { return fmt.Sprintf("Trim to %d columns", t.Keep) }

// ValuesNode produces literal rows (INSERT ... VALUES and tests).
type ValuesNode struct {
	Rows [][]ast.Expr
	Cols []ColInfo
}

func (v *ValuesNode) Columns() []ColInfo { return v.Cols }
func (v *ValuesNode) Children() []Node   { return nil }
func (v *ValuesNode) Explain() string    { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// ExplainTree renders a plan tree with indentation.
func ExplainTree(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Explain())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
