package ast

import (
	"strings"

	"dbspinner/internal/sqltypes"
)

// Chain is a FROM clause read as a left-deep join chain: the leftmost
// leaf is member 0 and every join attaches one more leaf on its right.
// It is the one place that decides what such a chain is, who owns an
// unqualified column, and which top-level conjuncts are column
// equalities; the analyses that reason about an iterative part, such as
// the common-result rewrite, add their own conditions and diagnostics on
// top.
type Chain struct {
	Members []ChainMember
	// Aliases maps a member's alias to its chain index. When two members
	// share an alias (or one has none) the first keeps the entry and
	// BadAlias names the offender; Resolve is meaningless then.
	Aliases     map[string]int
	BadAlias    string
	HasBadAlias bool
	// Eqs are the top-level column = column conjuncts of every join
	// condition, in chain order, followed by those of the WHERE clause.
	Eqs [][2]*ColumnRef
}

// ChainMember is one leaf of the chain with the join that attached it.
type ChainMember struct {
	Ref   TableRef // the leaf as written: *BaseTable or *SubqueryRef
	Name  string   // base-table name; empty for a derived table
	Alias string   // lowercased visible alias
	Join  JoinType // join that attached the member (member 0: InnerJoin)
	On    Expr     // its condition (member 0: nil)
	// Schema is what the caller's lookup knows about Name; nil when it
	// knows nothing, and for derived tables.
	Schema sqltypes.Schema
}

// AliasOf is the lowercased name a FROM leaf is visible under.
func AliasOf(t TableRef) string {
	switch x := t.(type) {
	case *BaseTable:
		if x.Alias != "" {
			return strings.ToLower(x.Alias)
		}
		return strings.ToLower(x.Name)
	case *SubqueryRef:
		return strings.ToLower(x.Alias)
	}
	return ""
}

// ParseChain reads core's FROM clause as a chain, resolving member
// schemas through schemaOf. It reports false when there is no FROM
// clause or some join has a join on its right side.
func ParseChain(core *SelectCore, schemaOf func(name string) (sqltypes.Schema, bool)) (*Chain, bool) {
	if core.From == nil {
		return nil, false
	}
	c := &Chain{Aliases: map[string]int{}}
	if !c.flatten(core.From) {
		return nil, false
	}
	for i := range c.Members {
		m := &c.Members[i]
		if bt, ok := m.Ref.(*BaseTable); ok {
			m.Name = bt.Name
			if s, found := schemaOf(bt.Name); found {
				m.Schema = s
			}
		}
		if _, dup := c.Aliases[m.Alias]; !dup && m.Alias != "" {
			c.Aliases[m.Alias] = i
		} else if !c.HasBadAlias {
			c.BadAlias, c.HasBadAlias = m.Alias, true
		}
		c.addEqualities(m.On)
	}
	c.addEqualities(core.Where)
	return c, true
}

func (c *Chain) flatten(t TableRef) bool {
	j, ok := t.(*JoinRef)
	if !ok {
		c.Members = append(c.Members, ChainMember{Ref: t, Alias: AliasOf(t), Join: InnerJoin})
		return true
	}
	if _, nested := j.Right.(*JoinRef); nested || !c.flatten(j.Left) {
		return false
	}
	c.Members = append(c.Members, ChainMember{Ref: j.Right, Alias: AliasOf(j.Right), Join: j.Type, On: j.On})
	return true
}

func (c *Chain) addEqualities(e Expr) {
	for _, conj := range SplitConjuncts(e) {
		bin, ok := conj.(*BinaryExpr)
		if !ok || bin.Op != "=" {
			continue
		}
		l, lok := bin.L.(*ColumnRef)
		r, rok := bin.R.(*ColumnRef)
		if lok && rok {
			c.Eqs = append(c.Eqs, [2]*ColumnRef{l, r})
		}
	}
}

// Resolve maps a column reference to the index of the member that owns
// it, -1 when unknown. An unqualified reference needs exactly one
// possible owner, which can only be shown when every member's schema
// is known.
func (c *Chain) Resolve(ref *ColumnRef) int {
	if ref.Table != "" {
		if i, found := c.Aliases[strings.ToLower(ref.Table)]; found {
			return i
		}
		return -1
	}
	owner := -1
	for i, m := range c.Members {
		if m.Schema == nil {
			return -1
		}
		if m.Schema.ColumnIndex(ref.Name) >= 0 {
			if owner >= 0 {
				return -1
			}
			owner = i
		}
	}
	return owner
}
