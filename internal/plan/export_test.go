package plan

import "dbspinner/internal/ast"

// BuildFrom plans a FROM tree alone, with nothing placed in it.
func (b *Builder) BuildFrom(tr ast.TableRef) (Node, error) { return b.buildFrom(tr) }

// PlaceWhere is the WHERE placement the builder applies over a FROM tree.
func PlaceWhere(n Node, where ast.Expr) Node { return placeWhere(n, where) }

// Placement mutants, each a rule placement must not follow.
const (
	// NonStrictIntoNullable pushes a conjunct into a left join's nullable
	// input whether or not it rejects NULLs.
	NonStrictIntoNullable = "non-strict into nullable"
	// IntoFull pushes conjuncts into either input of a full join.
	IntoFull = "into full"
)

// SeedPlacementMutant makes placement follow the named wrong rule until
// the returned function restores it.
func SeedPlacementMutant(name string) (restore func()) {
	saved := pushes
	pushes = func(typ ast.JoinType, s side) bool {
		switch {
		case name == NonStrictIntoNullable && typ == ast.LeftJoin,
			name == IntoFull && typ == ast.FullJoin:
			return true
		}
		return saved(typ, s)
	}
	return func() { pushes = saved }
}
