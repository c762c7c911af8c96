package exec

import (
	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// This file exposes partition-level building blocks for the MPP layer
// (internal/mpp): the same hash-join and hash-aggregation logic used by
// the volcano operators, applied to in-memory row slices so a shuffle
// stage can run them per partition.

// RowsOperator wraps fixed rows as an Operator.
func RowsOperator(rows []sqltypes.Row) Operator {
	return &rowsOp{rows: rows}
}

// JoinKeys compiles a join node's equi-key expressions and residual
// predicate. Conjuncts that do not split into one-side = other-side
// form become the residual.
func JoinKeys(t *plan.Join) (leftKeys, rightKeys []*expr.Compiled, residual *expr.Compiled, err error) {
	leftEnv := planEnv(t.Left)
	rightEnv := planEnv(t.Right)
	bothEnv := planEnv(t)
	if t.On == nil {
		return nil, nil, nil, nil
	}
	var resids []ast.Expr
	for _, conj := range ast.SplitConjuncts(t.On) {
		lk, rk, ok := splitEquiKey(conj, leftEnv, rightEnv)
		if !ok {
			resids = append(resids, conj)
			continue
		}
		lc, err := expr.Compile(lk, leftEnv)
		if err != nil {
			return nil, nil, nil, err
		}
		rc, err := expr.Compile(rk, rightEnv)
		if err != nil {
			return nil, nil, nil, err
		}
		leftKeys = append(leftKeys, lc)
		rightKeys = append(rightKeys, rc)
	}
	if rem := ast.JoinConjuncts(resids); rem != nil {
		residual, err = expr.Compile(rem, bothEnv)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return leftKeys, rightKeys, residual, nil
}

// HashJoinPartition joins two row slices with the given key spec; the
// caller guarantees co-partitioning (equal keys appear in the same
// call). Semantics match the volcano hash join exactly. build, when
// non-nil, is the index of the build side's rows on its keys (the right
// side's, a right-outer join's left), which the join then does not build.
func HashJoinPartition(typ ast.JoinType, left, right []sqltypes.Row,
	leftKeys, rightKeys []*expr.Compiled, residual *expr.Compiled,
	leftWidth, rightWidth int, build *HashIndex, stats *Stats) ([]sqltypes.Row, error) {

	if stats == nil {
		stats = &Stats{}
	}
	op := &hashJoinOp{
		typ:  typ,
		left: RowsOperator(left), right: RowsOperator(right),
		leftKeys: leftKeys, rightKeys: rightKeys,
		residual: residual, leftWidth: leftWidth, rightWidth: rightWidth,
		prebuilt: build, stats: stats,
	}
	return Drain(op)
}

// NestedLoopPartition cross-joins two row slices with an optional
// residual predicate (used for cross joins and non-equi inner joins,
// where the MPP layer broadcasts the right side).
func NestedLoopPartition(left, right []sqltypes.Row, residual *expr.Compiled, stats *Stats) ([]sqltypes.Row, error) {
	if stats == nil {
		stats = &Stats{}
	}
	op := &nestedLoopOp{
		left:     RowsOperator(left),
		right:    RowsOperator(right),
		residual: residual, stats: stats,
	}
	return Drain(op)
}

// CompileResidual compiles a join's residual over the combined row
// layout (exported for the MPP cross-join path).
func CompileResidual(t *plan.Join) (*expr.Compiled, error) {
	if t.On == nil {
		return nil, nil
	}
	return expr.Compile(t.On, planEnv(t))
}

// AggregatePartition aggregates a row slice per a plan.Aggregate node;
// the caller guarantees group co-partitioning. emptyScalar controls
// whether an empty input still yields the single scalar-aggregate row
// (only one partition may do that).
func AggregatePartition(node *plan.Aggregate, rows []sqltypes.Row, emptyScalar bool, stats *Stats) ([]sqltypes.Row, error) {
	if stats == nil {
		stats = &Stats{}
	}
	op, err := newAggOp(node, RowsOperator(rows), stats)
	if err != nil {
		return nil, err
	}
	out, err := Drain(op)
	if err != nil {
		return nil, err
	}
	if !emptyScalar && len(node.GroupBy) == 0 && len(rows) == 0 {
		return nil, nil
	}
	return out, nil
}

// GroupKeyExprs compiles the group-by expressions of an aggregate node
// (used by the MPP layer to route rows).
func GroupKeyExprs(node *plan.Aggregate) ([]*expr.Compiled, error) {
	e := planEnv(node.Input)
	out := make([]*expr.Compiled, len(node.GroupBy))
	for i, g := range node.GroupBy {
		c, err := expr.Compile(g, e)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
