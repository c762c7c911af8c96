package core

import (
	"fmt"

	"dbspinner/internal/ast"
)

// The paper's future work (§IX) includes "estimating number of
// iterations for more accurate optimizer costing". This file provides
// that estimate: exact for Metadata conditions, bounded or unknown for
// the data-dependent ones. The rewrite stores it on the Program so the
// costing layer (and EXPLAIN) can use it.

// IterationEstimate is the optimizer's guess at how many times the
// loop body will run.
type IterationEstimate struct {
	// N is the estimated iteration count.
	N int64
	// Exact is true when the termination condition pins the count
	// (UNTIL n ITERATIONS).
	Exact bool
	// Bounded is true when N is an upper bound rather than a guess
	// (UNTIL n UPDATES: at least one update per iteration or the data
	// has converged, so the loop runs at most n iterations... the
	// bound assumes every iteration updates at least one row).
	Bounded bool
	// Proved is true when the bound comes from the converge analysis'
	// termination proof rather than the termination condition itself.
	Proved bool
}

// DefaultDataIterations is the planning default for Data and Delta
// conditions, whose iteration count depends on the data. Ten matches
// the iteration counts the paper's evaluation queries use.
const DefaultDataIterations = 10

// EstimateIterations derives the estimate from a termination
// condition.
func EstimateIterations(t ast.Termination) IterationEstimate {
	switch t.Type {
	case ast.TermMetadata:
		if !t.CountUpdates {
			return IterationEstimate{N: t.N, Exact: true}
		}
		// n cumulative updates: at least one row updates per iteration
		// (otherwise a Delta-style condition would be the right tool),
		// so n iterations is an upper bound.
		return IterationEstimate{N: t.N, Bounded: true}
	default:
		return IterationEstimate{N: DefaultDataIterations}
	}
}

// estimateLoop refines the termination-condition estimate with the
// converge analysis' proved bound (LoopState.BoundHint): a
// data-dependent loop whose verdict pins the iteration count below
// the planning default is costed at the proved bound instead — e.g.
// an iteration-invariant body under UNTIL DELTA runs twice, not the
// default ten times.
func estimateLoop(l *LoopState) IterationEstimate {
	if l == nil {
		return IterationEstimate{N: DefaultDataIterations}
	}
	est := EstimateIterations(l.Term)
	if !est.Exact && l.BoundHint > 0 && l.BoundHint < est.N {
		return IterationEstimate{N: l.BoundHint, Bounded: true, Proved: true}
	}
	return est
}

// String renders the estimate for EXPLAIN.
func (e IterationEstimate) String() string {
	switch {
	case e.Exact:
		return fmt.Sprintf("%d (exact)", e.N)
	case e.Proved:
		return fmt.Sprintf("<= %d (proved termination bound)", e.N)
	case e.Bounded:
		return fmt.Sprintf("<= %d (update bound)", e.N)
	default:
		return fmt.Sprintf("~%d (data-dependent default)", e.N)
	}
}

// restrictedFraction is the planning guess for how much of a full Ri
// evaluation a restricted one costs: the affected keys are typically a
// fraction of the CTE, but the optimizer has no cardinality feedback
// yet, so charge half. The guess is not what decides at run time: there
// the step measures the frontier each iteration and runs the full plan
// once more than half the keys are affected (dense, restriction.go), so
// an installed step is never charged more than a full evaluation plus
// the walk that found the frontier dense — the planner's half is the
// same number read as an expectation, and stays a guess. Runtime truth
// is reported by Stats.RiFullRows vs Stats.RiInputRows (delta step) and
// Stats.AggFullRows vs Stats.AggInputRows (maintenance step), and per
// iteration by IterationSpan.Fed, Full and Ri.
const restrictedFraction = 0.5

// CostEstimate is a coarse per-query cost in abstract units: the cost
// of the non-iterative part plus, per loop, that loop's estimated
// iterations times its body cost. It exists to demonstrate how
// iteration estimation feeds costing; the unit is "materialized
// steps". Steps may belong to different loops (one per iterative CTE),
// each with its own iteration estimate, and a restricted step (delta or
// maintenance) is charged a full evaluation once plus
// restrictedFraction of one for every later iteration.
func (p *Program) CostEstimate() float64 {
	// Body intervals: a LoopStep at index l with body start b means
	// steps [b, l] run once per iteration of that loop.
	type interval struct {
		start, end int
		iters      float64
	}
	var loops []interval
	for i, s := range p.Steps {
		l, ok := s.(*LoopStep)
		if !ok || l.BodyStart < 0 {
			continue
		}
		iters := float64(1)
		if l.Loop != nil {
			iters = float64(estimateLoop(l.Loop).N)
		}
		loops = append(loops, interval{start: l.BodyStart, end: i, iters: iters})
	}
	cost := 0.0
	for i, s := range p.Steps {
		switch s.(type) {
		case *MaterializeStep, *MergeStep, *CopyBackStep, *DeltaMaterializeStep, *MaintainAggStep:
		default:
			continue
		}
		times := float64(1)
		for _, lv := range loops {
			if i >= lv.start && i <= lv.end {
				times *= lv.iters
			}
		}
		if restrictionOf(s) != nil && times > 1 {
			// First iteration evaluates the full plan, later ones the
			// affected keys, or the full plan again when those are dense.
			cost += 1 + (times-1)*restrictedFraction
			continue
		}
		cost += times
	}
	// Fold in the movement saved by licensed shuffle elisions
	// (internal/distprop): each skipped exchange avoids re-hashing and
	// re-bucketing one operator input every time its step runs, credited
	// as a fraction of a materialized step.
	for _, el := range p.Elisions {
		times := float64(1)
		if el.Step > 0 {
			i := el.Step - 1
			for _, lv := range loops {
				if i >= lv.start && i <= lv.end {
					times *= lv.iters
				}
			}
		}
		cost -= elisionCredit * times
	}
	if cost < 0 {
		cost = 0
	}
	return cost
}

// elisionCredit is the estimated fraction of a materialized step's cost
// that one elided exchange saves (the hash-and-move pass over that
// operator input).
const elisionCredit = 0.25
