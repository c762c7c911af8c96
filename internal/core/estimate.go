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

// String renders the estimate for EXPLAIN.
func (e IterationEstimate) String() string {
	switch {
	case e.Exact:
		return fmt.Sprintf("%d (exact)", e.N)
	case e.Bounded:
		return fmt.Sprintf("<= %d (update bound)", e.N)
	default:
		return fmt.Sprintf("~%d (data-dependent default)", e.N)
	}
}

// CostEstimate is a coarse per-query cost in abstract units: the cost
// of the non-iterative part plus, per loop, that loop's estimated
// iterations times its body cost. It exists to demonstrate how
// iteration estimation feeds costing; the unit is "materialized
// steps". Steps may belong to different loops (one per iterative CTE),
// each with its own iteration estimate.
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
			iters = float64(EstimateIterations(l.Loop.Term).N)
		}
		loops = append(loops, interval{start: l.BodyStart, end: i, iters: iters})
	}
	cost := 0.0
	for i, s := range p.Steps {
		switch s.(type) {
		case *MaterializeStep, *MergeStep, *CopyBackStep:
		default:
			continue
		}
		times := float64(1)
		for _, lv := range loops {
			if i >= lv.start && i <= lv.end {
				times *= lv.iters
			}
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
