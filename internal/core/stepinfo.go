package core

// Per-step IO: which intermediate results a step reads, writes and
// frees, and where a loop step jumps. Liveness-driven truncation
// (dataflow.go) is its one reader. It deliberately does NOT feed
// internal/verify: the verifier derives each step's effects with its
// own StepCases, so the producer and the checker of a step's IO fail
// independently.

import (
	"dbspinner/internal/ast"
	"dbspinner/internal/dataflow"
)

// stepIO derives one step's reads, writes and frees for the live-range
// analysis. Frontier# is written and freed by an incremental step
// within one Run, so it never grows a cross-step live range.
func stepIO(s Step) dataflow.StepIO {
	return VisitStep[dataflow.StepIO](s, ioCases{})
}

type ioCases struct{}

func (ioCases) Materialize(t *MaterializeStep) dataflow.StepIO {
	return dataflow.StepIO{Reads: planResultNames(t.Plan), Writes: []string{t.Into}, LoopBodyStart: -1}
}

// What the incremental steps carry across the back-edge lives on their
// loop's state, not in the result store: their IO is the restriction's.
func (ioCases) DeltaMaterialize(t *DeltaMaterializeStep) dataflow.StepIO {
	return t.Restriction.io()
}

func (ioCases) MaintainAgg(t *MaintainAggStep) dataflow.StepIO {
	return t.Restriction.io()
}

func (ioCases) Rename(t *RenameStep) dataflow.StepIO {
	return dataflow.StepIO{Reads: []string{t.From}, Writes: []string{t.To}, Drops: []string{t.From}, LoopBodyStart: -1}
}

func (ioCases) CopyBack(t *CopyBackStep) dataflow.StepIO {
	return dataflow.StepIO{Reads: []string{t.From, t.To}, Writes: []string{t.To}, Drops: []string{t.From}, LoopBodyStart: -1}
}

func (ioCases) Merge(t *MergeStep) dataflow.StepIO {
	io := dataflow.StepIO{Reads: []string{t.CTE, t.Work}, Writes: []string{t.Into}, LoopBodyStart: -1}
	if t.Delta != "" {
		io.Writes = append(io.Writes, t.Delta)
	}
	return io
}

func (ioCases) Truncate(t *TruncateStep) dataflow.StepIO {
	return dataflow.StepIO{Drops: []string{t.Name}, LoopBodyStart: -1}
}

func (ioCases) InitLoop(t *InitLoopStep) dataflow.StepIO {
	io := dataflow.StepIO{LoopBodyStart: -1}
	if t.Loop != nil && t.Loop.Term.Type == ast.TermDelta {
		io.Reads = []string{t.Loop.CTEName} // snapshot for the delta check
	}
	return io
}

// UpdateLoop touches loop state only.
func (ioCases) UpdateLoop(*UpdateLoopStep) dataflow.StepIO {
	return dataflow.StepIO{LoopBodyStart: -1}
}

func (ioCases) Loop(t *LoopStep) dataflow.StepIO {
	io := dataflow.StepIO{LoopBodyStart: t.BodyStart}
	if t.Loop != nil {
		io.Reads = planResultNames(t.Loop.CondPlan)
		if t.Loop.Term.Type == ast.TermDelta {
			io.Reads = append(io.Reads, t.Loop.CTEName)
		}
	}
	return io
}

// io is what both incremental steps do to the result store: read Ri's
// results and the CTE table directly, write the working table, and
// transiently bind and drop In.
func (r *Restriction) io() dataflow.StepIO {
	return dataflow.StepIO{
		Reads:         append(planResultNames(r.Plan), r.CTE),
		Writes:        []string{r.Into, r.In},
		Drops:         []string{r.In},
		LoopBodyStart: -1,
	}
}
