package core

// Per-step IO: the single dispatch over every concrete Step kind that
// says which intermediate results a step reads, writes and frees, and
// where a loop step jumps. Liveness-driven truncation (dataflow.go) is
// its one reader. It deliberately does NOT feed internal/verify: the
// verifier keeps its own dispatches (simulation and the accumulator
// wiring check) so the producer and the checker of a step's IO fail
// independently; spinlint's stepswitch and stepeffects analyzers
// enforce full Step coverage on both sides.

import (
	"dbspinner/internal/ast"
	"dbspinner/internal/dataflow"
)

// stepIO derives one step's reads, writes and frees for the live-range
// analysis. Frontier# is written and freed by an incremental step
// within one Run, so it never grows a cross-step live range.
func stepIO(s Step) dataflow.StepIO {
	io := dataflow.StepIO{LoopBodyStart: -1}
	switch t := s.(type) {
	case *MaterializeStep:
		io.Reads = planResultNames(t.Plan)
		io.Writes = []string{t.Into}

	case *DeltaMaterializeStep:
		// On top of the shared restriction IO the step consumes the delta
		// the previous merge produced.
		t.Restriction.io(&io)
		io.Reads = append(io.Reads, t.Delta)

	case *MaintainAggStep:
		// On top of the shared restriction IO, the accumulator slots the
		// step carries across the back-edge: the previous output (Acc) and
		// the CTE snapshot it was computed from (Snap) are read to diff and
		// splice, then rewritten for the next iteration.
		t.Restriction.io(&io)
		io.Reads = append(io.Reads, t.Acc, t.Snap)
		io.Writes = append(io.Writes, t.Acc, t.Snap)

	case *RenameStep:
		io.Reads = []string{t.From}
		io.Writes = []string{t.To}
		io.Drops = []string{t.From}

	case *CopyBackStep:
		io.Reads = []string{t.From, t.To}
		io.Writes = []string{t.To}
		io.Drops = []string{t.From}

	case *MergeStep:
		io.Reads = []string{t.CTE, t.Work}
		io.Writes = []string{t.Into}
		if t.Delta != "" {
			io.Writes = append(io.Writes, t.Delta)
		}

	case *TruncateStep:
		io.Drops = []string{t.Name}

	case *InitLoopStep:
		if t.Loop != nil && t.Loop.Term.Type == ast.TermDelta {
			io.Reads = []string{t.Loop.CTEName} // snapshot for the delta check
		}

	case *UpdateLoopStep:
		// Loop state only.

	case *LoopStep:
		io.LoopBodyStart = t.BodyStart
		if t.Loop != nil {
			io.Reads = planResultNames(t.Loop.CondPlan)
			if t.Loop.Term.Type == ast.TermDelta {
				io.Reads = append(io.Reads, t.Loop.CTEName)
			}
		}

	default:
		// A step kind this dispatch does not know contributes no IO; the
		// verifier's unknown-step diagnostic names it.
	}
	return io
}

// io is what both incremental steps do to the result store: read both
// plans' results and the CTE table directly, write the working table,
// and transiently bind and drop the restricted input.
func (r *Restriction) io(out *dataflow.StepIO) {
	out.Reads = append(planResultNames(r.Full), planResultNames(r.Restricted)...)
	out.Reads = append(out.Reads, r.CTE)
	out.Writes = []string{r.Into, r.In}
	out.Drops = []string{r.In}
}
