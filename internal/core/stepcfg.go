package core

// Dispatch over step kinds, and the step program's control-flow graph.
// Every analysis that needs one answer per step kind implements
// StepCases, so a step kind added without a case fails to compile in
// each of them. Every forward dataflow over the program runs on
// Forward, which alone knows how a LoopStep wires the back-edge.

// StepCases has one method per step kind. VisitStep calls the one for
// the step's kind.
type StepCases[R any] interface {
	Materialize(*MaterializeStep) R
	DeltaMaterialize(*DeltaMaterializeStep) R
	MaintainAgg(*MaintainAggStep) R
	Rename(*RenameStep) R
	CopyBack(*CopyBackStep) R
	Merge(*MergeStep) R
	Truncate(*TruncateStep) R
	InitLoop(*InitLoopStep) R
	UpdateLoop(*UpdateLoopStep) R
	Loop(*LoopStep) R
}

// VisitStep returns the case of c for s's kind. A step that embeds
// another visits as the step it embeds.
func VisitStep[R any](s Step, c StepCases[R]) R {
	v := &stepVisit[R]{c: c}
	s.accept(v)
	return v.r
}

// stepVisitor is StepCases without the result type, which a method of
// Step cannot have; stepVisit adapts one to the other.
type stepVisitor interface {
	materialize(*MaterializeStep)
	deltaMaterialize(*DeltaMaterializeStep)
	maintainAgg(*MaintainAggStep)
	rename(*RenameStep)
	copyBack(*CopyBackStep)
	merge(*MergeStep)
	truncate(*TruncateStep)
	initLoop(*InitLoopStep)
	updateLoop(*UpdateLoopStep)
	loop(*LoopStep)
}

type stepVisit[R any] struct {
	c StepCases[R]
	r R
}

func (v *stepVisit[R]) materialize(s *MaterializeStep)           { v.r = v.c.Materialize(s) }
func (v *stepVisit[R]) deltaMaterialize(s *DeltaMaterializeStep) { v.r = v.c.DeltaMaterialize(s) }
func (v *stepVisit[R]) maintainAgg(s *MaintainAggStep)           { v.r = v.c.MaintainAgg(s) }
func (v *stepVisit[R]) rename(s *RenameStep)                     { v.r = v.c.Rename(s) }
func (v *stepVisit[R]) copyBack(s *CopyBackStep)                 { v.r = v.c.CopyBack(s) }
func (v *stepVisit[R]) merge(s *MergeStep)                       { v.r = v.c.Merge(s) }
func (v *stepVisit[R]) truncate(s *TruncateStep)                 { v.r = v.c.Truncate(s) }
func (v *stepVisit[R]) initLoop(s *InitLoopStep)                 { v.r = v.c.InitLoop(s) }
func (v *stepVisit[R]) updateLoop(s *UpdateLoopStep)             { v.r = v.c.UpdateLoop(s) }
func (v *stepVisit[R]) loop(s *LoopStep)                         { v.r = v.c.Loop(s) }

func (s *MaterializeStep) accept(v stepVisitor)      { v.materialize(s) }
func (s *DeltaMaterializeStep) accept(v stepVisitor) { v.deltaMaterialize(s) }
func (s *MaintainAggStep) accept(v stepVisitor)      { v.maintainAgg(s) }
func (s *RenameStep) accept(v stepVisitor)           { v.rename(s) }
func (s *CopyBackStep) accept(v stepVisitor)         { v.copyBack(s) }
func (s *MergeStep) accept(v stepVisitor)            { v.merge(s) }
func (s *TruncateStep) accept(v stepVisitor)         { v.truncate(s) }
func (s *InitLoopStep) accept(v stepVisitor)         { v.initLoop(s) }
func (s *UpdateLoopStep) accept(v stepVisitor)       { v.updateLoop(s) }
func (s *LoopStep) accept(v stepVisitor)             { v.loop(s) }

// Forward runs a forward dataflow over the steps' control-flow graph to
// its fixpoint and returns the state on entry to every step, plus, at
// index len(steps), the state the final query sees. start is the entry
// state of step 0 (and the exit state of a program with no steps).
//
// The graph is the step loop's: a *LoopStep goes to its BodyStart and
// to the next step, every other step to the next step only. A jump
// target outside [0, len(steps)] is no edge; the verifier reports it.
// Since every step falls through, every index is reached.
//
// transfer gives a step's exit state from its entry state. meet gives
// the state both of its arguments guarantee and whether that differs
// from acc. Neither may modify its arguments: a state may be shared by
// several indexes. The states must form a lattice of finite height.
func Forward[S any](steps []Step, start S, transfer func(i int, in S) S, meet func(acc, in S) (S, bool)) []S {
	n := len(steps)
	states := make([]S, n+1)
	states[0] = start
	reached := make([]bool, n+1)
	reached[0] = true
	dirty := make([]bool, n+1)
	dirty[0] = true
	// flow meets out into j's entry state and reports whether it grew
	// any new information that j must pass on.
	flow := func(j int, out S) bool {
		if !reached[j] {
			states[j], reached[j] = out, true
			return true
		}
		var changed bool
		states[j], changed = meet(states[j], out)
		return changed
	}
	// Visit dirty steps in index order; a back-edge that changes its
	// target's state resumes there.
	for i := 0; i < n; i++ {
		if !dirty[i] {
			continue
		}
		dirty[i] = false
		out := transfer(i, states[i])
		next := i + 1
		if l, ok := steps[i].(*LoopStep); ok && l.BodyStart >= 0 && l.BodyStart <= n && flow(l.BodyStart, out) {
			dirty[l.BodyStart] = true
			next = min(next, l.BodyStart)
		}
		if flow(i+1, out) {
			dirty[i+1] = true
		}
		i = next - 1
	}
	return states
}
