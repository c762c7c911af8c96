package verify

// The result-store slots each step rebinds and releases, re-derived from
// the step's own fields — its own StepCases, deliberately NOT core's
// stepIO — for the maintenance step's one-writer rule (checkCacheWriters,
// stale-accumulator).

import "dbspinner/internal/core"

// stepEffects is what one step does to result-store slots: the names it
// (re)binds and the names it releases.
type stepEffects struct {
	writes, frees []string
}

// hits reports whether a and b share a slot name, case-insensitively.
func hits(a, b []string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, n := range a {
		set[norm(n)] = true
	}
	for _, n := range b {
		if set[norm(n)] {
			return true
		}
	}
	return false
}

// restrictionEffects is what either incremental step does to the result
// store on account of its Restriction: the working table written, the
// restricted input bound and dropped within the step.
func restrictionEffects(r *core.Restriction) stepEffects {
	return stepEffects{writes: []string{r.Into, r.In}, frees: []string{r.In}}
}

// deriveStepEffects re-derives one step's writes and frees from its
// fields.
func deriveStepEffects(st core.Step) stepEffects {
	return core.VisitStep[stepEffects](st, effectCases{})
}

type effectCases struct{}

func (effectCases) Materialize(t *core.MaterializeStep) stepEffects {
	return stepEffects{writes: []string{t.Into}}
}

func (effectCases) DeltaMaterialize(t *core.DeltaMaterializeStep) stepEffects {
	return restrictionEffects(&t.Restriction)
}

func (effectCases) MaintainAgg(t *core.MaintainAggStep) stepEffects {
	return restrictionEffects(&t.Restriction)
}

func (effectCases) Rename(t *core.RenameStep) stepEffects {
	return stepEffects{writes: []string{t.To}, frees: []string{t.From}}
}

func (effectCases) CopyBack(t *core.CopyBackStep) stepEffects {
	return stepEffects{writes: []string{t.To}, frees: []string{t.From}}
}

func (effectCases) Merge(t *core.MergeStep) stepEffects {
	e := stepEffects{writes: []string{t.Into}}
	if t.Delta != "" {
		e.writes = append(e.writes, t.Delta)
	}
	return e
}

func (effectCases) Truncate(t *core.TruncateStep) stepEffects {
	return stepEffects{frees: []string{t.Name}}
}

// The loop steps touch loop state only.
func (effectCases) InitLoop(*core.InitLoopStep) stepEffects     { return stepEffects{} }
func (effectCases) UpdateLoop(*core.UpdateLoopStep) stepEffects { return stepEffects{} }
func (effectCases) Loop(*core.LoopStep) stepEffects             { return stepEffects{} }
