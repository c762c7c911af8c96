package verify

// The result-store slots each step rebinds and releases, re-derived from
// the step's own fields — its own type switch, deliberately NOT core's
// stepIO — for the accumulator-wiring check (checkAggWiring,
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
// fields. The boolean is false for step kinds this verifier does not
// know — the caller skips them, and the simulation's unknown-step
// diagnostic fails the program. spinlint's stepswitch analyzer keeps
// this switch covering every core.Step implementer.
func deriveStepEffects(st core.Step) (stepEffects, bool) {
	var e stepEffects
	switch t := st.(type) {
	case *core.MaterializeStep:
		e.writes = []string{t.Into}

	case *core.DeltaMaterializeStep:
		e = restrictionEffects(&t.Restriction)

	case *core.MaintainAggStep:
		e = restrictionEffects(&t.Restriction)
		e.writes = append(e.writes, t.Acc, t.Snap)

	case *core.RenameStep:
		e.writes = []string{t.To}
		e.frees = []string{t.From}

	case *core.CopyBackStep:
		e.writes = []string{t.To}
		e.frees = []string{t.From}

	case *core.MergeStep:
		e.writes = []string{t.Into}
		if t.Delta != "" {
			e.writes = append(e.writes, t.Delta)
		}

	case *core.TruncateStep:
		e.frees = []string{t.Name}

	case *core.InitLoopStep, *core.UpdateLoopStep, *core.LoopStep:
		// Loop state only.

	default:
		return e, false
	}
	return e, true
}
