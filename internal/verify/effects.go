package verify

// Independent re-derivation of the static effect analysis
// (internal/effects). The rewrite records, per step, the result-store
// slots it reads, writes and frees plus its loop-control accesses
// (core.Program.Effects), and builds the back-edge checkpoint specs
// from them. This file re-derives the effect sets from the steps
// themselves — its own type switch and its own loop-state interner,
// deliberately NOT the core registry — and fails closed: a recorded set
// missing a proved access is effect-violation. retry.go checks the
// checkpoint specs against the same re-derivation.

import (
	"fmt"
	"sort"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
)

// stepEffects is the verifier's own effect record for one step.
type stepEffects struct {
	reads, writes, frees  []string
	loopReads, loopWrites []string
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

// loopSlotInterner assigns stable names to loop states in
// first-encounter order — the same scheme the producer uses, re-run
// from scratch so the two sides agree by construction, not by sharing
// state.
type loopSlotInterner map[*core.LoopState]string

func (l loopSlotInterner) slot(ls *core.LoopState) string {
	if ls == nil {
		return ""
	}
	if id, ok := l[ls]; ok {
		return id
	}
	id := fmt.Sprintf("loop#%d", len(l)+1)
	l[ls] = id
	return id
}

// restrictionEffects is what either incremental step does to the result
// store on account of its Restriction: both plans' reads and the CTE
// table, the working table written, the restricted input bound and
// dropped within the step.
func restrictionEffects(r *core.Restriction) stepEffects {
	reads := append(planResults(r.Full), planResults(r.Restricted)...)
	return stepEffects{
		reads:  append(reads, r.CTE),
		writes: []string{r.Into, r.In},
		frees:  []string{r.In},
	}
}

// deriveStepEffects re-derives one step's effect set from its fields.
// The boolean is false for step kinds this verifier does not know —
// the caller fails closed. spinlint's stepeffects analyzer keeps this
// switch covering every core.Step implementer.
func deriveStepEffects(st core.Step, loops loopSlotInterner) (stepEffects, bool) {
	var e stepEffects
	switch t := st.(type) {
	case *core.MaterializeStep:
		e.reads = planResults(t.Plan)
		e.writes = []string{t.Into}

	case *core.DeltaMaterializeStep:
		e = restrictionEffects(&t.Restriction)
		e.reads = append(e.reads, t.Delta)
		e.loopReads = []string{loops.slot(t.Loop)}

	case *core.MaintainAggStep:
		e = restrictionEffects(&t.Restriction)
		e.reads = append(e.reads, t.Acc, t.Snap)
		e.writes = append(e.writes, t.Acc, t.Snap)

	case *core.RenameStep:
		e.reads = []string{t.From}
		e.writes = []string{t.To}
		e.frees = []string{t.From}

	case *core.CopyBackStep:
		e.reads = []string{t.From, t.To}
		e.writes = []string{t.To}
		e.frees = []string{t.From}
		if t.Loop != nil {
			e.loopWrites = []string{loops.slot(t.Loop)}
		}

	case *core.MergeStep:
		e.reads = []string{t.CTE, t.Work}
		e.writes = []string{t.Into}
		if t.Delta != "" {
			e.writes = append(e.writes, t.Delta)
		}
		if t.Loop != nil {
			e.loopWrites = []string{loops.slot(t.Loop)}
		}

	case *core.TruncateStep:
		e.frees = []string{t.Name}

	case *core.InitLoopStep:
		if t.Loop != nil {
			e.loopWrites = []string{loops.slot(t.Loop)}
			if t.Loop.Term.Type == ast.TermDelta {
				e.reads = []string{t.Loop.CTEName}
			}
		}

	case *core.UpdateLoopStep:
		if t.Loop != nil {
			slot := loops.slot(t.Loop)
			e.loopReads = []string{slot}
			e.loopWrites = []string{slot}
		}

	case *core.LoopStep:
		if t.Loop != nil {
			slot := loops.slot(t.Loop)
			e.loopReads = []string{slot}
			e.loopWrites = []string{slot}
			if t.Loop.CondPlan != nil {
				e.reads = append(e.reads, planResults(t.Loop.CondPlan)...)
			}
			if t.Loop.Term.Type == ast.TermDelta {
				e.reads = append(e.reads, t.Loop.CTEName)
			}
		}

	default:
		return e, false
	}
	return e, true
}

// reDerive re-derives every step's effect set, or reports which step
// kind blocked it (fail closed: a program we cannot re-derive has no
// checkable checkpoint specs).
func reDerive(prog *core.Program) ([]stepEffects, int, bool) {
	loops := loopSlotInterner{}
	out := make([]stepEffects, len(prog.Steps))
	for i, st := range prog.Steps {
		e, ok := deriveStepEffects(st, loops)
		if !ok {
			return nil, i, false
		}
		out[i] = e
	}
	return out, -1, true
}

// missingFrom returns the derived names absent from the recorded list
// (case-insensitive), sorted and deduplicated for stable diagnostics.
func missingFrom(recorded, derived []string) []string {
	have := make(map[string]bool, len(recorded))
	for _, n := range recorded {
		have[norm(n)] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, n := range derived {
		if k := norm(n); !have[k] && !seen[k] {
			seen[k] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// checkEffects verifies the recorded per-step effect sets against the
// re-derivation: recorded sets may over-approximate (that only widens a
// checkpoint or holds a result longer) but must never miss a proved
// access. Hand-built programs record no effects and are skipped.
func checkEffects(prog *core.Program) []Diagnostic {
	if prog.Effects == nil {
		return nil
	}
	var diags []Diagnostic
	addf := func(step int, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{Step: step, Class: ClassEffectViolation, Message: fmt.Sprintf(format, args...)})
	}
	if len(prog.Effects) != len(prog.Steps) {
		addf(0, "program records %d effect sets for %d steps", len(prog.Effects), len(prog.Steps))
		return diags
	}
	loops := loopSlotInterner{}
	for i, st := range prog.Steps {
		d, ok := deriveStepEffects(st, loops)
		if !ok {
			// The simulation's unknown-step diagnostic names the type; a
			// recorded effect set for a step we cannot re-derive is
			// additionally unsound on its own.
			addf(i+1, "recorded effect set cannot be re-derived for step type %T", st)
			continue
		}
		rec := prog.Effects[i]
		for _, m := range []struct {
			kind              string
			recorded, derived []string
		}{
			{"read", rec.Reads, d.reads},
			{"write", rec.Writes, d.writes},
			{"free", rec.Frees, d.frees},
			{"loop-read", rec.LoopReads, d.loopReads},
			{"loop-write", rec.LoopWrites, d.loopWrites},
		} {
			for _, name := range missingFrom(m.recorded, m.derived) {
				addf(i+1, "recorded effect set omits %s of %q, which the re-derivation proves", m.kind, name)
			}
		}
	}
	return diags
}
