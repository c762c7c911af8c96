package verify

// Independent re-derivation of the static effect analysis
// (internal/effects) that licenses the parallel step scheduler. The
// rewrite records, per step, the result-store slots it reads, writes
// and frees plus its loop-control accesses (core.Program.Effects), and
// the region schedule built from them (core.Program.Schedule); the
// scheduler trusts both. This file re-derives the effect sets from the
// steps themselves — its own type switch, its own loop-state interner,
// its own conflict test, deliberately NOT the core registry — and fails
// closed: a recorded set missing a proved access is effect-violation,
// and a schedule that would admit an interleaving the re-derived
// conflicts forbid is unsound-schedule.

import (
	"fmt"
	"sort"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
)

// stepEffects is the verifier's own effect record for one step.
type stepEffects struct {
	reads, writes, frees   []string
	loopReads, loopWrites  []string
	control, observesStats bool
}

func (e stepEffects) barrier() bool { return e.control || e.observesStats }

// conflictsWith is Bernstein's conditions over result-store slots and
// loop states: two steps conflict when either touches, by write or
// free, anything the other accesses at all — and likewise over loop
// slots, where any loop write against any loop access conflicts.
func (e stepEffects) conflictsWith(o stepEffects) bool {
	wa := concat(e.writes, e.frees)
	wb := concat(o.writes, o.frees)
	if hits(wa, concat(o.reads, wb)) || hits(e.reads, wb) {
		return true
	}
	lwa, lwb := e.loopWrites, o.loopWrites
	return hits(lwa, concat(o.loopReads, lwb)) || hits(e.loopReads, lwb)
}

func concat(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

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
		e.control = true
		if t.Loop != nil {
			e.loopWrites = []string{loops.slot(t.Loop)}
			if t.Loop.Term.Type == ast.TermDelta {
				e.reads = []string{t.Loop.CTEName}
			}
		}

	case *core.UpdateLoopStep:
		e.control = true
		e.observesStats = true
		if t.Loop != nil {
			slot := loops.slot(t.Loop)
			e.loopReads = []string{slot}
			e.loopWrites = []string{slot}
		}

	case *core.LoopStep:
		e.control = true
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
// kind blocked it (fail closed: a program we cannot re-derive must not
// carry a schedule).
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
// re-derivation: recorded sets may over-approximate (that only loses
// parallelism) but must never miss a proved access or barrier flag.
// Hand-built programs record neither effects nor a schedule and are
// skipped — they always execute sequentially.
func checkEffects(prog *core.Program) []Diagnostic {
	if prog.Effects == nil && prog.Schedule == nil {
		return nil
	}
	var diags []Diagnostic
	addf := func(step int, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{Step: step, Class: ClassEffectViolation, Message: fmt.Sprintf(format, args...)})
	}
	if prog.Effects == nil {
		diags = append(diags, Diagnostic{Class: ClassUnsoundSchedule,
			Message: "program records a schedule but no effect sets to justify it"})
		return diags
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
		if d.control && !rec.Control {
			addf(i+1, "recorded effect set omits the loop-control barrier flag")
		}
		if d.observesStats && !rec.ObservesStats {
			addf(i+1, "recorded effect set omits the observes-stats barrier flag")
		}
	}
	return diags
}

// checkSchedule verifies the recorded region schedule against the
// re-derived effects: regions must partition the step list, barrier
// steps must run alone, every loop jump must land on a region start,
// edges must be well-formed and forward-only, and every re-derived
// conflict inside a region must be ordered by a happens-before path.
func checkSchedule(prog *core.Program) []Diagnostic {
	if prog.Schedule == nil {
		return nil
	}
	var diags []Diagnostic
	addf := func(step int, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{Step: step, Class: ClassUnsoundSchedule, Message: fmt.Sprintf(format, args...)})
	}
	sched := prog.Schedule
	if !sched.Covers(len(prog.Steps)) {
		addf(0, "regions do not partition the %d-step program contiguously", len(prog.Steps))
		return diags
	}
	derived, at, ok := reDerive(prog)
	if !ok {
		addf(at+1, "schedule cannot be checked: step type %T has no re-derivable effect set", prog.Steps[at])
		return diags
	}
	for ri := range sched.Regions {
		r := &sched.Regions[ri]
		if r.Barrier && r.N != 1 {
			addf(r.Start+1, "barrier region spans %d steps; barriers must run alone", r.N)
			continue
		}
		if r.Barrier {
			continue
		}
		// Malformed edges first: Ordered assumes forward, in-range edges.
		wellFormed := true
		if len(r.Succs) != r.N {
			addf(r.Start+1, "region records %d edge lists for %d steps", len(r.Succs), r.N)
			continue
		}
		for a := 0; a < r.N; a++ {
			for _, b := range r.Succs[a] {
				if b <= a || b >= r.N {
					addf(r.Start+a+1, "edge to local step %d is not a forward edge inside the %d-step region", b, r.N)
					wellFormed = false
				}
			}
		}
		if !wellFormed {
			continue
		}
		for a := 0; a < r.N; a++ {
			ga := r.Start + a
			if derived[ga].barrier() {
				addf(ga+1, "step re-derives as a barrier (loop control or stats) but sits inside a %d-step parallel region", r.N)
			}
			for b := a + 1; b < r.N; b++ {
				if derived[ga].conflictsWith(derived[r.Start+b]) && !r.Ordered(a, b) {
					addf(ga+1, "no happens-before path orders step %d before conflicting step %d", ga+1, r.Start+b+1)
				}
			}
		}
	}
	for i, st := range prog.Steps {
		if l, isLoop := st.(*core.LoopStep); isLoop {
			if sched.RegionAt(l.BodyStart) == nil {
				addf(i+1, "loop jump target step %d is not a region start; the scheduler would re-enter mid-region", l.BodyStart+1)
			}
		}
	}
	return diags
}
