package core

// The step registry: the single dispatch over every concrete Step kind
// that the in-core consumers — the effect sets the checkpoint specs are
// built from, the dataflow live-range analysis that places truncations,
// and EXPLAIN's effect rendering — all read from, so adding a Step has
// one place to forget instead of three. It deliberately does NOT feed
// internal/verify: the verifier keeps its own dispatches (simulation
// and effect re-derivation) so the producer and the checker of an
// effect set fail independently; spinlint's stepswitch and stepeffects
// analyzers enforce full Step coverage on both sides.

import (
	"fmt"
	"sort"

	"dbspinner/internal/ast"
	"dbspinner/internal/effects"
	"dbspinner/internal/storage"
)

// loopSlots interns loop-operator states into stable slot names
// ("loop#1", "loop#2", ...) in first-encounter order, which is
// deterministic because effect derivation walks steps in program
// order. The verifier's re-derivation assigns names the same way, so
// recorded and re-derived loop effects are comparable.
type loopSlots struct {
	ids map[*LoopState]string
}

func newLoopSlots() *loopSlots { return &loopSlots{ids: map[*LoopState]string{}} }

func (l *loopSlots) slot(ls *LoopState) string {
	if ls == nil {
		return ""
	}
	if id, ok := l.ids[ls]; ok {
		return id
	}
	id := fmt.Sprintf("loop#%d", len(l.ids)+1)
	l.ids[ls] = id
	return id
}

// stepInfo is one registry entry: the step's effect set plus the jump
// target for loop steps (-1 otherwise).
type stepInfo struct {
	Effects       effects.Set
	LoopBodyStart int
}

// infoFor derives the registry entry for one step. The boolean is
// false for step kinds the registry does not know — callers fail
// closed (no effect sets are recorded, the dataflow analysis sees no
// IO).
func infoFor(s Step, loops *loopSlots) (stepInfo, bool) {
	info := stepInfo{LoopBodyStart: -1}
	e := &info.Effects
	switch t := s.(type) {
	case *MaterializeStep:
		e.Reads = planResultNames(t.Plan)
		e.Writes = []string{t.Into}

	case *DeltaMaterializeStep:
		// On top of the shared restriction effects the step consumes the
		// delta the previous merge produced; the loop state carries the
		// changed-key set it restricts by.
		t.Restriction.effects(e)
		e.Reads = append(e.Reads, t.Delta)
		e.LoopReads = []string{loops.slot(t.Loop)}

	case *MaintainAggStep:
		// On top of the shared restriction effects, the accumulator slots
		// the step carries across the back-edge: the previous output (Acc)
		// and the CTE snapshot it was computed from (Snap) are read to
		// diff and splice, then rewritten for the next iteration.
		t.Restriction.effects(e)
		e.Reads = append(e.Reads, t.Acc, t.Snap)
		e.Writes = append(e.Writes, t.Acc, t.Snap)

	case *RenameStep:
		e.Reads = []string{t.From}
		e.Writes = []string{t.To}
		e.Frees = []string{t.From}

	case *CopyBackStep:
		e.Reads = []string{t.From, t.To}
		e.Writes = []string{t.To}
		e.Frees = []string{t.From}
		if t.Loop != nil {
			e.LoopWrites = []string{loops.slot(t.Loop)} // noteUpdates
		}

	case *MergeStep:
		e.Reads = []string{t.CTE, t.Work}
		e.Writes = []string{t.Into}
		if t.Delta != "" {
			e.Writes = append(e.Writes, t.Delta)
		}
		if t.Loop != nil {
			e.LoopWrites = []string{loops.slot(t.Loop)} // noteUpdates/noteDelta
		}

	case *TruncateStep:
		e.Frees = []string{t.Name}

	case *InitLoopStep:
		if t.Loop != nil {
			e.LoopWrites = []string{loops.slot(t.Loop)}
			if t.Loop.Term.Type == ast.TermDelta {
				e.Reads = []string{t.Loop.CTEName} // snapshot for the delta check
			}
		}

	case *UpdateLoopStep:
		if t.Loop != nil {
			slot := loops.slot(t.Loop)
			e.LoopReads = []string{slot}
			e.LoopWrites = []string{slot}
		}

	case *LoopStep:
		info.LoopBodyStart = t.BodyStart
		if t.Loop != nil {
			slot := loops.slot(t.Loop)
			e.LoopReads = []string{slot}
			// Delta termination re-snapshots the CTE into the loop state.
			e.LoopWrites = []string{slot}
			if t.Loop.CondPlan != nil {
				e.Reads = append(e.Reads, planResultNames(t.Loop.CondPlan)...)
			}
			if t.Loop.Term.Type == ast.TermDelta {
				e.Reads = append(e.Reads, t.Loop.CTEName)
			}
		}

	default:
		return info, false
	}
	return info, true
}

// effects is what both incremental steps do to the result store: read
// both plans' results and the CTE table directly, write the working
// table, and transiently bind and drop the restricted input.
func (r *Restriction) effects(e *effects.Set) {
	e.Reads = append(planResultNames(r.Full), planResultNames(r.Restricted)...)
	e.Reads = append(e.Reads, r.CTE)
	e.Writes = []string{r.Into, r.In}
	e.Frees = []string{r.In}
}

// deriveEffects computes the per-step effect sets and the checkpoint
// specs built from them, and records both for the verifier and EXPLAIN.
// It must run after every step-list mutation (insertTruncations shifts
// jump targets). A step kind the registry does not know leaves the
// effect record nil: the verifier's unknown-step diagnostic names the
// step.
func (p *Program) deriveEffects() {
	loops := newLoopSlots()
	sets := make([]effects.Set, len(p.Steps))
	for i, s := range p.Steps {
		info, ok := infoFor(s, loops)
		if !ok {
			p.Effects = nil
			return
		}
		sets[i] = info.Effects
	}
	p.Effects = sets
	p.deriveCheckpoints(sets)
}

// deriveCheckpoints records the static checkpoint specification of
// every loop back-edge from the derived effect sets: the slots the
// loop body — steps BodyStart..loop, the range a retry re-runs — can
// rebind or free, and the loop operators it advances. This is what a
// back-edge checkpoint must cover for an iteration retry to be sound;
// the runtime capture (retry.go) snapshots every tracked slot, a
// superset, and the verifier re-derives this record independently
// (unsafe-retry, stale-checkpoint) rather than trusting it.
func (p *Program) deriveCheckpoints(sets []effects.Set) {
	p.Checkpoints = nil
	for i, s := range p.Steps {
		loop, ok := s.(*LoopStep)
		if !ok {
			continue
		}
		spec := CheckpointSpec{Loop: i + 1, Body: loop.BodyStart + 1}
		slots := map[string]bool{}
		loopSlotSet := map[string]bool{}
		var loopOrder []string
		for pc := loop.BodyStart; pc <= i && pc < len(sets); pc++ {
			if pc < 0 {
				continue
			}
			e := sets[pc]
			for _, n := range append(append([]string(nil), e.Writes...), e.Frees...) {
				slots[storage.NormalizeName(n)] = true
			}
			for _, n := range e.LoopWrites {
				if !loopSlotSet[n] {
					loopSlotSet[n] = true
					loopOrder = append(loopOrder, n)
				}
			}
		}
		for n := range slots {
			spec.Slots = append(spec.Slots, n)
		}
		sort.Strings(spec.Slots)
		spec.LoopSlots = loopOrder
		p.Checkpoints = append(p.Checkpoints, spec)
	}
}
