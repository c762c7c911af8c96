package verify

// Independent re-derivation of the checkpoint coverage that licenses
// iteration-granular retry (core retry.go). The rewrite records, per
// loop back-edge, the result-store slots and loop-operator slots the
// loop body can rebind, free or advance (core.Program.Checkpoints);
// the retry driver restores a snapshot of the loop-carried state and
// EXPLAIN prints the record as the checkpoint's contract. This file
// re-derives that coverage from the verifier's own effect analysis
// (effects.go — its own type switch and loop interner, deliberately
// not the core registry) and fails closed: a spec that is structurally
// wrong is unsafe-retry, and coverage the re-derivation proves missing
// is stale-checkpoint.

import (
	"fmt"

	"dbspinner/internal/core"
)

// checkCheckpoints verifies the recorded checkpoint specifications
// against the re-derived loop-body effect sets. Recorded specs may
// over-approximate (the runtime capture snapshots every tracked slot
// anyway) but must never miss a slot the body provably writes or
// frees. Hand-built programs record no effects and are skipped — they
// also record no checkpoint specs, and their runtime checkpoints capture
// the dynamic superset.
func checkCheckpoints(prog *core.Program) []Diagnostic {
	if prog.Effects == nil {
		return nil
	}
	var diags []Diagnostic
	addf := func(step int, class, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{Step: step, Class: class, Message: fmt.Sprintf(format, args...)})
	}
	derived, _, ok := reDerive(prog)
	if !ok {
		return nil // the simulation's unknown-step diagnostic already fails the program
	}
	specFor := map[int]*core.CheckpointSpec{}
	for i := range prog.Checkpoints {
		spec := &prog.Checkpoints[i]
		if spec.Loop < 1 || spec.Loop > len(prog.Steps) {
			addf(0, ClassUnsafeRetry, "checkpoint spec names step %d, outside the program", spec.Loop)
			continue
		}
		if _, isLoop := prog.Steps[spec.Loop-1].(*core.LoopStep); !isLoop {
			addf(spec.Loop, ClassUnsafeRetry, "checkpoint spec names step %d, which is not a loop step", spec.Loop)
			continue
		}
		if specFor[spec.Loop] != nil {
			addf(spec.Loop, ClassUnsafeRetry, "loop step %d carries more than one checkpoint spec", spec.Loop)
			continue
		}
		if spec.Body < 1 || spec.Body > spec.Loop {
			addf(spec.Loop, ClassUnsafeRetry, "checkpoint spec's body start %d does not precede its loop step %d", spec.Body, spec.Loop)
			continue
		}
		specFor[spec.Loop] = spec
	}
	for i, st := range prog.Steps {
		loop, isLoop := st.(*core.LoopStep)
		if !isLoop {
			continue
		}
		spec := specFor[i+1]
		if spec == nil {
			addf(i+1, ClassStaleCheckpoint, "loop step %d has no checkpoint spec; its back-edge cannot be retried soundly", i+1)
			continue
		}
		if spec.Body != loop.BodyStart+1 {
			addf(i+1, ClassUnsafeRetry, "checkpoint spec says the loop body starts at step %d but the loop jumps to step %d",
				spec.Body, loop.BodyStart+1)
			continue
		}
		// Re-derive the body's write/free coverage and the loop slots it
		// advances, over the retried range [BodyStart, loop].
		var slots, loopSlots []string
		for pc := loop.BodyStart; pc >= 0 && pc <= i; pc++ {
			e := derived[pc]
			slots = append(slots, e.writes...)
			slots = append(slots, e.frees...)
			loopSlots = append(loopSlots, e.loopWrites...)
		}
		if missing := missingFrom(spec.Slots, slots); len(missing) > 0 {
			addf(i+1, ClassStaleCheckpoint, "checkpoint spec omits slots the loop body writes or frees: %v", missing)
		}
		if missing := missingFrom(spec.LoopSlots, loopSlots); len(missing) > 0 {
			addf(i+1, ClassStaleCheckpoint, "checkpoint spec omits loop slots the body advances: %v", missing)
		}
	}
	return diags
}
