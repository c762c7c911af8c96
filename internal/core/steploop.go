package core

// The step loop: every program runs its steps one at a time, in
// program order, with loop steps jumping back to their body. The paper
// parallelizes within a step, across the MPP machine's partitions, and
// never across steps; DESIGN.md §5c says why this engine does the same.
// The loop owns the step contract: it polls cancellation before each
// step and picks the next one, so a step only does its own work.

import (
	"fmt"
	"time"

	"dbspinner/internal/faultinject"
)

// runSteps executes the step list: the checkpoint/retry driver when a
// retry policy is armed (retry.go), otherwise the plain pc-loop.
func (p *Program) runSteps(ctx *Context) error {
	if p.Retry.MaxAttempts > 0 {
		return p.runCheckpointed(ctx)
	}
	pc := 0
	for pc < len(p.Steps) {
		next, err := p.runStep(ctx, pc)
		if err != nil {
			return err
		}
		pc = next
	}
	return nil
}

// runStep executes one step on ctx, timing it when tracing is on and
// wrapping failures with the step's identity. Lifecycle errors keep
// their structure: a QueryLifecycleError already names iteration and
// step, and the outer wrap preserves errors.Is/As through %w.
func (p *Program) runStep(ctx *Context, pc int) (int, error) {
	var begin time.Time
	if ctx.Trace != nil {
		begin = time.Now()
	}
	next, err := p.dispatch(ctx, pc)
	if ctx.Trace != nil {
		ctx.Trace.noteStep(pc, time.Since(begin))
	}
	if err != nil {
		err = WrapCancel(err, int(ctx.Stats.Iterations), pc+1, "")
		return 0, fmt.Errorf("step %d (%s): %w", pc+1, p.Steps[pc].Explain(), err)
	}
	return next, nil
}

// dispatch is the contained Step.Run call: the step-boundary fault
// hook fires first, then the cancellation poll, and a panic anywhere
// below — the step itself, a storage mutation hook, the volcano
// executor — converts into a structured error carrying iteration and
// step instead of unwinding the process. Contained partition-worker
// panics travelling up as errors are promoted to the same shape. On
// success it returns the next pc: the loop body's first step when a
// loop step's continue variable is set, the following step otherwise.
func (p *Program) dispatch(ctx *Context, pc int) (next int, err error) {
	defer func() {
		if v := recover(); v != nil {
			next, err = 0, containPanic(v, int(ctx.Stats.Iterations), pc+1)
		}
	}()
	if ferr := faultinject.Trigger(ctx.Faults.Take(faultinject.PointStep)); ferr != nil {
		return 0, ferr
	}
	step := p.Steps[pc]
	ctx.pc = pc
	if err = ctx.checkpoint(pc); err == nil {
		err = step.Run(ctx)
	}
	if err != nil {
		return 0, promotePanic(err, int(ctx.Stats.Iterations), pc+1)
	}
	if l, ok := step.(*LoopStep); ok && l.Loop.cont {
		return l.BodyStart, nil
	}
	return pc + 1, nil
}
