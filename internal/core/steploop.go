package core

// The step loop: every program runs its steps one at a time, in
// program order, with loop steps jumping back to their body, and then
// Qf. The paper parallelizes within a step, across the MPP machine's
// partitions, and never across steps; DESIGN.md §5c says why this
// engine does the same. The loop owns the step contract: it polls
// cancellation before each instruction, contains its panics, retries
// its failures and picks the next one, so a step only does its own
// work.

import (
	"fmt"
	"time"

	"dbspinner/internal/exec"
	"dbspinner/internal/faultinject"
	"dbspinner/internal/sqltypes"
)

// runSteps is the one run driver: it executes the steps and then Qf, the
// last instruction (pc == len(p.Steps)), and returns Qf's rows. With
// Options.MaxRetries set it captures a checkpoint before the first step
// and at every loop back-edge, and on a retryable failure — of a step or
// of Qf alike — restores the newest one and runs on from its pc: up to
// MaxRetries times per checkpoint, then as many again on the volcano
// rung (Context.degradeOnce), failing once both budgets are spent.
// Cancellations, deadlines and iteration-cap failures are final and
// surface immediately. Without retries it captures nothing.
func (p *Program) runSteps(ctx *Context) ([]sqltypes.Row, error) {
	var cp *checkpoint
	defer func() { cp.release() }()
	if p.MaxRetries > 0 {
		cp = p.capture(ctx, 0)
	}
	attempts := 0
	for pc := 0; ; {
		next, err := p.runStep(ctx, pc)
		switch {
		case err == nil && pc == len(p.Steps):
			return ctx.rows, nil
		case err == nil:
			if _, isLoop := p.Steps[pc].(*LoopStep); isLoop && cp != nil {
				// The back-edge: one iteration (or the pre-loop prefix)
				// committed. Checkpoint whatever comes next — another
				// iteration or the fall-through — with a fresh budget,
				// once the old checkpoint has let go of what the
				// iteration displaced (the bound tables stay bound).
				cp.release()
				cp = p.capture(ctx, next)
				attempts = 0
			}
			pc = next
		case cp == nil || !retryable(err):
			return nil, err
		default:
			if attempts >= p.MaxRetries {
				if !ctx.degradeOnce() {
					return nil, err
				}
				attempts = 0
			}
			attempts++
			ctx.Stats.Retries++
			if ctx.Trace != nil {
				// Qf re-runs no iteration: its record names the iterations
				// done and step 0, as its errors do.
				iter, step := int(cp.stats.Iterations)+1, pc+1
				if pc == len(p.Steps) {
					iter, step = int(ctx.Stats.Iterations), 0
				}
				ctx.Trace.noteRetry(iter, step, ctx.rungName(), err)
			}
			p.restore(ctx, cp)
			pc = cp.pc
		}
	}
}

// runStep executes instruction pc on ctx, timing a step when tracing is
// on and wrapping failures with the instruction's identity: a step's
// with its number and EXPLAIN line, Qf's as the final query. Lifecycle
// errors keep their structure: a QueryLifecycleError already names
// iteration and step, and the outer wrap preserves errors.Is/As through
// %w.
func (p *Program) runStep(ctx *Context, pc int) (int, error) {
	var begin time.Time
	if ctx.Trace != nil {
		begin = time.Now()
	}
	next, err := p.dispatch(ctx, pc)
	if ctx.Trace != nil {
		ctx.Trace.noteStep(pc, time.Since(begin)) // Qf has no entry
	}
	if err == nil {
		return next, nil
	}
	iter := int(ctx.Stats.Iterations)
	if pc == len(p.Steps) {
		return 0, WrapCancel(err, iter, 0, "final query")
	}
	err = WrapCancel(err, iter, pc+1, "")
	return 0, fmt.Errorf("step %d (%s): %w", pc+1, p.Steps[pc].Explain(), err)
}

// dispatch is the contained run of instruction pc: the step-boundary
// fault hook fires first (for a step; Qf takes no arrival), then the
// cancellation poll, and a panic anywhere below — the step itself, a
// storage mutation hook, the volcano executor — converts into a
// structured error carrying iteration and step (0 for Qf) instead of
// unwinding the process. Contained partition-worker panics travelling
// up as errors are promoted to the same shape. On success it returns the
// next pc: the loop body's first step when a loop step's continue
// variable is set, the following instruction otherwise; Qf leaves its
// rows in ctx.rows.
func (p *Program) dispatch(ctx *Context, pc int) (next int, err error) {
	step := pc + 1
	if pc == len(p.Steps) {
		step = 0
	}
	defer func() {
		if v := recover(); v != nil {
			next, err = 0, containPanic(v, int(ctx.Stats.Iterations), step)
		}
	}()
	if step > 0 {
		if ferr := faultinject.Trigger(ctx.Faults.Take(faultinject.PointStep)); ferr != nil {
			return 0, ferr
		}
	}
	ctx.pc = pc
	switch err = ctx.checkpoint(); {
	case err != nil:
	case step == 0:
		ctx.rows, err = p.final(ctx)
	default:
		err = p.Steps[pc].Run(ctx)
	}
	if err != nil {
		return 0, promotePanic(err, int(ctx.Stats.Iterations), step)
	}
	if step > 0 {
		if l, ok := p.Steps[pc].(*LoopStep); ok && l.Loop.cont {
			return l.BodyStart, nil
		}
	}
	return pc + 1, nil
}

// final runs Qf over the finished loop state: on the MPP machine when
// the run has one, on the volcano executor otherwise.
func (p *Program) final(ctx *Context) ([]sqltypes.Row, error) {
	if ctx.MPP != nil {
		return ctx.MPP.Run(p.Final)
	}
	return exec.RunContext(ctx.Ctx, p.Final, ctx.RT, &ctx.Stats.ExecStats)
}
