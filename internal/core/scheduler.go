package core

// The dependency-DAG step scheduler (Options.ParallelSteps): within
// each straight-line region between loop-control steps, steps whose
// statically derived effect sets (internal/effects) are disjoint under
// Bernstein's conditions run concurrently on a bounded worker pool.
// Each scheduled step executes against its own guarded Context — own
// Stats, own created-set, own MPP machine, and a result-store view that
// checks every access against the step's declared effect set — so the
// only shared mutable state is the result store itself, touched on
// provably disjoint slots. The guard is the dynamic cross-check of the
// static analysis: a step that reaches outside its declared set fails
// the query with a violation report instead of silently racing.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbspinner/internal/effects"
	"dbspinner/internal/faultinject"
	"dbspinner/internal/mpp"
	"dbspinner/internal/storage"
)

// runSteps executes the step list: the checkpoint/retry driver when a
// retry policy is armed (retry.go), otherwise the plain pc-loop over
// advance.
func (p *Program) runSteps(ctx *Context) error {
	if p.Retry.MaxAttempts > 0 {
		return p.runCheckpointed(ctx)
	}
	pc := 0
	for pc < len(p.Steps) {
		next, err := p.advance(ctx, pc)
		if err != nil {
			return err
		}
		pc = next
	}
	return nil
}

// advance executes the program position pc — a whole scheduled region
// when pc sits at the start of one the schedule licenses, a single
// step otherwise — and returns the next pc. The region-DAG path runs
// only with a worker bound above one, a schedule covering the whole
// program, a derived effect set for every step, and a context still on
// the top degradation rung; barrier steps, mid-region jump targets,
// hand-built programs and degraded contexts all take the sequential
// step path.
func (p *Program) advance(ctx *Context, pc int) (int, error) {
	if p.ParallelSteps > 1 && ctx.degrade == rungNone && p.Schedule != nil &&
		len(p.Effects) == len(p.Steps) && p.Schedule.Covers(len(p.Steps)) {
		if r := p.Schedule.RegionAt(pc); r != nil && !r.Barrier && r.N > 1 && pc == r.Start {
			if err := p.runRegion(ctx, r); err != nil {
				return 0, err
			}
			return r.End(), nil
		}
	}
	return p.runStep(ctx, pc)
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
		err = WrapCancel(err, ctx.Stats.Iterations, pc+1, "")
		return 0, fmt.Errorf("step %d (%s): %w", pc+1, p.Steps[pc].Explain(), err)
	}
	return next, nil
}

// dispatch is the contained Step.Run call: the step-boundary fault
// hook fires first, and a panic anywhere below — the step itself, a
// storage mutation hook, the volcano executor — converts into a
// structured error carrying iteration and step instead of unwinding
// the process. Contained partition-worker panics travelling up as
// errors are promoted to the same shape.
func (p *Program) dispatch(ctx *Context, pc int) (next int, err error) {
	defer func() {
		if v := recover(); v != nil {
			next, err = 0, containPanic(v, ctx.Stats.Iterations, pc+1)
		}
	}()
	if ferr := faultinject.Trigger(ctx.Faults.Take(faultinject.PointStep)); ferr != nil {
		return 0, ferr
	}
	next, err = p.Steps[pc].Run(ctx, pc)
	return next, promotePanic(err, ctx.Stats.Iterations, pc+1)
}

// stepTrace is the private execution record of one scheduled step: its
// own statistics, the intermediate results it registered, its MPP
// exchange counters, and any effect-set violations the guard caught.
// Everything is merged into the parent context after the region's
// steps have quiesced.
type stepTrace struct {
	stats    Stats
	created  map[string]bool
	mppStats mpp.Stats

	mu         sync.Mutex
	violations []string
}

func newStepTrace() *stepTrace {
	return &stepTrace{created: make(map[string]bool)}
}

// note implements storage.Guard.Violation; MPP fragments of one step
// may report concurrently.
func (t *stepTrace) note(op, name string) {
	t.mu.Lock()
	t.violations = append(t.violations, fmt.Sprintf("%s %s", op, name))
	t.mu.Unlock()
}

// guardFor builds the result-store guard from a step's declared effect
// set, keyed exactly the way the store keys its slots.
func guardFor(e effects.Set, tr *stepTrace) *storage.Guard {
	norm := func(names []string) map[string]bool {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[storage.NormalizeName(n)] = true
		}
		return m
	}
	return &storage.Guard{
		Reads:     norm(e.Reads),
		Writes:    norm(e.Writes),
		Frees:     norm(e.Frees),
		Violation: tr.note,
	}
}

// stepContext builds the isolated Context a scheduled step runs in.
func (p *Program) stepContext(parent *Context, global int, tr *stepTrace) *Context {
	rt := parent.RT.Guarded(guardFor(p.Effects[global], tr))
	sctx := &Context{RT: rt, Stats: &tr.stats, created: tr.created}
	if parent.MPP != nil {
		// A machine of the step's own, for this one execution of it: its
		// exchanges route inside the producing region like the parent's,
		// but their buffers go with it — the parent's sites are one
		// goroutine's and are not shared with the region's workers.
		sctx.MPP = mpp.New(rt, p.Parts, &tr.mppStats, &tr.stats.Exec)
		sctx.MPP.Elide = p.elide
		sctx.MPP.CheckElide = p.CheckElide
	}
	return sctx
}

// mergeTrace folds one completed (or partially executed) step's record
// into the parent context. Iterations is deliberately absent: only the
// UpdateLoop barrier sets it, as an absolute value, and barriers never
// run inside a scheduled region. Created names merge even when the
// step failed so the end-of-query cleanup still drops them.
func mergeTrace(ctx *Context, tr *stepTrace) {
	s := &tr.stats
	ctx.Stats.UpdatedRows += s.UpdatedRows
	ctx.Stats.MovedRows += s.MovedRows
	ctx.Stats.Renames += s.Renames
	ctx.Stats.CommonBlocks += s.CommonBlocks
	ctx.Stats.RowsShuffled += s.RowsShuffled + tr.mppStats.RowsShuffled
	ctx.Stats.ShufflesElided += s.ShufflesElided + tr.mppStats.ShufflesElided
	ctx.Stats.RowsElided += s.RowsElided + tr.mppStats.RowsElided
	ctx.Stats.RowsRouted += s.RowsRouted + tr.mppStats.RowsRouted
	ctx.Stats.RowsToBusiest += s.RowsToBusiest + tr.mppStats.RowsToBusiest
	ctx.Stats.RiFullRows += s.RiFullRows
	ctx.Stats.RiInputRows += s.RiInputRows
	ctx.Stats.AggFullRows += s.AggFullRows
	ctx.Stats.AggInputRows += s.AggInputRows
	ctx.Stats.MaterializedCells += s.MaterializedCells
	ctx.Stats.Exec.Add(&s.Exec)
	for name := range tr.created {
		ctx.track(name)
	}
}

// runRegion executes one non-barrier region's happens-before DAG with
// at most p.ParallelSteps steps in flight. One goroutine per step waits
// on its predecessors' done channels (the channel close is the
// happens-before edge the effect analysis licensed), acquires a worker
// token, and runs the step in an isolated context under a
// region-scoped cancellation: the first step to fail cancels its
// siblings, which stop at their next checkpoint. After every goroutine
// has quiesced, traces merge in step order and the reported error is
// deterministic even though execution order is not: the program-order-
// first REAL failure wins — a sibling's induced cancellation never
// masks the error that triggered it — and effect-violation reports
// from every step are merged into the message rather than dropped.
func (p *Program) runRegion(ctx *Context, r *effects.Region) error {
	n := r.N
	preds := make([][]int, n)
	for a := 0; a < n; a++ {
		for _, b := range r.Succs[a] {
			preds[b] = append(preds[b], a)
		}
	}
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	parentCtx := ctx.Ctx
	if parentCtx == nil {
		parentCtx = context.Background()
	}
	rctx, cancelRegion := context.WithCancel(parentCtx)
	defer cancelRegion()
	sem := make(chan struct{}, p.ParallelSteps)
	var failed atomic.Bool
	traces := make([]*stepTrace, n)
	errs := make([]error, n)
	// The region fault hook (internal/faultinject): the fault is taken
	// serially before the fan-out and injected into the region's first
	// worker, so the hit count is deterministic no matter how the
	// workers interleave.
	regionFault := ctx.Faults.Take(faultinject.PointRegion)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(local int) {
			defer wg.Done()
			defer close(done[local])
			for _, a := range preds[local] {
				<-done[a]
			}
			if failed.Load() {
				return // a predecessor chain already failed; don't start new work
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			global := r.Start + local
			tr := newStepTrace()
			traces[local] = tr
			// The step's private Stats starts from the parent's iteration
			// count so a lifecycle error raised inside names the right
			// iteration (mergeTrace never folds Iterations back, so this
			// cannot double-count).
			tr.stats.Iterations = ctx.Stats.Iterations
			sctx := p.stepContext(ctx, global, tr)
			sctx.Ctx = rctx
			sctx.Trace = ctx.Trace
			var begin time.Time
			if sctx.Trace != nil {
				begin = time.Now()
			}
			var next int
			err := faultinject.Contain(-1, func() error {
				if local == 0 {
					if ferr := faultinject.Trigger(regionFault); ferr != nil {
						return ferr
					}
				}
				var rerr error
				next, rerr = p.Steps[global].Run(sctx, global)
				return rerr
			})
			err = promotePanic(err, tr.stats.Iterations, global+1)
			if sctx.Trace != nil {
				sctx.Trace.noteStep(global, time.Since(begin))
			}
			if err == nil && next != global+1 {
				err = fmt.Errorf("scheduler: step returned a jump to step %d inside a straight-line region", next+1)
			}
			if err != nil {
				errs[local] = err
				failed.Store(true)
				cancelRegion() // short-circuit siblings at their next checkpoint
			}
		}(i)
	}
	wg.Wait()
	for _, tr := range traces {
		if tr != nil {
			mergeTrace(ctx, tr)
		}
	}
	// Collect guard-violation reports from EVERY step first, so a
	// losing step's violations still surface alongside the winning
	// error instead of being dropped.
	var viol []string
	for local, tr := range traces {
		if tr == nil || len(tr.violations) == 0 {
			continue
		}
		global := r.Start + local
		sort.Strings(tr.violations)
		viol = append(viol, fmt.Sprintf("step %d (%s) violated its declared effect set: %s",
			global+1, p.Steps[global].Explain(), strings.Join(tr.violations, ", ")))
	}
	// Deterministic winner: the program-order-first non-cancellation
	// error; induced cancellations (the region cancel fired by the real
	// failure) only win when every error is one.
	winner := -1
	for local, err := range errs {
		if err != nil && !isContextErr(err) {
			winner = local
			break
		}
	}
	if winner < 0 {
		for local, err := range errs {
			if err != nil {
				winner = local
				break
			}
		}
	}
	if winner >= 0 {
		global := r.Start + winner
		err := WrapCancel(errs[winner], ctx.Stats.Iterations, global+1, "")
		werr := fmt.Errorf("step %d (%s): %w", global+1, p.Steps[global].Explain(), err)
		if len(viol) > 0 {
			werr = fmt.Errorf("%w; effect violations: %s", werr, strings.Join(viol, "; "))
		}
		return werr
	}
	if len(viol) > 0 {
		return fmt.Errorf("scheduler: %s", strings.Join(viol, "; "))
	}
	return nil
}
