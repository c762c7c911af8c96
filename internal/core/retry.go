package core

// Iteration-granular checkpoint/retry (Options.Retry): the loop
// back-edge is the natural recovery unit of an iterative program —
// every slot the loop body rebinds is rebuilt from the loop-carried
// state, so snapshotting that state at the back-edge lets a failed
// iteration be re-run in place instead of restarting the query from
// iteration zero (the REX / Spinning Fast Iterative Data Flows
// argument applied inside the database). The checkpoint captures every
// tracked result slot plus every loop operator's mutable state, so it
// covers whatever the loop body touches without a static record of
// what that is; the fault matrix's mid-loop retry cells are the guard
// that a restore resumes exactly where the committed iteration left off.
//
// On repeated failure the driver descends the graceful-degradation
// ladder: retry on the same plan, then on single-threaded volcano with
// shuffle elision and the restricted incremental steps off. Both rungs
// are byte-identical to the configured plan by the engine's
// cross-config oracles, so a degraded success returns exactly the rows
// the unfaulted run would have.

import (
	"context"
	"time"

	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// loopSnap is the captured mutable state of one loop operator. The
// key indexes are shared, not copied: every writer replaces them
// wholesale (snapshot, the merge step, InitLoop's reset), never mutates them
// in place, so a shared reference stays frozen. The keyed merge's key
// index, which its merges do change in place, is not captured at all: it
// is trusted only for the table it describes, and a restore binds clones.
type loopSnap struct {
	iterations  int
	updates     int64
	lastUpdate  int64
	prev        *rowIndex
	prevCount   int
	key         int
	changedKeys *sqltypes.KeyTable
}

func snapLoop(l *LoopState) loopSnap {
	return loopSnap{
		iterations: l.iterations, updates: l.updates, lastUpdate: l.lastUpdate,
		prev: l.prev, prevCount: l.prevCount, key: l.key,
		changedKeys: l.changedKeys,
	}
}

func (s loopSnap) apply(l *LoopState) {
	l.iterations, l.updates, l.lastUpdate = s.iterations, s.updates, s.lastUpdate
	l.prev, l.prevCount, l.key = s.prev, s.prevCount, s.key
	l.changedKeys = s.changedKeys
}

// checkpoint is one captured execution state: the pc to resume at, a
// clone of every tracked result slot (nil marks a slot absent at
// capture, e.g. a rename source), the loop-operator states, the stats
// and the trace watermark.
type checkpoint struct {
	pc        int
	tables    map[string]*storage.Table
	loops     map[*LoopState]loopSnap
	stats     Stats
	spans     int
	traceLast Stats
}

// loopStates collects the distinct loop operators of the program, in
// step order.
func (p *Program) loopStates() []*LoopState {
	var out []*LoopState
	seen := map[*LoopState]bool{}
	note := func(l *LoopState) {
		if l != nil && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	for _, s := range p.Steps {
		switch st := s.(type) {
		case *InitLoopStep:
			note(st.Loop)
		case *UpdateLoopStep:
			note(st.Loop)
		case *LoopStep:
			note(st.Loop)
		case *CopyBackStep:
			note(st.Loop)
		case *MergeStep:
			note(st.Loop)
		}
	}
	return out
}

// capture snapshots the loop-carried state at a back-edge (or at pc 0,
// the initial checkpoint covering pre-loop failures). Tables clone
// cheaply — fresh partition slices sharing the immutable rows — so a
// checkpoint costs O(rows) pointer copies, not a data copy.
func (p *Program) capture(ctx *Context, pc int) *checkpoint {
	cp := &checkpoint{
		pc:     pc,
		tables: make(map[string]*storage.Table, len(ctx.created)),
		loops:  make(map[*LoopState]loopSnap),
	}
	for name := range ctx.created {
		if t := ctx.RT.Results.Get(name); t != nil {
			cp.tables[name] = t.Clone()
		} else {
			cp.tables[name] = nil
		}
	}
	for _, l := range p.loopStates() {
		cp.loops[l] = snapLoop(l)
	}
	cp.stats = *ctx.Stats
	if ctx.Trace != nil {
		cp.spans, cp.traceLast = ctx.Trace.mark()
	}
	return cp
}

// restore rewinds the execution to a checkpoint: slots created after
// the capture are dropped, every captured slot is re-bound to a fresh
// clone (Rename mutates Table.Name in place, so the checkpoint's own
// clone must never be handed to the store), loop operators and stats
// roll back — all but the retry counters and the trace — and the trace
// discards the abandoned attempt's spans.
func (p *Program) restore(ctx *Context, cp *checkpoint) {
	for name := range ctx.created {
		if _, tracked := cp.tables[name]; !tracked {
			ctx.RT.Results.Drop(name)
			delete(ctx.created, name)
		}
	}
	for name, t := range cp.tables {
		if t == nil {
			ctx.RT.Results.Drop(name)
			continue
		}
		ctx.RT.Results.Put(name, t.Clone())
		ctx.track(name)
	}
	for l, s := range cp.loops {
		s.apply(l)
	}
	s := ctx.Stats
	retries, degradations, trace := s.Retries, s.Degradations, s.Trace
	*s = cp.stats
	s.Retries, s.Degradations, s.Trace = retries, degradations, trace
	if ctx.Trace != nil {
		ctx.Trace.rewind(cp.spans, cp.traceLast)
	}
}

// runCheckpointed is the retry-enabled step driver: run steps as usual,
// capture at every loop back-edge, and on a retryable failure restore
// the newest checkpoint and re-run from it — up to Retry.MaxAttempts
// times per checkpoint with doubling backoff, then one degradation
// rung down (unless NoDegrade), failing only when the ladder is
// exhausted. Cancellations, deadlines and iteration-cap failures are
// final and surface immediately.
func (p *Program) runCheckpointed(ctx *Context) error {
	cp := p.capture(ctx, 0)
	attempts := 0
	backoff := p.Retry.Backoff
	pc := 0
	for pc < len(p.Steps) {
		next, err := p.runStep(ctx, pc)
		if err != nil {
			if !retryable(err) {
				return err
			}
			if attempts >= p.Retry.MaxAttempts {
				if p.Retry.NoDegrade || !ctx.degradeOnce() {
					return err
				}
				attempts = 0
				backoff = p.Retry.Backoff
			}
			attempts++
			ctx.Stats.Retries++
			if ctx.Trace != nil {
				ctx.Trace.noteRetry(int(cp.stats.Iterations)+1, pc+1, ctx.rungName(), err)
			}
			if werr := waitBackoff(ctx.Ctx, backoff); werr != nil {
				return err // context fired during backoff: report the original failure
			}
			backoff *= 2
			p.restore(ctx, cp)
			pc = cp.pc
			continue
		}
		if _, isLoop := p.Steps[pc].(*LoopStep); isLoop {
			// The back-edge: one iteration (or the pre-loop prefix)
			// committed. Checkpoint whatever comes next — another
			// iteration or the fall-through — and reset the attempt
			// budget.
			cp = p.capture(ctx, next)
			attempts = 0
			backoff = p.Retry.Backoff
		}
		pc = next
	}
	return nil
}

// waitBackoff sleeps the retry backoff, honoring the query's context:
// a cancellation or deadline during the wait aborts the retry.
func waitBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
