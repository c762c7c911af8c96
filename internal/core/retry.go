package core

// Iteration-granular checkpoint/retry (Options.MaxRetries): the loop
// back-edge is the natural recovery unit of an iterative program —
// every slot the loop body rebinds is rebuilt from the loop-carried
// state, so snapshotting that state at the back-edge lets a failed
// iteration be re-run in place instead of restarting the query from
// iteration zero (the REX / Spinning Fast Iterative Data Flows
// argument applied inside the database). The checkpoint captures every
// tracked result slot plus every loop operator's per-run state, so it
// covers whatever the loop body touches without a static record of
// what that is; the fault matrix's mid-loop retry cells are the guard
// that a restore resumes exactly where the committed iteration left off.
// The step loop (steploop.go) is the one driver: it captures, and on a
// failure of a step or of Qf restores the newest checkpoint and runs on
// from there, so a retried run counts exactly what an unfaulted one does.
//
// On repeated failure the driver descends the graceful-degradation
// ladder: retry on the same plan, then on single-threaded volcano with
// shuffle elision and the restricted incremental steps off. Both rungs
// are byte-identical to the configured plan by the engine's
// cross-config oracles, so a degraded success returns exactly the rows
// the unfaulted run would have.

import (
	"slices"

	"dbspinner/internal/storage"
)

// checkpoint is one captured execution state: the pc to resume at, a
// clone of every tracked result slot (nil marks a slot absent at
// capture, e.g. a rename source), the loop operators' per-run states,
// the stats, the run memo's entry mark and the trace watermark. Its
// clones hold their tables (storage.Table.Clone), and it holds each
// loop's maintenance snapshot (loopRun.aggSnap), until it is released:
// a table the run displaces meanwhile hands its rows back then, so a run
// with checkpoints frees what one without does.
type checkpoint struct {
	pc        int
	tables    map[string]*storage.Table
	loops     map[*LoopState]loopRun
	stats     Stats
	memo      int
	spans     int
	traceLast Stats
}

// loopStates calls f on every loop operator of the program, in step
// order: each has one InitLoopStep.
func (p *Program) loopStates(f func(*LoopState)) {
	for _, s := range p.Steps {
		if init, ok := s.(*InitLoopStep); ok {
			f(init.Loop)
		}
	}
}

// capture snapshots the loop-carried state at a back-edge (or at pc 0,
// the initial checkpoint covering pre-loop failures). Tables clone
// cheaply — fresh partition slices sharing the immutable rows — so a
// checkpoint costs O(rows) pointer copies, not a data copy.
func (p *Program) capture(ctx *Context, pc int) *checkpoint {
	cp := &checkpoint{
		pc:     pc,
		tables: make(map[string]*storage.Table, len(ctx.created)),
		loops:  make(map[*LoopState]loopRun),
	}
	for name := range ctx.created {
		if t := ctx.RT.Results.Get(name); t != nil {
			cp.tables[name] = t.Clone()
		} else {
			cp.tables[name] = nil
		}
	}
	p.loopStates(func(l *LoopState) {
		run := l.loopRun
		run.changes.rows = slices.Clone(run.changes.rows)
		cp.loops[l] = run
		if l.aggSnap != nil && !test.unheldCheckpoint {
			l.aggSnap.Hold()
		}
	})
	cp.stats = *ctx.Stats
	cp.memo = ctx.RT.Memo().Mark()
	if ctx.Trace != nil {
		cp.spans, cp.traceLast = ctx.Trace.mark()
	}
	return cp
}

// release lets go of the clones and the snapshot tables cp holds (nil:
// none); the step loop calls it before a newer checkpoint replaces cp,
// so that what the committed iteration displaced is freed before the
// newer one captures the stats, and when it returns.
func (cp *checkpoint) release() {
	if cp == nil {
		return
	}
	for _, t := range cp.tables {
		if t != nil {
			t.LetGo()
		}
	}
	if test.unheldCheckpoint {
		return
	}
	for _, run := range cp.loops {
		if run.aggSnap != nil {
			run.aggSnap.Unhold()
		}
	}
}

// restore rewinds the execution to a checkpoint: the run memo's entries
// made since the capture go, slots created after it are dropped, every
// captured slot is re-bound to a fresh clone (Rename mutates Table.Name
// in place, so the checkpoint's own clone must never be handed to the
// store), loop operators and stats roll back — all but the retry
// counters and the trace — and the trace discards the abandoned
// attempt's spans. The entries go first so that every table the
// abandoned attempt made and let go hands its rows back here, before the
// stats roll back: FreedCells, like every work counter, then reads what
// an unfaulted run's does.
func (p *Program) restore(ctx *Context, cp *checkpoint) {
	ctx.RT.Memo().Rewind(cp.memo)
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
	for l, run := range cp.loops {
		l.keepSnap(run.aggSnap)
		l.loopRun = run
	}
	s := ctx.Stats
	retries, degradations, trace := s.Retries, s.Degradations, s.Trace
	*s = cp.stats
	s.Retries, s.Degradations, s.Trace = retries, degradations, trace
	if ctx.Trace != nil {
		ctx.Trace.rewind(cp.spans, cp.traceLast)
	}
}
