package core

import (
	"fmt"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// LoopState is the mutable state of one loop operator: the iteration
// and update counters plus the previous-iteration snapshot kept for
// Delta termination (§VI-B).
type LoopState struct {
	Term ast.Termination
	// CTEName is the main CTE result the Data/Delta conditions inspect.
	CTEName string
	// CondPlan evaluates the Data termination expression: a count of
	// CTE rows satisfying the user expression (built by the rewrite).
	CondPlan plan.Node

	// Cap, when positive, is the safety guard the rewrite installs on
	// every loop (Options.loopCap): a loop that still wants to continue
	// after Cap completed iterations fails with ErrIterationCapExceeded
	// instead of spinning forever.
	Cap int64
	// Counted marks a Delta loop whose merge counts the rows each
	// iteration changes (a recursive CTE's): the condition reads that
	// count instead of comparing the CTE with a snapshot of it.
	Counted bool

	loopRun

	// The handles below stay out of loopRun, so a checkpoint neither
	// copies nor restores them. seen is a UNION recursion's set of the
	// CTE's rows (rowSet) and index a keyed merge's key index (trusts);
	// each is trusted only for the table it describes, seenOf and
	// indexOf, and a restore binds clones, which neither describes.
	// workingSets stamps the fingerprint of every working set a UNION ALL
	// recursion has had with the iteration that added it (0: the base
	// term), for repeats; it is shared, because a restored loop reads
	// only stamps below the iteration it runs again, which the abandoned
	// attempt cannot have written.
	seen        *sqltypes.KeyTable
	seenOf      *storage.Table
	index       *keyIndex
	indexOf     *storage.Table
	workingSets map[string]int

	// cont is the continue variable (§VI-B) the last LoopStep.Run
	// computed; the step loop reads it to take the back-edge.
	cont bool
}

// loopRun is the per-run state of one loop operator, which InitLoopStep
// resets, a checkpoint captures and restores whole, and releaseLoops
// clears: its counters, the Delta condition's snapshot of the previous
// iteration by key, and what the loop's incremental step carries across
// the back-edge (changeSet, aggSnap). A checkpoint shares what it
// captures rather than copy it: every writer replaces these wholesale,
// never mutates or lets them go, so a shared reference stays frozen; the
// snapshot table, which the store releases, the checkpoint holds too.
// The change set's rows are the exception: the keyed merges publish each
// set in the storage of the last (keyIndex.rows), so a checkpoint copies
// them.
type loopRun struct {
	iterations int
	updates    int64
	lastUpdate int64
	prev       *rowIndex // Delta: previous iteration by key
	prevCount  int
	changes    changeSet
	// aggSnap is the CTE table MaintainAggStep last computed its output
	// from (nil: it has not run yet), held (keepSnap), since the rename
	// that displaces it from the CTE's slot would otherwise hand its rows
	// back before the next iteration diffs against them.
	aggSnap *storage.Table
}

// keepSnap makes t (nil: none) the maintenance snapshot and holds it,
// and lets go of the snapshot it replaces.
func (r *loopRun) keepSnap(t *storage.Table) {
	if !test.unheldSnapshot {
		if t != nil {
			t.Hold()
		}
		if r.aggSnap != nil {
			r.aggSnap.Unhold()
		}
	}
	r.aggSnap = t
}

// test is zero outside tests: the seeded mutants (export_test.go) of the
// snapshot's holds, a snapshot the loop does not hold and one a
// checkpoint does not, and of the keyed merge's ownership, a merge that
// keeps one CTE row it should copy.
var test struct{ unheldSnapshot, unheldCheckpoint, uncopiedSurvivor bool }

// changeSet is what a keyed merge identified as changed, for the loop's
// DeltaMaterializeStep, which asks for it (wanted) the first time it
// runs: from then on every keyed merge of the loop publishes how many
// distinct keys it changed and, unless they are dense in the table it
// produced (keepsRows), the rows it replaced with different values or
// appended. Until one has (merged), there is nothing to restrict by.
type changeSet struct {
	wanted, merged bool
	rows           []sqltypes.Row
	keys           int
}

// noteUpdates records the changed-row count of one identification pass
// (copy-back or merge), driving UNTIL n UPDATES termination.
func (l *LoopState) noteUpdates(n int64) {
	l.updates += n
	l.lastUpdate = n
}

// InitLoopStep initializes the loop operator right after the
// non-iterative part (Table I step 2).
type InitLoopStep struct {
	Loop *LoopState
}

// Run implements Step.
func (s *InitLoopStep) Run(ctx *Context) error {
	s.Loop.keepSnap(nil)
	s.Loop.loopRun = loopRun{}
	s.Loop.workingSets = nil
	s.Loop.dropRowSet(ctx)
	s.Loop.indexOf = nil
	if s.Loop.Term.Type == ast.TermDelta && !s.Loop.Counted {
		return s.Loop.snapshot(ctx)
	}
	return nil
}

// Explain implements Step.
func (s *InitLoopStep) Explain() string {
	return fmt.Sprintf("Initialize loop operator <<Type:%s, %s>> (counter to zero).",
		s.Loop.Term.Type, loopParams(s.Loop.Term))
}

func loopParams(t ast.Termination) string {
	switch t.Type {
	case ast.TermMetadata:
		unit := "iterations"
		if t.CountUpdates {
			unit = "updates"
		}
		return fmt.Sprintf("N:%d %s, Expr:NONE", t.N, unit)
	case ast.TermData:
		kw := "ALL"
		if t.Any {
			kw = "ANY"
		}
		return fmt.Sprintf("N:-, Expr:%s(%s)", kw, t.Expr)
	case ast.TermDelta:
		return fmt.Sprintf("N:%d changed rows, Expr:NONE", t.N)
	}
	return "?"
}

// UpdateLoopStep advances the loop state at the end of an iteration
// (Table I step 5: increment counter).
type UpdateLoopStep struct {
	Loop *LoopState
}

// Run implements Step.
func (s *UpdateLoopStep) Run(ctx *Context) error {
	s.Loop.iterations++
	ctx.Stats.Iterations++
	if ctx.Trace != nil {
		// The iteration boundary: record wall clock since the previous
		// boundary, the rows written this iteration, and the frontier
		// the identification pass found (0 on the rename path).
		ctx.Trace.noteIteration(s.Loop.iterations, ctx.Stats, s.Loop.lastUpdate)
	}
	return nil
}

// Explain implements Step.
func (s *UpdateLoopStep) Explain() string {
	return "Increment loop counter by 1."
}

// LoopStep is the new loop operator (§VI-B): evaluate the continue
// variable; the step loop then jumps back to the first iterative step or
// falls through.
type LoopStep struct {
	Loop *LoopState
	// BodyStart is the step index of the first iterative step (Table I
	// step 3, "Go to step 3 if ...").
	BodyStart int
}

// Run implements Step: it decides whether the loop goes on and sweeps,
// at the back-edge, the run memo (exec.Memo.Sweep) and the MPP machine's
// exchange sites (mpp.Machine.Sweep).
func (s *LoopStep) Run(ctx *Context) error {
	cont, err := s.Loop.shouldContinue(ctx)
	if err != nil {
		return err
	}
	// The back-edge: indexes the finished iteration did not ask for are
	// of tables it replaced (exec.Memo); exchange buffers it did not fill,
	// and hash tables and row chunks no run took since the last back-edge,
	// are an earlier iteration's (mpp's sites, the memo's spares and free
	// list). What the run filled or let go before its first back-edge
	// stays, for the statement's next run.
	ctx.RT.Memo().Sweep()
	ctx.MPP.Sweep()
	// The safety guard: refuse to start an iteration past the cap. The
	// check sits after shouldContinue so a loop whose own condition fires
	// exactly at the cap still succeeds.
	if cont && s.Loop.Cap > 0 && int64(s.Loop.iterations) >= s.Loop.Cap {
		return &IterationCapError{CTE: s.Loop.CTEName, Cap: s.Loop.Cap}
	}
	s.Loop.cont = cont
	return nil
}

// Explain implements Step.
func (s *LoopStep) Explain() string {
	if s.Loop.Cap > 0 {
		return fmt.Sprintf("Go to step %d if continue (%s); guard: fail after %d iterations.",
			s.BodyStart+1, s.Loop.Term, s.Loop.Cap)
	}
	return fmt.Sprintf("Go to step %d if continue (%s).", s.BodyStart+1, s.Loop.Term)
}

// shouldContinue computes the continue variable for the three
// termination types.
func (l *LoopState) shouldContinue(ctx *Context) (bool, error) {
	switch l.Term.Type {
	case ast.TermMetadata:
		if l.Term.CountUpdates {
			// The counter advances by the changed rows of the
			// identification pass, not the materialized row count. When
			// an iteration changes nothing the CTE has reached a
			// fixpoint: Ri is deterministic over the CTE and the
			// iteration-invariant base tables, so every further
			// iteration reproduces the same table and the counter would
			// never reach N — stop instead of spinning forever.
			return l.updates < l.Term.N && l.lastUpdate > 0, nil
		}
		return int64(l.iterations) < l.Term.N, nil

	case ast.TermData:
		// SELECT count(*) FROM cteTable WHERE expr (§VI-B).
		rows, err := exec.RunContext(ctx.Ctx, l.CondPlan, ctx.RT, &ctx.Stats.ExecStats)
		if err != nil {
			return false, err
		}
		if len(rows) != 1 || len(rows[0]) != 2 {
			return false, fmt.Errorf("termination condition for %s returned unexpected shape", l.CTEName)
		}
		matching := rows[0][0].Int()
		total := rows[0][1].Int()
		if l.Term.Any {
			return matching == 0, nil // stop as soon as any row satisfies
		}
		return matching < total, nil // stop when all rows satisfy

	case ast.TermDelta:
		if l.Counted {
			return l.lastUpdate >= l.Term.N, nil
		}
		changed, err := l.changedRows(ctx)
		if err != nil {
			return false, err
		}
		if err := l.snapshot(ctx); err != nil {
			return false, err
		}
		return changed >= l.Term.N, nil
	}
	return false, fmt.Errorf("loop for %s: unknown termination type %v", l.CTEName, l.Term.Type)
}

// rowSet returns the set of cte's rows for a UNION merge: the last
// round's when it describes cte, else built anew. It describes no table
// until the merge sets seenOf to its output.
func (l *LoopState) rowSet(ctx *Context, cte *storage.Table) *sqltypes.KeyTable {
	if l.seen == nil || l.seenOf != cte {
		ctx.letGo(l.seen)
		l.seen = ctx.keyTable(len(cte.Schema), cte.Len())
		for _, part := range cte.Parts {
			for _, r := range part {
				l.seen.Insert(r)
			}
		}
	}
	l.seenOf = nil
	return l.seen
}

// dropRowSet lets the row set go, for the next run or the next loop.
func (l *LoopState) dropRowSet(ctx *Context) {
	ctx.letGo(l.seen)
	l.seen, l.seenOf = nil, nil
}

// repeats records rows, the working set the running iteration of a
// UNION ALL recursion added, and reports whether an earlier iteration,
// or base, the set the loop started from, had it: then it cycles.
func (l *LoopState) repeats(rows []sqltypes.Row, base func() []sqltypes.Row) bool {
	iter := l.iterations + 1
	if l.workingSets == nil {
		l.workingSets = map[string]int{}
	}
	if iter == 1 {
		l.workingSets[fingerprint(base())] = 0
	}
	fp := fingerprint(rows)
	if at, ok := l.workingSets[fp]; ok && at < iter {
		return true
	}
	l.workingSets[fp] = iter
	return false
}

// snapshot captures the CTE table for the next Delta comparison.
func (l *LoopState) snapshot(ctx *Context) error {
	t := ctx.RT.Results.Get(l.CTEName)
	if t == nil {
		return fmt.Errorf("delta termination: result %q not found", l.CTEName)
	}
	// Rows too short to carry the key column are invisible to the
	// comparison on both sides: they are skipped here AND excluded from
	// prevCount, so the disappeared-row adjustment in changedRows only
	// accounts for keyed rows (a short row can neither match nor
	// disappear). The snapshot keeps t's rows past its release.
	t.Pin()
	l.prev = ctx.rowIndex(keyCol, t.Len())
	l.prevCount = 0
	for _, part := range t.Parts {
		for _, r := range part {
			if keyCol < len(r) {
				l.prev.put(r)
				l.prevCount++
			}
		}
	}
	return nil
}

// changedRows counts rows that differ from the previous iteration.
func (l *LoopState) changedRows(ctx *Context) (int64, error) {
	t := ctx.RT.Results.Get(l.CTEName)
	if t == nil {
		return 0, fmt.Errorf("delta termination: result %q not found", l.CTEName)
	}
	var changed int64
	seen := 0
	for _, part := range t.Parts {
		for _, r := range part {
			if keyCol >= len(r) {
				continue // short rows are skipped by snapshot too
			}
			seen++
			prev, ok := l.prev.get(r)
			if !ok || !prev.Equal(r) {
				changed++
			}
		}
	}
	// Rows that disappeared count as changes too.
	if l.prevCount > seen {
		changed += int64(l.prevCount - seen)
	}
	return changed, nil
}
