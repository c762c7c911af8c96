// Package verify statically checks compiled step programs (core.Program)
// against the structural invariants of the paper's Table I plans, before
// any step executes. The rewrite and the optimizer in internal/core are
// the only producers of step programs; a bug there — a mis-wired Loop
// jump, a rename between incompatible results, a predicate pushed past a
// termination condition that observes it — silently produces wrong
// answers. This package re-derives the invariants from the finished
// program (and, for push down, from the original AST) so the producer
// and the checker fail independently.
//
// The verifier is wired into core.Rewrite behind Options.Verify through
// core.RegisterVerifier; importing this package arms it. The engine
// imports it, so every query the engine plans is verified by default.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// Diagnostic classes. Each names one invariant of the step program.
const (
	// ClassBadJump: a LoopStep's jump target is out of range, not a
	// backward jump, or wired so the loop-counter initialization is
	// skipped or re-executed every iteration.
	ClassBadJump = "bad-jump"
	// ClassUseBeforeMaterialize: a step (or a plan inside a step)
	// consumes an intermediate result no earlier step materialized.
	ClassUseBeforeMaterialize = "use-before-materialize"
	// ClassSchemaMismatch: a rename/merge/copy-back pairs results whose
	// schemas are incompatible.
	ClassSchemaMismatch = "schema-mismatch"
	// ClassDeadTermination: a loop's termination condition references a
	// result that is not live where the condition is evaluated.
	ClassDeadTermination = "dead-termination"
	// ClassLeak: an intermediate result created inside the loop body is
	// still live when the program ends without the final query reading
	// it — per-iteration working tables must be renamed away, merged or
	// dropped.
	ClassLeak = "leaked-intermediate"
	// ClassUnsafePush: a predicate recorded as pushed below the loop
	// fails the independent re-derivation of the §V-B safety conditions.
	ClassUnsafePush = "unsafe-pushdown"
	// ClassUnsafeDelta: a DeltaMaterializeStep's Ri does not read the
	// frontier input exactly once — never, and the restriction is
	// vacuous; more than once, and an inner reference, which must keep
	// reading the full CTE, is restricted too — or the step does not sit
	// in the body of its own loop, whose keyed merges publish the change
	// sets it restricts by.
	ClassUnsafeDelta = "unsafe-delta"
	// ClassPrematureTruncate: a step (or the final query, or a
	// termination condition) reads a result after a TruncateStep dropped
	// it — the liveness analysis placed a truncation before the result's
	// true last use.
	ClassPrematureTruncate = "premature-truncate"
	// ClassPrunedColumnUse: a plan reads a column of an intermediate
	// result that the result's materialization does not provide, or the
	// rewrite narrowed an iterative CTE's schema below what the original
	// statement still observes — the projection pruning dropped a live
	// column.
	ClassPrunedColumnUse = "pruned-column-use"
	// ClassUnsoundAggClaim: the program records a licensed incremental
	// claim (core.Program.AggClaims) — or installs a DeltaMaterializeStep
	// or MaintainAggStep — that the independent re-derivation of the
	// frontier license (chain shape, outer key at the head, group-key
	// stability, routing) cannot re-prove: e.g. a step with no claim, a
	// group key that drifts across the back-edge, or an inner CTE
	// reference whose changes are invisible to the frontier.
	ClassUnsoundAggClaim = "unsound-agg-claim"
	// ClassStaleAccumulator: a MaintainAggStep's wiring would let the
	// cached per-group rows go stale. The cache is the CTE itself, the
	// previous iteration's output, so inside the body of the step's loop
	// the CTE's only writer must be the rename or copy-back of the step's
	// working table, after the step (a CTE published before the diff
	// compares the already-merged table with itself), and nothing else
	// may write that working table. The step must also sit in that body,
	// and its Ri must read the frontier input exactly once, in place of
	// the outer reference, not an inner one.
	ClassStaleAccumulator = "stale-accumulator"
)

// Classes lists every diagnostic class the verifier can report.
var Classes = []string{
	ClassBadJump, ClassUseBeforeMaterialize, ClassSchemaMismatch,
	ClassDeadTermination, ClassLeak, ClassUnsafePush,
	ClassUnsafeDelta,
	ClassPrematureTruncate, ClassPrunedColumnUse,
	ClassUnsoundDistProp, ClassMissingExchange,
	ClassUnsoundAggClaim, ClassStaleAccumulator,
}

// ClassCount is the number of distinct diagnostic classes.
var ClassCount = len(Classes)

// Diagnostic is one verifier finding, citing the 1-based step index that
// Program.Explain prints ("Step %d: ..."); Step 0 marks program-level
// findings.
type Diagnostic struct {
	Step    int
	Class   string
	Message string
}

func (d Diagnostic) String() string {
	if d.Step > 0 {
		return fmt.Sprintf("Step %d: [%s] %s", d.Step, d.Class, d.Message)
	}
	return fmt.Sprintf("Program: [%s] %s", d.Class, d.Message)
}

// Error aggregates diagnostics into one error value, as returned to
// core.Rewrite when verification fails.
type Error struct {
	Diags []Diagnostic
}

func (e *Error) Error() string {
	parts := make([]string, len(e.Diags))
	for i, d := range e.Diags {
		parts[i] = d.String()
	}
	return "program verification failed: " + strings.Join(parts, "; ")
}

func init() {
	core.RegisterVerifier(func(p *core.Program, stmt *ast.SelectStmt) error {
		if diags := Check(p, stmt); len(diags) > 0 {
			return &Error{Diags: diags}
		}
		return nil
	})
}

// Check runs every structural invariant over a compiled program. stmt is
// the original statement the program was rewritten from; it is only
// needed for the push-down re-check and may be nil when the program
// records no pushed predicates.
func Check(prog *core.Program, stmt *ast.SelectStmt) []Diagnostic {
	s := &sim{
		prog:      prog,
		live:      map[string]*resultInfo{},
		inits:     map[*core.LoopState]int{},
		deltas:    map[string]bool{},
		truncated: map[string]int{},
	}
	s.run()
	s.checkLoopState()
	s.checkLeaks()
	s.diags = append(s.diags, checkLicense(prog, stmt)...)
	s.diags = append(s.diags, checkPushdown(prog, stmt)...)
	s.diags = append(s.diags, checkPruning(prog, stmt)...)
	s.diags = append(s.diags, checkDistProps(prog)...)
	sort.SliceStable(s.diags, func(i, j int) bool { return s.diags[i].Step < s.diags[j].Step })
	return s.diags
}

// resultInfo tracks one live intermediate result during simulation.
type resultInfo struct {
	schema sqltypes.Schema
	// display is the name as the step spelled it (live keys are
	// lowercased).
	display string
	// createdAt is the 0-based index of the step that first bound the
	// name; re-binding the same name (per-iteration re-materialization,
	// rename over an existing result) keeps the first index, since the
	// name's lifetime — what the leak invariant is about — started
	// there.
	createdAt int
}

// sim is an abstract interpretation of the step program: it tracks which
// result names are live (and with what schema) at each step, following
// the linear order and then once more around each loop body, so
// second-iteration breakage (a body step consuming a result the first
// iteration renamed away) is caught too.
type sim struct {
	prog  *core.Program
	diags []Diagnostic
	live  map[string]*resultInfo
	inits map[*core.LoopState]int
	// bodies are the [start, loopStep] intervals of verified loops,
	// used by the leak check.
	bodies [][2]int
	// deltas are the (normalized) delta-table names recursive rounds'
	// MergeSteps publish; they live across iterations by design and are
	// released by the program cleanup, so the leak check exempts them.
	deltas map[string]bool
	// truncated maps (normalized) result names to the 0-based index of
	// the TruncateStep that most recently dropped them, so a later read
	// is diagnosed as premature truncation rather than a result that
	// never existed. Re-materializing the name clears the entry.
	truncated map[string]int
}

// readMissing files the diagnostic for a consumer of a result that is
// not live: premature-truncate when an earlier TruncateStep dropped it,
// use-before-materialize otherwise. what names the consumer ("merge",
// "materialize Intermediate#t", ...) and verb how it reads ("reads",
// "consumes", "targets"), matching the per-step message wording.
func (s *sim) readMissing(i int, what, verb, name, suffix string) {
	if at, ok := s.truncated[norm(name)]; ok {
		s.addf(i, ClassPrematureTruncate, "%s %s result %q after step %d truncated it%s", what, verb, name, at+1, suffix)
		return
	}
	s.addf(i, ClassUseBeforeMaterialize, "%s %s result %q before any step materializes it%s", what, verb, name, suffix)
}

// checkResultCols verifies that every intermediate-result read inside a
// plan only names columns the producing step actually materialized.
// Projection pruning narrows producer schemas; a reader still resolving
// a pruned column means the liveness analysis and the plan disagree.
// Reads of in, a (normalized) transient name the step binds to as, are
// resolved against as's materialization.
func (s *sim) checkResultCols(i int, what string, n plan.Node, suffix, in, as string) {
	for _, r := range planResultNodes(n) {
		name := norm(r.Name)
		if name == in {
			name = norm(as)
		}
		info := s.live[name]
		if info == nil {
			continue // the liveness fault is reported separately
		}
		for _, c := range r.Cols {
			if !schemaHasColumn(info.schema, c.Name) {
				s.addf(i, ClassPrunedColumnUse, "%s reads column %q of result %q, which its materialization does not provide%s", what, c.Name, r.Name, suffix)
			}
		}
	}
}

func schemaHasColumn(schema sqltypes.Schema, name string) bool {
	for _, c := range schema {
		if strings.EqualFold(c.Name, name) {
			return true
		}
	}
	return false
}

func (s *sim) addf(step int, class, format string, args ...interface{}) {
	s.diags = append(s.diags, Diagnostic{Step: step + 1, Class: class, Message: fmt.Sprintf(format, args...)})
}

func (s *sim) run() {
	for i := 0; i < len(s.prog.Steps); i++ {
		s.step(i, s.prog.Steps[i], false)
	}
}

// step interprets one step. On the reEntry pass (the second trip around
// a loop body) only consumption and schema faults are reported — the
// structural wiring was already checked — but state transitions still
// apply so the re-entry view is accurate.
func (s *sim) step(i int, st core.Step, reEntry bool) {
	c := simCases{sim: s, i: i, reEntry: reEntry}
	if reEntry {
		c.suffix = " (on loop re-entry)"
	}
	core.VisitStep[struct{}](st, c)
}

// simCases interprets step i of each kind; suffix marks the diagnostics
// of the reEntry pass.
type simCases struct {
	*sim
	i       int
	reEntry bool
	suffix  string
}

func (s simCases) Materialize(t *core.MaterializeStep) (_ struct{}) {
	for _, name := range planResults(t.Plan) {
		if s.live[name] == nil {
			s.readMissing(s.i, "materialize "+t.Into, "reads", name, s.suffix)
		}
	}
	s.checkResultCols(s.i, "materialize "+t.Into, t.Plan, s.suffix, "", "")
	s.bind(s.i, t.Into, plan.Schema(t.Plan))
	return
}

func (s simCases) DeltaMaterialize(t *core.DeltaMaterializeStep) (_ struct{}) {
	s.restrictedStep(s.i, &t.Restriction, "delta materialize", ClassUnsafeDelta, s.reEntry, s.suffix)
	if !s.reEntry && t.Loop == nil {
		s.addf(s.i, ClassUnsafeDelta, "delta materialize %s has no loop state to carry the changed-key set", t.Into)
	}
	s.bind(s.i, t.Into, plan.Schema(t.Plan))
	return
}

func (s simCases) MaintainAgg(t *core.MaintainAggStep) (_ struct{}) {
	s.restrictedStep(s.i, &t.Restriction, "aggregate maintenance", ClassStaleAccumulator, s.reEntry, s.suffix)
	s.bind(s.i, t.Into, plan.Schema(t.Plan))
	return
}

func (s simCases) Rename(t *core.RenameStep) (_ struct{}) {
	from, to := norm(t.From), norm(t.To)
	src := s.live[from]
	if src == nil {
		s.readMissing(s.i, "rename", "consumes", t.From, s.suffix)
		return
	}
	if dst := s.live[to]; dst != nil {
		if why := schemasCompatible(src.schema, dst.schema); why != "" {
			s.addf(s.i, ClassSchemaMismatch, "rename %s to %s replaces a result with an incompatible schema: %s%s", t.From, t.To, why, s.suffix)
		}
	}
	delete(s.live, from)
	s.bindInfo(t.To, src.schema, src.createdAt)
	return
}

func (s simCases) CopyBack(t *core.CopyBackStep) (_ struct{}) {
	from, to := s.live[norm(t.From)], s.live[norm(t.To)]
	if from == nil {
		s.readMissing(s.i, "copy-back", "consumes", t.From, s.suffix)
	}
	if to == nil {
		s.readMissing(s.i, "copy-back", "targets", t.To, s.suffix)
	}
	if from != nil && to != nil {
		if why := schemasCompatible(from.schema, to.schema); why != "" {
			s.addf(s.i, ClassSchemaMismatch, "copy-back pairs %s and %s with incompatible schemas: %s%s", t.From, t.To, why, s.suffix)
		}
	}
	if from != nil {
		delete(s.live, norm(t.From))
		s.bindInfo(t.To, from.schema, s.i)
	}
	return
}

func (s simCases) Merge(t *core.MergeStep) (_ struct{}) {
	cte, work := s.live[norm(t.CTE)], s.live[norm(t.Work)]
	if cte == nil {
		s.readMissing(s.i, "merge", "consumes", t.CTE, s.suffix)
	}
	if work == nil {
		s.readMissing(s.i, "merge", "consumes", t.Work, s.suffix)
	}
	if cte != nil && work != nil {
		if why := schemasCompatible(cte.schema, work.schema); why != "" {
			s.addf(s.i, ClassSchemaMismatch, "merge pairs %s and %s with incompatible schemas: %s%s", t.CTE, t.Work, why, s.suffix)
		}
		s.bind(s.i, t.Into, cte.schema)
		if t.Delta != "" {
			s.deltas[norm(t.Delta)] = true
			s.bind(s.i, t.Delta, cte.schema)
		}
	}
	return
}

func (s simCases) Truncate(t *core.TruncateStep) (_ struct{}) {
	if s.live[norm(t.Name)] == nil {
		s.readMissing(s.i, "truncate", "targets", t.Name, s.suffix)
		return
	}
	delete(s.live, norm(t.Name))
	s.truncated[norm(t.Name)] = s.i
	return
}

func (s simCases) InitLoop(t *core.InitLoopStep) (_ struct{}) {
	if t.Loop == nil {
		s.addf(s.i, ClassBadJump, "loop initialization has no loop state")
		return
	}
	if !s.reEntry {
		s.inits[t.Loop] = s.i
	}
	if t.Loop.Term.Type == ast.TermDelta && s.live[norm(t.Loop.CTEName)] == nil {
		if at, ok := s.truncated[norm(t.Loop.CTEName)]; ok {
			s.addf(s.i, ClassPrematureTruncate, "Delta termination snapshots result %q after step %d truncated it%s", t.Loop.CTEName, at+1, s.suffix)
		} else {
			s.addf(s.i, ClassDeadTermination, "Delta termination snapshots result %q, which is not live at loop initialization%s", t.Loop.CTEName, s.suffix)
		}
	}
	return
}

func (s simCases) UpdateLoop(t *core.UpdateLoopStep) (_ struct{}) {
	if t.Loop == nil {
		s.addf(s.i, ClassBadJump, "loop-counter update has no loop state")
	}
	return
}

func (s simCases) Loop(t *core.LoopStep) (_ struct{}) {
	s.loopStep(s.i, t, s.reEntry)
	return
}

// restrictedStep interprets what the two incremental steps share. The
// step reads the CTE itself and binds In to it, or to a filter of it,
// for Ri's outer reference; Ri is otherwise checked like an ordinary
// materialization, its reads of In resolving against the CTE's columns.
// The first pass re-derives the substitution invariant independently of
// the rewrite — In stands for exactly one reference, the outer one the
// rewrite swapped out — filed under the step kind's own class.
func (s *sim) restrictedStep(i int, t *core.Restriction, what, class string, reEntry bool, suffix string) {
	what += " " + t.Into
	in := norm(t.In)
	if s.live[norm(t.CTE)] == nil {
		s.readMissing(i, what, "reads", t.CTE, suffix)
	}
	reads := 0
	for _, name := range planResults(t.Plan) {
		if name == in {
			reads++ // bound transiently by the step itself
		} else if s.live[name] == nil {
			s.readMissing(i, what, "reads", name, suffix)
		}
	}
	s.checkResultCols(i, what, t.Plan, suffix, in, t.CTE)
	switch {
	case reEntry:
	case reads == 0:
		s.addf(i, class, "Ri of %s never reads %s; the frontier restriction is vacuous", t.Into, t.In)
	case reads > 1:
		s.addf(i, class, "Ri of %s reads %s %d times; only the one outer %s reference may read the frontier", t.Into, t.In, reads, t.CTE)
	}
}

// checkLoopState runs after the simulation: each incremental step keeps
// what it carries across the back-edge on its loop's state, so it must
// sit in the body of the LoopStep over that state — elsewhere a delta
// step would restrict by another loop's changes, and a maintenance step
// would never see a second iteration. A MaintainAggStep serves its
// cached groups from the CTE, so inside that body the CTE must change
// only by the rename or copy-back of the step's output, after the step,
// and nothing else may write that output: any other writer would hand
// the next iteration rows the step did not compute, and a CTE published
// before the diff compares the already-merged table with itself.
func (s *sim) checkLoopState() {
	// Body intervals from LoopSteps directly — s.bodies only records
	// loops that passed the jump checks, and this check should not be
	// masked by an unrelated jump fault.
	bodies := map[*core.LoopState][2]int{}
	for i, st := range s.prog.Steps {
		if l, ok := st.(*core.LoopStep); ok && l.Loop != nil && l.BodyStart >= 0 && l.BodyStart < i {
			bodies[l.Loop] = [2]int{l.BodyStart, i}
		}
	}
	inBody := func(i int, l *core.LoopState) ([2]int, bool) {
		b, ok := bodies[l]
		return b, ok && i >= b[0] && i <= b[1]
	}
	for i, st := range s.prog.Steps {
		switch t := st.(type) {
		case *core.DeltaMaterializeStep:
			if _, ok := inBody(i, t.Loop); !ok && t.Loop != nil {
				s.addf(i, ClassUnsafeDelta, "delta materialize %s sits outside the body of its loop; it would restrict by changes its own loop's merges did not make", t.Into)
			}
		case *core.MaintainAggStep:
			body, ok := inBody(i, t.Loop)
			if !ok {
				s.addf(i, ClassStaleAccumulator, "aggregate maintenance of %s sits outside every loop body over its loop state; its snapshot would never see a second iteration", t.CTE)
				continue
			}
			s.checkCacheWriters(i, t, body)
		}
	}
}

// checkCacheWriters enforces the one-writer rule of a MaintainAggStep
// at step i of body: the CTE changes only by the rename or copy-back of
// the step's output that follows it, and only the step writes that
// output.
func (s *sim) checkCacheWriters(i int, t *core.MaintainAggStep, body [2]int) {
	published := false
	for j := body[0]; j <= body[1]; j++ {
		if j == i {
			continue
		}
		e := deriveStepEffects(s.prog.Steps[j])
		switch {
		case hits(e.writes, []string{t.CTE}) && j < i:
			s.addf(i, ClassStaleAccumulator, "step %d publishes %s before the aggregate maintenance diffs it; the frontier would always be empty and cached groups would be served stale", j+1, t.CTE)
		case hits(e.writes, []string{t.CTE}) && publishes(s.prog.Steps[j], t) && !published:
			published = true
		case hits(e.writes, []string{t.CTE}):
			s.addf(i, ClassStaleAccumulator, "step %d also writes %s inside the loop body; its rows would be served as groups the maintenance computed", j+1, t.CTE)
		case hits(e.frees, []string{t.CTE}):
			s.addf(i, ClassStaleAccumulator, "step %d frees %s inside the loop body; the next iteration would have no cached groups to serve", j+1, t.CTE)
		case hits(e.writes, []string{t.Into}):
			s.addf(i, ClassStaleAccumulator, "step %d also writes %s inside the loop body; the CTE would not be the maintained output", j+1, t.Into)
		}
	}
	if !published {
		s.addf(i, ClassStaleAccumulator, "no rename or copy-back of %s into %s follows the aggregate maintenance in the loop body; the CTE it serves cached groups from would not be its output", t.Into, t.CTE)
	}
}

// publishes reports whether st moves t's output into its CTE.
func publishes(st core.Step, t *core.MaintainAggStep) bool {
	switch p := st.(type) {
	case *core.RenameStep:
		return norm(p.From) == norm(t.Into) && norm(p.To) == norm(t.CTE)
	case *core.CopyBackStep:
		return norm(p.From) == norm(t.Into) && norm(p.To) == norm(t.CTE)
	}
	return false
}

// loopStep verifies the loop operator's wiring: jump target, counter
// initialization and termination-condition liveness, then walks the
// body once more to catch second-iteration faults.
func (s *sim) loopStep(i int, t *core.LoopStep, reEntry bool) {
	if t.Loop == nil {
		s.addf(i, ClassBadJump, "loop step has no loop state")
		return
	}

	// Termination liveness is evaluated every iteration, so it is
	// checked on both passes.
	suffix := ""
	if reEntry {
		suffix = " (on loop re-entry)"
	}
	switch t.Loop.Term.Type {
	case ast.TermData:
		if t.Loop.CondPlan == nil {
			s.addf(i, ClassDeadTermination, "Data termination for %s has no condition plan%s", t.Loop.CTEName, suffix)
		} else {
			for _, name := range planResults(t.Loop.CondPlan) {
				if s.live[name] == nil {
					if at, ok := s.truncated[name]; ok {
						s.addf(i, ClassPrematureTruncate, "termination condition reads result %q after step %d truncated it%s", name, at+1, suffix)
					} else {
						s.addf(i, ClassDeadTermination, "termination condition reads result %q, which is not live at the loop step%s", name, suffix)
					}
				}
			}
			s.checkResultCols(i, "termination condition", t.Loop.CondPlan, suffix, "", "")
		}
	case ast.TermDelta:
		if s.live[norm(t.Loop.CTEName)] == nil {
			if at, ok := s.truncated[norm(t.Loop.CTEName)]; ok {
				s.addf(i, ClassPrematureTruncate, "Delta termination compares result %q after step %d truncated it%s", t.Loop.CTEName, at+1, suffix)
			} else {
				s.addf(i, ClassDeadTermination, "Delta termination compares result %q, which is not live at the loop step%s", t.Loop.CTEName, suffix)
			}
		}
	}

	if reEntry {
		return
	}

	// Jump-target wiring (first pass only — it does not change).
	switch {
	case t.BodyStart < 0 || t.BodyStart >= len(s.prog.Steps):
		s.addf(i, ClassBadJump, "jump target step %d is outside the %d-step program", t.BodyStart+1, len(s.prog.Steps))
		return
	case t.BodyStart >= i:
		s.addf(i, ClassBadJump, "jump target step %d is not a backward jump from step %d", t.BodyStart+1, i+1)
		return
	}
	initIdx, ok := s.inits[t.Loop]
	if !ok {
		s.addf(i, ClassBadJump, "no preceding step initializes this loop's counter state")
		return
	}
	if t.BodyStart <= initIdx {
		s.addf(i, ClassBadJump, "jump target step %d re-executes the loop initialization at step %d every iteration", t.BodyStart+1, initIdx+1)
		return
	}

	// Walk the body once more: faults that only appear on the second
	// iteration (a body step consuming a result the first iteration
	// renamed away) surface here.
	s.bodies = append(s.bodies, [2]int{t.BodyStart, i})
	for j := t.BodyStart; j <= i; j++ {
		s.step(j, s.prog.Steps[j], true)
	}
}

// checkLeaks runs after the simulation: anything still live that the
// final query does not read must not have been created inside a loop
// body. Pre-loop materializations (the CTE seed, Common#k blocks) are
// constant-size and released by Program.Run's cleanup; a loop-body
// result surviving to the end means an iteration forgot to rename,
// merge or drop its working table.
func (s *sim) checkLeaks() {
	finalRefs := map[string]bool{}
	if s.prog.Final != nil {
		for _, name := range planResults(s.prog.Final) {
			finalRefs[name] = true
			if s.live[name] == nil {
				if at, ok := s.truncated[name]; ok {
					s.diags = append(s.diags, Diagnostic{Class: ClassPrematureTruncate,
						Message: fmt.Sprintf("final query reads result %q after step %d truncated it", name, at+1)})
				} else {
					s.diags = append(s.diags, Diagnostic{Class: ClassUseBeforeMaterialize,
						Message: fmt.Sprintf("final query reads result %q, which is not live when the steps complete", name)})
				}
			}
		}
		for _, r := range planResultNodes(s.prog.Final) {
			info := s.live[norm(r.Name)]
			if info == nil {
				continue
			}
			for _, c := range r.Cols {
				if !schemaHasColumn(info.schema, c.Name) {
					s.diags = append(s.diags, Diagnostic{Class: ClassPrunedColumnUse,
						Message: fmt.Sprintf("final query reads column %q of result %q, which its materialization does not provide", c.Name, r.Name)})
				}
			}
		}
	}
	for name, info := range s.live {
		if finalRefs[name] || s.deltas[name] {
			continue
		}
		for _, b := range s.bodies {
			if info.createdAt >= b[0] && info.createdAt <= b[1] {
				s.addf(info.createdAt, ClassLeak, "result %q created inside the loop body is still live when the program ends and the final query never reads it", info.display)
				break
			}
		}
	}
}

// bind registers (or re-binds) a result name.
func (s *sim) bind(i int, name string, schema sqltypes.Schema) {
	s.bindInfo(name, schema, i)
}

func (s *sim) bindInfo(name string, schema sqltypes.Schema, createdAt int) {
	display := name
	if prev := s.live[norm(name)]; prev != nil {
		// Re-binding keeps the original creation point (see resultInfo).
		createdAt = prev.createdAt
		display = prev.display
	}
	s.live[norm(name)] = &resultInfo{schema: schema, display: display, createdAt: createdAt}
	delete(s.truncated, norm(name))
}

func norm(name string) string { return strings.ToLower(name) }

// planResults walks a plan tree and returns the (normalized) names of
// every intermediate result it reads.
func planResults(n plan.Node) []string {
	var out []string
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if n == nil {
			return
		}
		if r, ok := n.(*plan.NamedResult); ok {
			out = append(out, norm(r.Name))
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// planResultNodes walks a plan tree and returns every intermediate
// result node it reads, with the column lists the reader resolved.
func planResultNodes(n plan.Node) []*plan.NamedResult {
	var out []*plan.NamedResult
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if n == nil {
			return
		}
		if r, ok := n.(*plan.NamedResult); ok {
			out = append(out, r)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// schemasCompatible reports why two schemas cannot describe the same
// result ("" when they can). Column names must match position by
// position. Types must belong to the same family: INT and FLOAT are one
// numeric family, because iterative queries routinely widen an integer
// seed (SELECT src, 0, 0.15 ...) into float ranks on the first
// iteration and the executor's values are dynamically typed. Untyped
// columns (Unknown/Null, e.g. literal NULL seeds) match anything.
func schemasCompatible(a, b sqltypes.Schema) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d columns vs %d columns", len(a), len(b))
	}
	for i := range a {
		if !strings.EqualFold(a[i].Name, b[i].Name) {
			return fmt.Sprintf("column %d is %q vs %q", i+1, a[i].Name, b[i].Name)
		}
		ta, tb := a[i].Type, b[i].Type
		if ta == sqltypes.Unknown || ta == sqltypes.Null || tb == sqltypes.Unknown || tb == sqltypes.Null {
			continue
		}
		numeric := func(t sqltypes.Type) bool { return t == sqltypes.Int || t == sqltypes.Float }
		if ta == tb || (numeric(ta) && numeric(tb)) {
			continue
		}
		return fmt.Sprintf("column %s is %s vs %s", a[i].Name, ta, tb)
	}
	return ""
}
