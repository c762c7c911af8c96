// Package core implements DBSpinner's contribution: the functional
// rewrite that expands iterative CTEs (WITH ITERATIVE ... ITERATE ...
// UNTIL) into a flat step program of ordinary SQL operators plus the
// two new executor operators, rename and loop (paper §IV and §VI), and
// the optimizer extensions — common-result materialization and
// restricted predicate push down (paper §V). Recursive CTEs rewrite
// into the same form (recursive.go), and a SELECT with neither kind is
// a program with no steps: every SELECT runs as a Program.
package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/faultinject"
	"dbspinner/internal/mpp"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Opt is a set of the rewrite's optimizations, one bit each. As
// Options.Baseline it names the ones a run goes without, the
// non-optimized baselines of §VII, so the zero set runs them all.
// Results are byte-identical under every set, row order and float
// accumulation order included.
type Opt uint8

const (
	// OptRename swaps a full update's working table in with the rename
	// operator (§VII-B). Without it the working table is copied back
	// into the main table behind a changed-row identification pass, the
	// baseline of Figure 8.
	OptRename Opt = 1 << iota
	// OptCommonResults materializes iteration-invariant join subtrees
	// before the loop (§V-A, Figure 9).
	OptCommonResults
	// OptPushdown pushes safe Qf predicates into the non-iterative part
	// (§V-B, Figure 10).
	OptPushdown
	// OptColumnPruning runs the column-level dataflow optimizations
	// (internal/dataflow): intermediate results materialize only the
	// columns the loop body, termination condition, key
	// identification, delta frontier or final query can observe, and
	// truncate steps free each result at its last use. Pruning is
	// withheld where it could be observed (UNTIL DELTA and UNTIL n
	// UPDATES compare whole rows).
	OptColumnPruning
	// OptShuffleElision lets the MPP machine skip join, aggregate and
	// distinct exchanges whose input the static partition-property
	// analysis (internal/distprop) proved already co-partitioned on the
	// exchange keys. It acts only with Parallel and Parts > 1, and only
	// then does the rewrite derive the properties; EXPLAIN derives them
	// for every program.
	OptShuffleElision
	// OptIncremental evaluates Ri over the affected keys only when the
	// frontier license (internal/aggprop) holds: on the merge path a
	// DeltaMaterializeStep restricts the scan by the keys the last merge
	// changed, on the rename path a MaintainAggStep re-folds the
	// affected groups and serves the rest from the previous iteration's
	// output. Either step chooses again every iteration, restricting
	// while the affected keys are at most half the CTE's (restriction.go
	// states the rule). Withheld under Parallel with more than one
	// partition, where it measurably costs more than it saves.
	OptIncremental
)

// Options configure the rewrite of a SELECT and the runs of the
// program it returns, which embeds them.
type Options struct {
	// Baseline is the set of optimizations the rewrite withholds; the
	// zero set runs every one.
	Baseline Opt
	// Paranoid arms both dynamic cross-checks of what the static
	// analyses licensed: every row consumed through an elided exchange
	// is re-hashed and the run fails if it sits outside its claimed
	// partition, and every iteration of aggregate maintenance recomputes
	// a deterministic sample of the cached groups from scratch and fails
	// the run on a divergence.
	Paranoid bool
	// MaxIterations is the safety cap installed on every loop, iterative
	// or recursive: a loop still running after that many iterations fails
	// with ErrIterationCapExceeded instead of spinning forever. An UNTIL
	// n ITERATIONS or UNTIL n UPDATES loop is capped at n when n is
	// larger. Zero (or negative) means DefaultMaxIterations; the guard
	// itself cannot be disabled, only sized.
	MaxIterations int64
	// Parts is the partition count for materialized intermediate
	// results.
	Parts int
	// Parallel executes materialize steps and the final query on the
	// shared-nothing MPP machine (one fragment per partition) instead
	// of the single-threaded volcano executor.
	Parallel bool
	// Trace records a per-iteration runtime trace (wall clock, rows,
	// delta-frontier size) plus per-step timings into Stats.Trace. Off
	// by default: the untraced path allocates nothing and never reads
	// the clock.
	Trace bool
	// Verify runs the structural program verifier (internal/verify)
	// over the rewritten step program before it is returned. The
	// verifier re-checks the Table I invariants — jump targets,
	// materialization order, rename schema equality, termination
	// liveness, intermediate-result leaks and push-down safety —
	// independently of the rewrite that produced them.
	Verify bool
	// MaxRetries bounds the retry of a failed run (retry.go): a failed
	// step or Qf re-runs from the newest loop back-edge checkpoint, up to
	// MaxRetries times per checkpoint on the configured plan and as many
	// again on the volcano rung, before the query fails. Zero disables
	// checkpointing: nothing is captured and a failure aborts the query.
	MaxRetries int
	// FaultSchedule arms deterministic fault injection
	// (internal/faultinject) for this execution: each entry fires once,
	// at the named point's scheduled hit count. Empty means disarmed —
	// the injection hooks cost one nil check each.
	FaultSchedule []faultinject.Fault
}

// runs reports whether the options run optimization x.
func (o *Options) runs(x Opt) bool { return o.Baseline&x == 0 }

// DefaultOptions runs every optimization and the program verifier over
// one partition.
func DefaultOptions() Options {
	return Options{Parts: 1, Verify: true}
}

// Stats reports what the step program did, feeding the experiments.
// It is the one declaration of every run counter: the executor's and
// the MPP machine's count straight into the embedded sets, and the
// engine's Stats embeds this one and sums it with Add.
type Stats struct {
	Iterations   int64 // loop iterations executed, every loop's and a recursive CTE's rounds included
	UpdatedRows  int64 // cumulative rows written to working tables, a recursive round's included
	MovedRows    int64 // rows physically copied back (baseline path)
	Renames      int64 // rename operator executions
	CommonBlocks int64 // common results materialized before the loop
	// Delta-step accounting: per iteration, RiFullRows counts the CTE
	// rows a full evaluation of Ri would read from the iterative
	// reference and RiInputRows the rows actually fed to it (equal
	// unless a DeltaMaterializeStep restricted the scan).
	RiFullRows  int64
	RiInputRows int64
	// Maintenance-step accounting: per iteration, AggFullRows counts
	// the CTE rows a full re-aggregation of Ri would read and
	// AggInputRows the rows actually re-folded (equal unless a
	// MaintainAggStep served unaffected groups from its cache).
	AggFullRows  int64
	AggInputRows int64
	// MaterializedCells counts cells (rows × columns) written into
	// intermediate results by materialize, delta-materialize, merge and
	// copy-back steps — the data-movement currency the column-pruning
	// experiment reports.
	MaterializedCells int64
	// FreedCells counts the cells of the results whose rows a rename, a
	// rebinding or a drop handed back to the run (storage.ResultStore):
	// unpinned tables either executor carved every row of, or whose chunks
	// they adopted. A checkpoint holds what it captures instead of pinning
	// it, and a restore rolls the counter back with the others, after the
	// abandoned attempt's tables handed their rows back, so a retried run
	// counts what an unfaulted one does, with or without checkpoints.
	FreedCells int64
	// Fault-tolerance accounting (Options.MaxRetries): Retries counts the
	// re-attempts taken from back-edge checkpoints,
	// Degradations the rungs descended on the graceful-degradation
	// ladder (same plan → volcano). A checkpoint restore keeps them.
	Retries      int64
	Degradations int64
	ExecStats
	MPPStats // parallel mode only
	// Trace is the per-iteration runtime trace, populated only when
	// Options.Trace was set for the run.
	Trace *IterationTrace
}

// ExecStats and MPPStats are the executor's and the MPP machine's
// counter sets, embedded in Stats.
type (
	ExecStats = exec.Stats
	MPPStats  = mpp.Stats
)

// Add adds o's counters to s, and takes o's trace if it has one.
func (s *Stats) Add(o *Stats) {
	s.Iterations += o.Iterations
	s.UpdatedRows += o.UpdatedRows
	s.MovedRows += o.MovedRows
	s.Renames += o.Renames
	s.CommonBlocks += o.CommonBlocks
	s.RiFullRows += o.RiFullRows
	s.RiInputRows += o.RiInputRows
	s.AggFullRows += o.AggFullRows
	s.AggInputRows += o.AggInputRows
	s.MaterializedCells += o.MaterializedCells
	s.FreedCells += o.FreedCells
	s.Retries += o.Retries
	s.Degradations += o.Degradations
	s.ExecStats.Add(&o.ExecStats)
	s.MPPStats.Add(&o.MPPStats)
	if o.Trace != nil {
		s.Trace = o.Trace
	}
}

// Step is one instruction of the rewritten plan. The step loop
// (steploop.go) runs the steps in program order: it polls cancellation
// before each one and falls through to the next when Run returns. The
// loop operator, LoopStep, is the one instruction that jumps (§VI-B),
// and the step loop reads its continue variable to take the back-edge.
//
// The set of step kinds is closed: only this package's ten kinds
// implement accept, so a type outside it is a Step only by embedding
// one, and then dispatches as the step it embeds (VisitStep).
type Step interface {
	// Run executes the step.
	Run(ctx *Context) error
	// Explain renders the step like Table I of the paper.
	Explain() string
	accept(v stepVisitor)
}

// Context carries the runtime state of a program execution.
type Context struct {
	RT    *exec.StoreRuntime
	Stats *Stats
	// MPP, when set, executes materialize steps on the shared-nothing
	// machine, which counts into Stats.MPPStats.
	MPP *mpp.Machine
	// Ctx is the caller's cancellation context; the step loop polls it
	// before every step. Nil keeps the zero-cost uncancellable path.
	Ctx context.Context
	// Trace, when set, collects the per-iteration runtime trace.
	Trace *IterationTrace
	// Faults is the armed fault-injection registry (Options.
	// FaultSchedule); nil keeps every injection hook a single nil
	// check.
	Faults *faultinject.Registry
	// created tracks intermediate results to drop when the query ends.
	created map[string]bool
	// pc is the index of the running instruction, len(Steps) for Qf, and
	// rows are Qf's once it has run. sizes holds, for every step
	// and each of the run's parts partitions, the capacity that step's
	// next materialization presizes the partition with: what its last one
	// wrote there, plus slack (sizeHint, noteSizes). It is the statement's
	// (RunState), so a run starts from the sizes its last run left; and
	// it is advisory, so a checkpoint neither captures nor restores it —
	// a stale hint changes capacity, never rows.
	pc    int
	rows  []sqltypes.Row
	sizes []int
	parts int
	// state is the statement's run state: its key tables are the ones the
	// keyed passes of this run and the last let go (keyTable, letGo).
	state *RunState
	// volcano is set once the step loop has descended the
	// graceful-degradation ladder.
	volcano bool
}

// rungName renders the current ladder position for traces.
func (c *Context) rungName() string {
	if c.volcano {
		return "volcano"
	}
	return "same-plan"
}

// degradeOnce descends the graceful-degradation ladder to its one rung
// below the configured plan, trading optimization for isolation, and
// reports false when the context already stands on it. The volcano rung
// drops the MPP machine, and with it every elided exchange: every step
// and the final query run on the single-threaded volcano executor, and
// the restricted incremental steps run the full plan.
func (c *Context) degradeOnce() bool {
	if c.volcano {
		return false
	}
	c.volcano = true
	c.Stats.Degradations++
	c.MPP = nil
	return true
}

// degraded reports whether the context has left the configured plan;
// Restriction.restrict consults it to force the full Ri plan once the
// ladder has been descended.
func (c *Context) degraded() bool { return c.volcano }

// noteRi hands a restricted step's per-iteration decision to the trace;
// untraced runs pay the nil check.
func (c *Context) noteRi(ri string) {
	if c.Trace != nil {
		c.Trace.noteRi(ri)
	}
}

// checkpoint is the cooperative cancellation point the step loop
// consults before every instruction: the query context's error once it
// has fired, nil otherwise. The step loop stamps it with the iteration
// and step reached.
func (c *Context) checkpoint() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

func (c *Context) track(name string) {
	if c.created == nil {
		c.created = make(map[string]bool)
	}
	c.created[storage.NormalizeName(name)] = true
}

// sizeHint returns the running step's capacity for each of the run's
// partitions — zeros before its first materialization — or nil when the
// run keeps none (a context built outside Program.run).
func (c *Context) sizeHint() []int {
	if c.sizes == nil {
		return nil
	}
	return c.sizes[c.pc*c.parts : (c.pc+1)*c.parts]
}

// noteSizes records the running step's next size hint from t: each
// partition's row count plus a sixteenth, so that a partition which gets
// a few more rows than last time — an exchange's output moves by a few
// percent between iterations — is not grown to twice its size.
func (c *Context) noteSizes(t *storage.Table) {
	if hint := c.sizeHint(); hint != nil {
		for p, rows := range t.Parts {
			hint[p] = len(rows) + len(rows)/16
		}
	}
}

// keyTable returns an empty table for keys of width columns, sized for
// hint: a table an earlier keyed pass of the run, or of the statement's
// last run, let go, reset, if there is one. Every pass takes one if there
// is one, so the state never holds more than were alive at once: the
// diff, the affected keys and the row indexes of one iteration are the
// next iteration's.
func (c *Context) keyTable(width, hint int) *sqltypes.KeyTable {
	t := c.runState().keys.Take()
	if t == nil {
		return sqltypes.NewKeyTable(width, hint)
	}
	t.Reset(width, 0, hint)
	return t
}

// letGo takes back a key table a keyed pass is done with (nil: none),
// for keyTable to hand out again: nothing may read it afterwards. A table
// that outlives its step — a loop's UNTIL DELTA snapshot, which a
// checkpoint captures — is never let go.
func (c *Context) letGo(t *sqltypes.KeyTable) {
	if t != nil {
		c.runState().keys.Give(t)
	}
}

// runState returns the statement's run state, a fresh one for a context
// built outside Program.run.
func (c *Context) runState() *RunState {
	if c.state == nil {
		c.state = new(RunState)
	}
	return c.state
}

// materialize runs n on the volcano executor into a fresh table named
// into over the run's partitions, presized from the running step's size
// hint.
func (c *Context) materialize(n plan.Node, into string) (*storage.Table, error) {
	return exec.MaterializeContext(c.Ctx, n, c.RT, &c.Stats.ExecStats, into, c.parts, c.sizeHint())
}

// Program is the rewritten form of a SELECT (Rewrite): the step list of
// its iterative and recursive CTEs — none for a SELECT with neither —
// followed by the final query Qf.
type Program struct {
	Steps []Step
	// Final is the plan of Qf, the step loop's last instruction: it runs
	// after the steps complete, at pc len(Steps).
	Final plan.Node
	// FinalColumns are Qf's output columns.
	FinalColumns []plan.ColInfo
	// Options are those the program was rewritten under; Parts, Parallel,
	// Trace, Paranoid, MaxRetries and FaultSchedule also configure its
	// runs. Parts is stated here only: every step runs over the run's
	// partition count, and every keyed step keys on keyCol.
	Options
	// Pushed records the Qf conjuncts the optimizer moved into the
	// non-iterative part of each iterative CTE (§V-B), in their
	// original qualified form, so the verifier can re-derive the
	// safety conditions from the AST and reject an unsafe push
	// independently of the optimizer's own check.
	Pushed []PushedPredicate
	// Dataflow is the column-level dataflow analysis result
	// (OptColumnPruning): per intermediate result, the live
	// columns it materializes, the declared columns pruned away, and
	// the step that frees it. EXPLAIN prints it; the verifier
	// re-derives the underlying safety independently rather than
	// trusting this record.
	Dataflow []DataflowEntry
	// Lookup is the base-table lookup the program was planned against.
	// The verifier's re-derivations of the frontier license and of the
	// partition properties read base-table schemas and distributions
	// from it, so they see what the rewrite saw; it is nil for
	// hand-built programs, which makes them conservative.
	Lookup plan.TableLookup
	// DistProps records the distribution property the static
	// partition-property analysis (internal/distprop) claims for each
	// step, in step order, plus one final entry for Qf. The rewrite
	// derives them for a program that may elide exchanges, EXPLAIN for
	// any other (DeriveDistProps); nil until then. EXPLAIN prints them;
	// the verifier re-derives every claim independently
	// (unsound-partition-claim) rather than trusting the record.
	DistProps []DistClaim
	// AggClaims records, for every iterative CTE in order, the
	// incremental-evaluation decision: the frontier verdict
	// (internal/aggprop) when the analysis ran, the step it installed
	// (0 when the full plan runs) and otherwise why none was. EXPLAIN
	// prints it; the verifier re-derives the license for every licensed
	// claim and every installed step independently (unsound-agg-claim)
	// and re-checks the step wiring (unsafe-delta, stale-accumulator)
	// rather than trusting the record.
	AggClaims []AggClaim
	// Elisions records the exchanges the analysis licensed the MPP
	// machine to skip (OptShuffleElision). The verifier must be able to
	// re-license each one from its own derivation (missing-exchange),
	// and Paranoid arms the row-level runtime cross-check.
	Elisions []ElisionRecord
	// elide is the node-keyed elision map handed to every MPP machine
	// the program creates (built from Elisions by deriveDistProps).
	elide map[plan.Node]mpp.Elide
}

// DataflowEntry is the analysis record for one intermediate result.
type DataflowEntry struct {
	// Result is the intermediate result name (CTE table, Common#k, a
	// recursive CTE's Delta#cte, ...).
	Result string
	// Live are the materialized column names, nil when the entry only
	// records a live range.
	Live []string
	// Pruned are the declared columns the analysis proved dead.
	Pruned []string
	// FreedAfter is the 1-based index of the truncate step that frees
	// the result; 0 means it is held until the program ends.
	FreedAfter int
}

// PushedPredicate is one predicate the optimizer pushed below the loop.
type PushedPredicate struct {
	// CTE is the iterative CTE whose non-iterative part received the
	// predicate.
	CTE string
	// Conj is the pushed conjunct as it appeared in Qf's WHERE clause
	// (table qualifiers intact).
	Conj ast.Expr
}

// verifier is the registered post-rewrite program checker. It lives
// behind a registration hook because internal/verify imports this
// package for the step types; the hook breaks the cycle while keeping
// verification inside Rewrite. Importing internal/verify (the engine
// does) arms it.
var verifier func(*Program, *ast.SelectStmt) error

// RegisterVerifier installs the program verifier invoked by Rewrite
// when Options.Verify is set. It is called from internal/verify's
// init; later registrations replace earlier ones.
func RegisterVerifier(fn func(*Program, *ast.SelectStmt) error) { verifier = fn }

// Run executes the step program and then Qf, returning its rows. All
// intermediate results created by the program are dropped afterwards,
// mirroring the single-plan execution the paper advocates (no DDL
// residue). The run counts into stats, which should be zero: the
// iteration an error reports and the trace's first span are read from
// it; sum runs with Stats.Add.
func (p *Program) Run(rt *exec.StoreRuntime, stats *Stats) ([]sqltypes.Row, error) {
	return p.RunContext(context.Background(), rt, stats)
}

// RunContext executes the program under goctx: every step boundary,
// MPP partition batch and executor inner loop polls the context, and a
// fired cancellation or deadline surfaces as a QueryLifecycleError
// wrapping ErrQueryCanceled or ErrQueryTimeout. The run starts from a
// fresh RunState, which nothing keeps.
func (p *Program) RunContext(goctx context.Context, rt *exec.StoreRuntime, stats *Stats) ([]sqltypes.Row, error) {
	return p.RunBound(goctx, rt, nil, nil, stats)
}

// RunBound is RunContext with params bound to the statement's literal
// slots (nil: every literal keeps the value it was parsed with), over
// the statement's run state st (nil: a fresh one): a program prepared
// from one text runs for every text of its shape, each run in the
// storage the last clean one let go. The program itself keeps nothing
// from one run to the next — the loop state goes when the run ends — so
// runs may follow one another but not overlap, and neither may two runs
// over one state.
func (p *Program) RunBound(goctx context.Context, rt *exec.StoreRuntime, params []sqltypes.Value, st *RunState, stats *Stats) ([]sqltypes.Row, error) {
	if stats == nil {
		stats = &Stats{}
	}
	// The run memo — hash indexes, compiled expressions, row chunks: every
	// executor the run starts — steps, the MPP machine, Qf — reaches it
	// through this view of the runtime. It goes on every exit path; what
	// the run let go stays in st only if the run neither failed nor
	// degraded.
	r := st.Begin(rt, params, &stats.FreedCells)
	rows, err := p.run(goctx, r, stats) // contains its panics
	p.releaseLoops(r.runState())
	r.End(err == nil && stats.Degradations == 0)
	return rows, err
}

// releaseLoops drops what the loop operators hold of the finished run's
// rows, so a program kept for the next run keeps none of them alive, and
// gives the keyed merges' key indexes to st, the run's state.
func (p *Program) releaseLoops(st *RunState) {
	p.loopStates(func(l *LoopState) {
		l.keepSnap(nil)
		l.loopRun, l.workingSets, l.seen, l.seenOf = loopRun{}, nil, nil, nil
		l.giveBackIndex(st)
	})
}

// run is RunBound within r, which it neither begins nor ends.
func (p *Program) run(goctx context.Context, r *Run, stats *Stats) (rows []sqltypes.Row, err error) {
	rt, st := r.RT, r.runState()
	if stats == nil {
		stats = &Stats{}
	}
	if goctx == nil {
		goctx = context.Background()
	}
	// Last-resort panic containment. Installed before the cleanup
	// defer below so that, during a panic unwind, the created-slot
	// drop has already run by the time the recover here converts the
	// panic into a structured error.
	defer func() {
		if v := recover(); v != nil {
			rows, err = nil, containPanic(v, int(stats.Iterations), 0)
		}
	}()
	parts := max(p.Parts, 1)
	ctx := &Context{RT: rt, Stats: stats, Ctx: goctx, Faults: faultinject.NewRegistry(p.FaultSchedule),
		sizes: st.sizesFor(len(p.Steps) * parts), parts: parts, state: st}
	if p.Trace {
		ctx.Trace = newIterationTrace(len(p.Steps), parts)
		stats.Trace = ctx.Trace
	}
	if p.Parallel && p.Parts > 1 {
		ctx.MPP = r.Machine(p.Parts, &stats.MPPStats, &stats.ExecStats)
		ctx.MPP.Ctx = goctx
		ctx.MPP.Elide = p.elide
		ctx.MPP.CheckElide = p.Paranoid
		ctx.MPP.Faults = ctx.Faults
	}
	defer func() {
		// Leak-freedom on every exit path: each drop runs contained, so
		// a storage fault firing during cleanup cannot unwind past the
		// remaining slots. A fault here is discarded — the query's
		// outcome is already decided.
		for name := range ctx.created {
			name := name
			_ = faultinject.Contain(-1, func() error {
				rt.Results.Drop(name)
				return nil
			})
		}
	}()
	if rows, err = p.runSteps(ctx); err != nil {
		return nil, err
	}
	if ctx.Trace != nil {
		ctx.Trace.finish(len(rows))
	}
	return rows, nil
}

// Explain renders the whole program in the style of Table I; a
// program with no steps is its final query's plan tree.
func (p *Program) Explain() string {
	if len(p.Steps) == 0 {
		return plan.ExplainTree(p.Final)
	}
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "Step %d: %s\n", i+1, s.Explain())
	}
	b.WriteString("Final: ")
	b.WriteString(strings.TrimRight(strings.ReplaceAll(plan.ExplainTree(p.Final), "\n", "\n       "), " \n"))
	b.WriteByte('\n')
	// Column-level dataflow analysis (OptColumnPruning).
	for _, e := range p.Dataflow {
		fmt.Fprintf(&b, "Dataflow %s:", e.Result)
		if e.Live != nil {
			fmt.Fprintf(&b, " live columns (%s)", strings.Join(e.Live, ", "))
			if len(e.Pruned) > 0 {
				fmt.Fprintf(&b, ", pruned (%s)", strings.Join(e.Pruned, ", "))
			}
			b.WriteByte(';')
		}
		if e.FreedAfter > 0 {
			fmt.Fprintf(&b, " freed at step %d.\n", e.FreedAfter)
		} else {
			b.WriteString(" held to end of program.\n")
		}
	}
	// Incremental-evaluation decisions: per iterative CTE, which
	// restricted step the frontier license (internal/aggprop) installed,
	// or why the full plan runs.
	for _, c := range p.AggClaims {
		fmt.Fprintf(&b, "Incremental %s: ", c.CTE)
		kind := ""
		if c.Step > 0 && c.Step <= len(p.Steps) {
			switch p.Steps[c.Step-1].(type) {
			case *DeltaMaterializeStep:
				kind = "delta"
			case *MaintainAggStep:
				kind = "maintenance"
			}
		}
		if kind != "" {
			fmt.Fprintf(&b, "licensed, %s step at step %d; per iteration: restricted while the affected keys are at most half of %s",
				kind, c.Step, c.CTE)
		} else {
			b.WriteString(c.Reason)
		}
		if len(c.Verdict.Calls) > 0 {
			fmt.Fprintf(&b, "; aggregates %s", strings.Join(c.Verdict.Calls, ", "))
		}
		b.WriteString(".\n")
		for _, ev := range c.Verdict.Evidence {
			fmt.Fprintf(&b, "  evidence [%s]: %s\n", ev.Rule, ev.Detail)
		}
	}
	// Partition-property analysis (internal/distprop): the distribution
	// property each step's result provably satisfies, and the shuffle
	// exchanges that property licensed the machine to skip.
	for _, c := range p.DistProps {
		if c.Step == 0 {
			fmt.Fprintf(&b, "Distribution final: %s.\n", c.Desc)
			continue
		}
		if c.Slot == "" {
			fmt.Fprintf(&b, "Distribution step %d: %s.\n", c.Step, c.Desc)
		} else {
			fmt.Fprintf(&b, "Distribution step %d: %s is %s.\n", c.Step, c.Slot, c.Desc)
		}
	}
	for _, el := range p.Elisions {
		if el.Step == 0 {
			fmt.Fprintf(&b, "Elided exchange (final): %s.\n", el.Desc)
		} else {
			fmt.Fprintf(&b, "Elided exchange step %d: %s.\n", el.Step, el.Desc)
		}
	}
	// Iteration estimation (paper §IX future work) feeds costing.
	for _, s := range p.Steps {
		if init, ok := s.(*InitLoopStep); ok {
			fmt.Fprintf(&b, "Estimated iterations: %s; estimated cost: %g materialized steps",
				EstimateIterations(init.Loop.Term), p.CostEstimate())
			if p.hasRestrictedStep() {
				fmt.Fprintf(&b, " (restricted Ri charged at %g%% of a full evaluation after the first iteration)",
					restrictedFraction*100)
			}
			b.WriteString(".\n")
			break
		}
	}
	return b.String()
}

// restrictionOf returns the Restriction an incremental step embeds,
// nil for every other step kind.
func restrictionOf(s Step) *Restriction {
	switch t := s.(type) {
	case *DeltaMaterializeStep:
		return &t.Restriction
	case *MaintainAggStep:
		return &t.Restriction
	}
	return nil
}

// hasRestrictedStep reports whether any step evaluates Ri over the
// affected keys instead of the full CTE.
func (p *Program) hasRestrictedStep() bool {
	for _, s := range p.Steps {
		if restrictionOf(s) != nil {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Steps
// ---------------------------------------------------------------------

// MaterializeStep executes a plan and stores the rows under a result
// name (the insert logic of §III implemented as materialization).
type MaterializeStep struct {
	Into string
	Plan plan.Node
	// CountsAsUpdate marks working-table materializations whose row
	// count feeds the UpdatedRows statistic. The UNTIL n UPDATES
	// termination counter is NOT fed here: materialized row counts
	// overcount (a full-update Ri rewrites every row even when nothing
	// changed), so the loop counter is fed by the identification pass
	// of CopyBackStep/MergeStep instead.
	CountsAsUpdate bool
	// IsCommon marks common-result materializations (Figure 5), for
	// stats.
	IsCommon bool
}

// Run implements Step.
func (m *MaterializeStep) Run(ctx *Context) error {
	var t *storage.Table
	var err error
	if ctx.MPP != nil {
		t, err = ctx.MPP.Materialize(m.Plan, m.Into, ctx.sizeHint())
	} else {
		t, err = ctx.materialize(m.Plan, m.Into)
	}
	if err != nil {
		return err
	}
	ctx.noteSizes(t)
	ctx.RT.Results.Put(m.Into, t)
	ctx.track(m.Into)
	ctx.Stats.MaterializedCells += int64(t.Len()) * int64(len(t.Schema))
	if m.IsCommon {
		ctx.Stats.CommonBlocks++
	}
	if m.CountsAsUpdate {
		ctx.Stats.UpdatedRows += int64(t.Len())
	}
	return nil
}

// Explain implements Step.
func (m *MaterializeStep) Explain() string {
	return fmt.Sprintf("Materialize %s with:\n%s", m.Into,
		strings.TrimRight(indent(plan.ExplainTree(m.Plan), "  "), "\n"))
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// rowIndex maps the values of one key column to the row carrying them:
// the keyed-step form of the key table, with the rows in a slice indexed
// by key id (so they can be walked in first-insertion order).
type rowIndex struct {
	col  int
	keys *sqltypes.KeyTable
	rows []sqltypes.Row
}

// rowIndex returns an empty row index on column col, sized for hint, over
// a key table the run's keyed passes let go when there is one (keyTable).
// A caller done with it gives the table back with letGo(x.keys).
func (c *Context) rowIndex(col, hint int) *rowIndex {
	return &rowIndex{col: col, keys: c.keyTable(1, hint), rows: make([]sqltypes.Row, 0, hint)}
}

// put files r under its key and reports whether the key was new; an
// existing key's row is replaced. r must carry the key column.
func (x *rowIndex) put(r sqltypes.Row) (added bool) {
	id, added := x.keys.Insert(r[x.col : x.col+1])
	if added {
		x.rows = append(x.rows, r)
	} else {
		x.rows[id] = r
	}
	return added
}

// find returns the id of the row sharing r's key, or -1. r must carry
// the key column.
func (x *rowIndex) find(r sqltypes.Row) int { return x.keys.Find(r[x.col : x.col+1]) }

// get returns the row sharing r's key, if any.
func (x *rowIndex) get(r sqltypes.Row) (sqltypes.Row, bool) {
	if id := x.find(r); id >= 0 {
		return x.rows[id], true
	}
	return nil, false
}

// RenameStep is the new rename operator (§VI-A): re-point the working
// result name at the main CTE name, releasing the displaced result.
type RenameStep struct {
	From, To string
}

// Run implements Step.
func (r *RenameStep) Run(ctx *Context) error {
	if err := ctx.RT.Results.Rename(r.From, r.To); err != nil {
		return err
	}
	ctx.track(r.To)
	ctx.Stats.Renames++
	return nil
}

// Explain implements Step.
func (r *RenameStep) Explain() string {
	return fmt.Sprintf("Rename %s to %s.", r.From, r.To)
}

// CopyBackStep is the Figure 8 baseline: physically move the working
// table's rows back into the main table and identify which rows
// changed, even though a full-update query replaces everything.
type CopyBackStep struct {
	From, To string
	// Loop, when set, receives the changed-row count of the
	// identification pass, driving UNTIL n UPDATES termination.
	Loop *LoopState
}

// Run implements Step.
func (c *CopyBackStep) Run(ctx *Context) error {
	src := ctx.RT.Results.Get(c.From)
	if src == nil {
		return fmt.Errorf("copy-back: result %q not found", c.From)
	}
	dst := ctx.RT.Results.Get(c.To)
	if dst == nil {
		return fmt.Errorf("copy-back: result %q not found", c.To)
	}
	// Changed-row identification pass (redundant for full updates, as
	// §VII-B explains — that is the point of the baseline).
	old := ctx.rowIndex(keyCol, dst.Len())
	defer ctx.letGo(old.keys)
	for _, part := range dst.Parts {
		for _, r := range part {
			if keyCol < len(r) {
				old.put(r)
			}
		}
	}
	changed := int64(0)
	seen := 0
	fresh := storage.NewTable(c.To, src.Schema.Clone(), ctx.parts)
	fresh.PK = src.PK
	fresh.DistCol = 0
	for _, part := range src.Parts {
		for _, r := range part {
			if keyCol >= len(r) {
				return fmt.Errorf("copy-back into %s: key column %d out of range", c.To, keyCol)
			}
			seen++
			if prev, ok := old.get(r); !ok || !prev.Equal(r) {
				changed++
			}
			fresh.Insert(r.Clone()) // physical data movement
			ctx.Stats.MovedRows++
		}
	}
	// Net shrinkage counts as changes too (same scheme as the Delta
	// termination's changedRows): without it a shrinking Ri whose
	// surviving rows are identical would read as a fixpoint even
	// though the table changed. Counting disappearances per key
	// instead would double-count a row whose key column itself
	// advanced (one appearance plus one disappearance).
	if n := old.keys.Len(); n > seen {
		changed += int64(n - seen)
	}
	if c.Loop != nil {
		c.Loop.noteUpdates(changed)
	}
	ctx.Stats.MaterializedCells += int64(fresh.Len()) * int64(len(fresh.Schema))
	ctx.RT.Results.Put(c.To, fresh)
	ctx.track(c.To)
	// The working table is cleared for the next iteration.
	ctx.RT.Results.Drop(c.From)
	return nil
}

// Explain implements Step.
func (c *CopyBackStep) Explain() string {
	return fmt.Sprintf("Copy %s back into %s, identifying updated rows.", c.From, c.To)
}

// MergeStep is the fused implementation of Algorithm 1 lines 8-10:
// combine the previous CTE contents with the working table on the key
// column — updated rows take the working table's values, everything
// else keeps the previous iteration's values, and working rows whose
// keys are new are appended (the paper's merge SELECT is cte LEFT JOIN
// working, which alone would silently drop them; a full outer merge
// keeps frontier expansion — SSSP reaching a vertex for the first
// time — visible in the result, see DESIGN.md). It is executed as one
// operator the way MPPDB's code generation would fuse it; it also
// performs the §II duplicate-key check while building the hash table.
// The keyed merge's output owns its rows, on the volcano executor and on
// the MPP machine alike, so neither input is pinned and both hand their
// storage back (ownership).
// A recursive CTE's round merges in one of the append forms (Form),
// whose output keeps both inputs' rows, pinned.
type MergeStep struct {
	CTE, Work, Into string
	// Loop, when set, receives the changed-row count (replaced rows
	// with different values, appended rows, both directions of the
	// identification pass), driving UNTIL n UPDATES termination.
	Loop *LoopState
	// Delta names the table a recursive round materializes alongside
	// the main result: the rows it added, which the next round's
	// recursive term reads. A keyed merge publishes what it changed on
	// its loop state instead, when the loop's DeltaMaterializeStep asks
	// (changeSet).
	Delta string
	// Form is how the working rows combine with the CTE's; the zero
	// value is the keyed merge above.
	Form MergeForm
}

// MergeForm is how a merge combines the working rows with the CTE's.
type MergeForm uint8

const (
	// MergeByKey is Algorithm 1's partial update: a working row replaces
	// the CTE row with its key, and a new key appends.
	MergeByKey MergeForm = iota
	// MergeUnion is a round of WITH RECURSIVE ... UNION: the key is the
	// whole row, so a row the CTE already has is no change and a new one
	// appends.
	MergeUnion
	// MergeUnionAll is a round of WITH RECURSIVE ... UNION ALL: every
	// working row appends.
	MergeUnionAll
)

// Run implements Step.
func (m *MergeStep) Run(ctx *Context) error {
	cte := ctx.RT.Results.Get(m.CTE)
	if cte == nil {
		return fmt.Errorf("merge: result %q not found", m.CTE)
	}
	work := ctx.RT.Results.Get(m.Work)
	if work == nil {
		return fmt.Errorf("merge: result %q not found", m.Work)
	}
	// A table's schema is never written after planning: out and the
	// delta share the CTE's.
	out := storage.NewTable(m.Into, cte.Schema, ctx.parts)
	out.PK = cte.PK
	out.DistCol = 0
	var changed int64
	var err error
	if m.Form == MergeByKey {
		var own ownership
		own.decide(ctx, cte, work, out)
		changed, err = m.replace(ctx, cte, work, out, &own)
	} else {
		// out keeps rows of both, and the CTE's partitions.
		cte.Pin()
		work.Pin()
		changed, err = m.append(ctx, cte, work, out)
	}
	if err != nil {
		return err
	}
	if m.Loop != nil {
		m.Loop.noteUpdates(changed)
	}
	ctx.RT.Results.Put(m.Into, out)
	ctx.track(m.Into)
	ctx.Stats.MaterializedCells += int64(out.Len()) * int64(len(out.Schema))
	return nil
}

// ownership is how a keyed merge's out holds its rows (decide).
type ownership struct {
	// parts is where out's partition slices come from (nil: make).
	parts *sqltypes.ChunkPool
	// copies carves the copies of the CTE rows out keeps, when copying is
	// set; otherwise out keeps the CTE's own rows.
	copies  sqltypes.RowSlab
	copying bool
	skipped bool // the seeded mutant has kept one CTE row uncopied
}

// decide makes o how out, the keyed merge of work into cte, holds its
// rows, on either executor. out owns them: it adopts the working table's
// (storage.Table.AdoptRows), since it keeps every one, and copies into
// chunks of its own the CTE rows no working row replaced, when the CTE's
// rows go back once it is released; its partition slices come from the
// run's free list. Then neither input is pinned, and both hand their
// storage back. Without a free list out keeps both inputs' rows, which
// are pinned.
func (o *ownership) decide(ctx *Context, cte, work, out *storage.Table) {
	pool := ctx.RT.Memo().Chunks()
	if pool == nil {
		cte.Pin()
		work.Pin()
		return
	}
	arena := out.OwnRows(pool)
	out.AdoptRows(work)
	o.parts = pool
	if cte.Recycles() {
		o.copies.CarveFor(arena)
		o.copying = true
	}
}

// keep returns what out holds for r, a CTE row no working row replaced.
func (o *ownership) keep(r sqltypes.Row) sqltypes.Row {
	if !o.copying {
		return r
	}
	if test.uncopiedSurvivor && !o.skipped {
		o.skipped = true
		return r
	}
	c := o.copies.Alloc(len(r))
	copy(c, r)
	return c
}

// replace is the keyed merge of cte and work into out. It counts the
// rows that changed — replaced with different values, or appended —
// and, when the loop's delta step has asked, publishes them with the
// number of keys they carry (changeSet). Into the table its loop's key
// index describes it patches (patch); into any other — the run's first
// merge, a checkpoint's clone, a new loop's table — it rebuilds, filing
// out's rows in the index on the way. Both give the same tables, counts,
// change sets and errors; the index describes out once the merge has
// succeeded, and no table after one that failed.
func (m *MergeStep) replace(ctx *Context, cte, work, out *storage.Table, own *ownership) (int64, error) {
	l := m.Loop
	if l == nil {
		// No loop to carry an index.
		return m.rebuild(ctx, nil, cte, work, out, own)
	}
	trusted := trusts(l, cte)
	l.indexOf = nil
	if trusted {
		changed, exact, err := m.patch(l.index, cte, work, out, own)
		if exact {
			if err == nil {
				l.indexOf = out
			}
			return changed, err
		}
		clear(out.Parts)
	}
	x := l.freshIndex(ctx, cte.Len()+work.Len())
	changed, err := m.rebuild(ctx, x, cte, work, out, own)
	if err == nil && !x.inexact {
		l.indexOf = out
	}
	return changed, err
}

// rebuild is replace over any cte: it indexes the working rows, looks
// each CTE row up in that, and places every row of out, filing it in x
// (nil: no index).
func (m *MergeStep) rebuild(ctx *Context, x *keyIndex, cte, work, out *storage.Table, own *ownership) (int64, error) {
	// updated rejects duplicate keys, so its ids are the working rows'
	// positions in scan order; inCTE marks the ones some CTE row carries.
	updated := ctx.rowIndex(keyCol, work.Len())
	defer ctx.letGo(updated.keys)
	for _, part := range work.Parts {
		for _, r := range part {
			if keyCol >= len(r) {
				return 0, fmt.Errorf("merge: key column %d out of range", keyCol)
			}
			if !updated.put(r) {
				return 0, fmt.Errorf("iterative part produced duplicate rows for key %s; add an aggregation or GROUP BY to resolve duplicates", r[keyCol])
			}
		}
	}
	// seen[id] marks a working row some CTE row carries (inCTE) and one
	// that replaced a row with different values (differs): a key the CTE
	// repeats is one changed key, however many rows it changed.
	const inCTE, differs = 1, 2
	seen := make([]uint8, len(updated.rows))
	// out holds the CTE's keys plus the new ones: each partition starts
	// at its CTE partition's length and a sixteenth more.
	if len(cte.Parts) == len(out.Parts) {
		for p, part := range cte.Parts {
			out.Parts[p] = own.parts.Part(len(part) + len(part)/16)
		}
	}
	place := func(r sqltypes.Row) {
		p, i := out.Place(r)
		if x != nil {
			x.fileRow(r, keyCol, p, i)
		}
	}
	// changed are exactly the rows identified as changed, keys the
	// distinct keys among them; in x's storage when there is an x.
	var changed []sqltypes.Row
	if x != nil {
		changed = x.rows[:0]
	}
	keys := 0
	for _, part := range cte.Parts {
		for _, r := range part {
			if keyCol >= len(r) {
				return 0, fmt.Errorf("merge over %s: key column %d out of range", m.CTE, keyCol)
			}
			id := updated.find(r)
			if id < 0 {
				place(own.keep(r))
				continue
			}
			seen[id] |= inCTE
			nr := updated.rows[id]
			place(nr)
			if !r.Equal(nr) {
				changed = append(changed, nr)
				if seen[id]&differs == 0 {
					seen[id] |= differs
					keys++
				}
			}
		}
	}
	// Working rows with keys the CTE has never produced: appended, and
	// by definition changed.
	for id, r := range updated.rows {
		if seen[id]&inCTE != 0 {
			continue
		}
		place(r)
		changed = append(changed, r)
		keys++
	}
	n := int64(len(changed))
	if x != nil {
		x.rows = changed
	}
	if !m.Loop.keepsRows(keys, out) {
		changed = nil
	}
	m.Loop.publish(changed, keys)
	return n, nil
}

// patch is replace into cte, the table x describes, whose rows sit
// where they route: out starts as a copy of cte's partitions, and each
// working row, looked up once, overwrites every position carrying its
// key or, under a new key, is placed as an insert places it. No CTE row
// is hashed or routed. The change set it publishes is the changed
// positions' rows in cte's scan order, which is position order, then the
// new rows in working order: rebuild's order. A working key exactKey
// rejects stops it with exact false, and the caller rebuilds. The CTE
// rows still in place once every working row is are the ones out keeps.
func (m *MergeStep) patch(x *keyIndex, cte, work, out *storage.Table, own *ownership) (n int64, exact bool, err error) {
	for p, part := range cte.Parts {
		out.Parts[p] = append(own.parts.Part(len(part)+len(part)/16), part...)
	}
	x.nextMerge()
	changed, fresh := x.changed[:0], x.fresh[:0]
	keys := 0
	for _, part := range work.Parts {
		for _, r := range part {
			if keyCol >= len(r) {
				return 0, true, fmt.Errorf("merge: key column %d out of range", keyCol)
			}
			key := r[keyCol : keyCol+1]
			if !exactKey(key[0]) {
				return 0, false, nil
			}
			id, added := x.keys.Insert(key)
			if added {
				p, i := out.Place(r)
				x.file(id, true, p, i)
				fresh = append(fresh, pos(p, i))
				continue
			}
			if x.hit[id] == x.gen {
				return 0, true, fmt.Errorf("iterative part produced duplicate rows for key %s; add an aggregation or GROUP BY to resolve duplicates", r[keyCol])
			}
			x.hit[id] = x.gen
			before := len(changed)
			for at := x.head[id]; at >= 0; at = x.at[at].prev {
				p, i := x.at[at].part, x.at[at].row
				if !out.Parts[p][i].Equal(r) {
					changed = append(changed, pos(int(p), int(i)))
				}
				out.Parts[p][i] = r
			}
			if len(changed) > before {
				keys++
			}
		}
	}
	if own.copying {
		for p, part := range cte.Parts {
			for i, r := range part {
				// A replaced row is a working row, which carries the key.
				if len(r) == 0 || &out.Parts[p][i][0] == &r[0] {
					out.Parts[p][i] = own.keep(r)
				}
			}
		}
	}
	x.changed, x.fresh = changed, fresh
	n = int64(len(changed) + len(fresh))
	keys += len(fresh)
	var rows []sqltypes.Row
	if m.Loop.keepsRows(keys, out) {
		slices.Sort(changed)
		rows = slices.Grow(x.rows[:0], int(n))
		for _, ps := range [...][]uint64{changed, fresh} {
			for _, at := range ps {
				rows = append(rows, out.Parts[at>>32][uint32(at)])
			}
		}
		x.rows = rows
	}
	m.Loop.publish(rows, keys)
	return n, true, nil
}

// keepsRows reports whether a keyed merge that changed keys distinct
// keys, producing out, publishes the rows it changed: when the loop's
// delta step has asked for change sets, and the keys are not dense in
// out, the CTE that step reads next. A dense set makes that step run
// the full plan, which reads only the count.
func (l *LoopState) keepsRows(keys int, out *storage.Table) bool {
	return l != nil && l.changes.wanted && !dense(keys, out.Len())
}

// publish records a keyed merge's change set for the loop's delta step,
// if it has asked for one (l nil: no loop, no step). rows is the
// merge's own, nil when it keeps none (keepsRows): the set replaces the
// last one whole.
func (l *LoopState) publish(rows []sqltypes.Row, keys int) {
	if l != nil && l.changes.wanted {
		l.changes = changeSet{wanted: true, merged: true, rows: rows, keys: keys}
	}
}

// append is the recursive merge of cte and work into out: every CTE
// row, then the working rows that are new — under UNION those neither
// the CTE nor an earlier working row has, under UNION ALL all — which
// also go into the round's delta table, bound under Delta. It returns
// how many it added. The two guards
// against a UNION ALL over a cycle sit here: a round repeating an
// earlier round's rows, and a CTE past MaxRecursionRows, fail the query.
// A round costs its new rows: a CTE routed by its first column, as out
// is, lends its partitions as out's prefixes, extended past their ends
// only, where no reader of the bound CTE looks. Each CTE table is merged
// once: the next round merges out, and a checkpoint restore binds a
// clone.
func (m *MergeStep) append(ctx *Context, cte, work, out *storage.Table) (int64, error) {
	delta := storage.NewTable(m.Delta, cte.Schema, ctx.parts)
	delta.PK = cte.PK
	delta.DistCol = 0
	if cte.DistCol == 0 && len(cte.Parts) == len(out.Parts) {
		copy(out.Parts, cte.Parts)
	} else {
		for _, part := range cte.Parts {
			for _, r := range part {
				out.Insert(r)
			}
		}
	}
	var seen *sqltypes.KeyTable
	if m.Form == MergeUnion {
		seen = m.Loop.rowSet(ctx, cte)
	}
	for _, part := range work.Parts {
		for _, r := range part {
			if seen != nil {
				if _, isNew := seen.Insert(r); !isNew {
					continue
				}
			}
			out.Insert(r)
			delta.Insert(r)
		}
	}
	added := delta.Len()
	// The first round's working set was the base term's, the delta the
	// CTE started with.
	base := func() []sqltypes.Row { return ctx.RT.Results.Get(m.Delta).AllRows() }
	if m.Form == MergeUnionAll && added > 0 && m.Loop.repeats(delta.AllRows(), base) {
		return 0, fmt.Errorf("recursive UNION ALL does not converge (iteration %d revisits an earlier state); use UNION to deduplicate",
			m.Loop.iterations+1)
	}
	if out.Len() > MaxRecursionRows {
		return 0, fmt.Errorf("recursive CTE %s exceeded %d rows without terminating; use UNION to deduplicate cyclic data", m.CTE, MaxRecursionRows)
	}
	if seen != nil {
		m.Loop.seenOf = out
		if added == 0 {
			// The loop stops here; a restore that runs the round again
			// builds the set anew.
			m.Loop.dropRowSet(ctx)
		}
	}
	ctx.RT.Results.Put(m.Delta, delta)
	ctx.track(m.Delta)
	ctx.Stats.MaterializedCells += int64(added) * int64(len(delta.Schema))
	return int64(added), nil
}

// Explain implements Step.
func (m *MergeStep) Explain() string {
	how := "on the key column (updated rows replace previous values, new keys append)"
	switch m.Form {
	case MergeUnion:
		how = "on whole rows (rows it already has are dropped, new rows append)"
	case MergeUnionAll:
		how = "appending every row"
	}
	if m.Delta != "" {
		return fmt.Sprintf("Merge %s into %s over %s %s; materialize changed rows into %s.",
			m.Work, m.Into, m.CTE, how, m.Delta)
	}
	return fmt.Sprintf("Merge %s into %s over %s %s.", m.Work, m.Into, m.CTE, how)
}

// TruncateStep clears a working result (Algorithm 1 line 10).
type TruncateStep struct {
	Name string
}

// Run implements Step.
func (t *TruncateStep) Run(ctx *Context) error {
	ctx.RT.Results.Drop(t.Name)
	return nil
}

// Explain implements Step.
func (t *TruncateStep) Explain() string {
	return fmt.Sprintf("Delete tuples from %s.", t.Name)
}
