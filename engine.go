// Package dbspinner is an embeddable SQL engine that reproduces the
// system described in "DBSpinner: Making a Case for Iterative
// Processing in Databases" (ICDE 2021): native support for iterative
// common table expressions
//
//	WITH ITERATIVE R (cols) AS ( R0 ITERATE Ri UNTIL Tc ) Qf
//
// implemented as a functional rewrite into a single step program with
// two new executor operators, rename and loop, plus the paper's three
// optimizations — data-movement minimization, common-result
// materialization and restricted predicate push down.
//
// The engine also supports ordinary SQL (SELECT with joins, grouping
// and set operations; CREATE/DROP/INSERT/UPDATE/DELETE; regular and
// recursive CTEs), which the baselines in the paper's evaluation are
// built from.
package dbspinner

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/core"
	"dbspinner/internal/exec"
	"dbspinner/internal/faultinject"
	"dbspinner/internal/lexer"
	"dbspinner/internal/mpp"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/txn"
	"dbspinner/internal/verify"
)

// Value is a SQL datum (NULL, BOOLEAN, INT, FLOAT or VARCHAR).
type Value = sqltypes.Value

// Row is one result tuple.
type Row = sqltypes.Row

// Convenience constructors re-exported for embedding users.
var (
	// NewInt builds an INT value.
	NewInt = sqltypes.NewInt
	// NewFloat builds a FLOAT value.
	NewFloat = sqltypes.NewFloat
	// NewString builds a VARCHAR value.
	NewString = sqltypes.NewString
	// NewBool builds a BOOLEAN value.
	NewBool = sqltypes.NewBool
	// Null is the SQL NULL constant.
	Null = sqltypes.NullValue
)

// ErrIterationCapExceeded is the sentinel wrapped by every iteration
// safety-cap failure: an iterative CTE whose termination the static
// analysis could not prove hit Config.MaxIterations, or a recursive
// CTE never reached its fixed point. Match with errors.Is.
var ErrIterationCapExceeded = core.ErrIterationCapExceeded

// IterationCapError is the structured error behind
// ErrIterationCapExceeded: which CTE hit the cap, the cap value, and
// the analysis diagnostics explaining why termination was unprovable.
// Match with errors.As.
type IterationCapError = core.IterationCapError

// ErrQueryCanceled is the sentinel wrapped by every cancellation
// failure: the context passed to QueryContext/ExecContext was canceled
// while the statement was running. Match with errors.Is; errors.As on
// *QueryLifecycleError recovers the iteration and step reached.
var ErrQueryCanceled = core.ErrQueryCanceled

// ErrQueryTimeout is the sentinel wrapped by every deadline failure:
// the caller's context deadline or Config.QueryTimeout expired while
// the statement was running. Match with errors.Is; errors.As on
// *QueryLifecycleError recovers the iteration and step reached.
var ErrQueryTimeout = core.ErrQueryTimeout

// QueryLifecycleError is the structured error behind ErrQueryCanceled
// and ErrQueryTimeout: the iteration and step the query had reached
// when the cancellation or deadline fired. Match with errors.As.
type QueryLifecycleError = core.QueryLifecycleError

// ErrInternalPanic is the sentinel wrapped by every contained panic: a
// step or an MPP partition worker panicked and the containment layer
// converted the panic into a query failure instead of a process crash.
// Match with errors.Is.
var ErrInternalPanic = core.ErrInternalPanic

// InternalPanicError is the structured error behind ErrInternalPanic:
// the panic value, the goroutine stack at recovery, and the iteration,
// step and partition reached (0 or -1 where not applicable). Match
// with errors.As.
type InternalPanicError = core.InternalPanicError

// ErrFaultInjected is the sentinel wrapped by every error-mode fault
// fired from Config.FaultSchedule. Match with errors.Is to tell a
// scheduled fault from a real failure.
var ErrFaultInjected = faultinject.ErrInjected

// FaultInjectedError is the structured error behind ErrFaultInjected:
// which fault point fired and at which hit count. Match with
// errors.As.
type FaultInjectedError = faultinject.InjectedError

// Fault is one Config.FaultSchedule entry: fire at the Hit-th arrival
// (1-based) at the named point, in the given mode.
type Fault = faultinject.Fault

// FaultMode selects how a scheduled fault manifests: FaultModeError
// makes the point return a structured error, FaultModePanic makes it
// panic (exercising the containment layer).
type FaultMode = faultinject.Mode

// Fault modes and registered fault points, re-exported for schedule
// construction without the textual format.
const (
	FaultModeError = faultinject.ModeError
	FaultModePanic = faultinject.ModePanic
)

// Schedule helpers: ParseFaultSchedule parses the textual
// "point@hit:mode[,...]" form, FormatFaultSchedule renders it back,
// and FaultPoints lists the registered point names ("step",
// "partition", "storage") so tests can enumerate the full matrix.
var (
	ParseFaultSchedule  = faultinject.ParseSchedule
	FormatFaultSchedule = faultinject.FormatSchedule
	FaultPoints         = faultinject.Points
)

// RetryPolicy bounds the iteration-granular retry of failed iterative
// queries (Config.RetryPolicy): MaxAttempts retries per checkpoint
// with exponential Backoff, descending the graceful-degradation ladder
// (same plan, then volcano) when the same plan's attempts are exhausted
// unless NoDegrade is set.
type RetryPolicy = core.RetryPolicy

// IterationTrace is the per-iteration runtime trace recorded when
// Config.TraceIterations is set (or EXPLAIN ANALYZE runs): one span
// per loop iteration — wall clock, rows written, delta-frontier size,
// and which form of Ri an incremental step chose with the rows it fed —
// plus cumulative per-step timings.
type IterationTrace = core.IterationTrace

// IterationSpan is one iteration's trace record.
type IterationSpan = core.IterationSpan

// StepTiming is one step's cumulative timing record.
type StepTiming = core.StepTiming

// Config controls an Engine. The zero value is a sensible default:
// four hash partitions per table and every optimization enabled.
type Config struct {
	// Partitions is the number of hash partitions per table, modelling
	// the shared-nothing layout (default 4).
	Partitions int

	// Parallel executes query plans on the shared-nothing MPP machine:
	// one fragment goroutine per partition with shuffle exchanges
	// between stages. Off by default (single-threaded volcano
	// execution); results are identical either way.
	Parallel bool

	// The paper's optimizations are on by default; the Disable knobs
	// exist so benchmarks can measure the non-optimized baselines of
	// §VII.
	DisableRenameOpt         bool // Figure 8 baseline: copy-back instead of rename
	DisableCommonResultOpt   bool // Figure 9 baseline
	DisablePredicatePushdown bool // Figure 10 baseline

	// DisableColumnPruning turns off the column-level dataflow
	// optimizations (internal/dataflow): projection pruning of
	// intermediate results down to their live columns, filter hoisting
	// into common blocks, and liveness-driven truncation at each
	// result's last use. On by default; pruning is automatically
	// withheld wherever it could be observed (UNTIL DELTA / UNTIL n
	// UPDATES compare whole rows), so results are byte-identical either
	// way.
	DisableColumnPruning bool

	// DisableShuffleElision turns off the shuffle-elision optimization
	// licensed by the static partition-property analysis
	// (internal/distprop): with elision on (the default), exchanges
	// whose input is statically proven to be already partitioned on
	// compatible keys are skipped by the MPP machine. Effective only
	// with Parallel and Partitions > 1; results are byte-identical
	// either way. The knob exists so benchmarks can measure the
	// always-shuffle baseline.
	DisableShuffleElision bool

	// CheckShuffleElision arms a dynamic cross-check on every elided
	// exchange: the machine re-hashes each consumed row and fails the
	// query if any row sits on a partition the claimed routing columns
	// do not map it to. A belt-and-braces guard for the static
	// analysis; off by default because it re-does the hashing the
	// elision saved.
	CheckShuffleElision bool

	// DisableIncremental turns off incremental evaluation of iterative
	// CTEs. With it on (the default), a CTE whose iterative part the
	// frontier license (internal/aggprop) covers — a join chain keyed by
	// the outer reference, stable group keys, every inner reference
	// routed to the outer key — evaluates Ri over only the keys that
	// changed and the keys those reach. Which step does it follows from
	// the query: with a WHERE in Ri (merge path) the delta step
	// restricts the scan by the keys the last merge changed; without
	// one, when Ri aggregates (rename path), the maintenance step keeps
	// the previous output and re-folds only the affected groups.
	// Either step chooses again in every iteration, from the frontier it
	// has just measured: the restricted plan while the affected keys are
	// at most half the CTE's, the full plan otherwise. Half is a
	// constant, not a setting: finding and feeding the frontier was
	// measured at 0.3-0.5 of a full Ri whatever the frontier's size
	// (PageRank with 93% of its keys affected ran 1.25x a full
	// iteration), so restricting pays only below about half. EXPLAIN
	// ANALYZE prints the choice per iteration. Withheld under Parallel
	// with more than one partition, where it measurably costs more than
	// it saves. Results are byte-identical either way, row order and
	// float accumulation order included. The knob remains the
	// measurement baseline: the full plan in every iteration, with no
	// frontier found at all.
	DisableIncremental bool

	// CheckIncrementalAgg arms a dynamic cross-check on every maintained
	// aggregate: each iteration, a deterministic sample of the groups
	// served from the cache is recomputed from scratch through the
	// restricted plan and any divergence fails the query. A
	// belt-and-braces guard for the static analysis; off by default
	// because it re-does part of the folding the maintenance saved.
	CheckIncrementalAgg bool

	// DisableVerify turns off the structural program verifier that
	// checks every rewritten step program against the Table I
	// invariants before execution (internal/verify). On by default; the
	// knob exists for benchmarks that want rewrite time without the
	// verification pass.
	DisableVerify bool

	// QueryTimeout, when > 0, bounds the wall clock of every statement:
	// a statement still running when it expires fails with
	// ErrQueryTimeout. A deadline already present on the context passed
	// to QueryContext/ExecContext takes precedence. Zero means no
	// engine-imposed deadline.
	QueryTimeout time.Duration

	// TraceIterations records a per-iteration runtime trace for every
	// iterative query: wall clock, rows written and delta-frontier size
	// per iteration, plus per-step timings, exposed as
	// Stats.IterationTrace and rendered by EXPLAIN ANALYZE. Off by
	// default; the untraced path allocates nothing and never reads the
	// clock.
	TraceIterations bool

	// MaxIterations sizes the safety cap installed on iterative-CTE
	// loops whose termination the static converge analysis cannot
	// prove (Unknown verdicts in EXPLAIN): such a loop fails with
	// ErrIterationCapExceeded instead of spinning forever. Loops with
	// a Terminates or Converges verdict never carry the guard. The
	// same value caps recursive-CTE fixed-point evaluation. Zero means
	// the default (100000); the guard cannot be disabled, only sized.
	MaxIterations int64

	// RetryPolicy enables iteration-granular fault tolerance for
	// iterative-CTE queries: the engine checkpoints the loop-carried
	// state at every back-edge and, when an iteration fails with a
	// retryable error (anything but cancellation, deadline or the
	// iteration cap), restores the checkpoint and re-runs it — up to
	// MaxAttempts times per checkpoint, with exponential Backoff
	// between attempts. When a checkpoint's attempts are exhausted the
	// engine degrades gracefully and tries again on single-threaded
	// volcano execution, with shuffle elision and the restricted
	// incremental steps off; NoDegrade fails instead. A query that retries
	// to success returns byte-identical rows. The zero value disables
	// checkpointing entirely (no snapshot cost on the hot path).
	RetryPolicy RetryPolicy

	// FaultSchedule arms deterministic fault injection for testing the
	// fault-tolerance machinery: each entry fires an error or panic at
	// the Hit-th arrival at a registered fault point ("step",
	// "partition", "storage"). No wall clock or randomness is involved,
	// so a failing schedule replays bit-for-bit; see ParseFaultSchedule
	// for the textual form. Empty (the default) costs one nil check
	// per point.
	FaultSchedule []Fault
}

// Stats accumulates engine counters across statements.
type Stats struct {
	Queries    int64 // SELECT statements executed
	Statements int64 // DDL/DML statements executed

	// Prepared-statement counters: Query calls whose text ran a program
	// the engine had prepared for its shape, and calls that found none,
	// which parse and plan the text and keep the program if that works.
	PreparedHits, PreparedMisses int64

	// Iterative-CTE counters (per §VII experiments).
	Iterations   int64 // loop iterations across iterative queries
	Renames      int64 // rename operator executions
	MovedRows    int64 // rows physically copied back (baseline path)
	CommonBlocks int64 // common results materialized
	UpdatedRows  int64 // rows written to working tables
	RiFullRows   int64 // CTE rows a full Ri evaluation would read (delta accounting)
	RiInputRows  int64 // CTE rows actually fed to Ri's iterative reference
	AggFullRows  int64 // CTE rows a full re-aggregation would fold (incremental-agg accounting)
	AggInputRows int64 // CTE rows actually re-folded by maintained aggregation

	// Fault-tolerance counters (Config.RetryPolicy): iterations re-run
	// from a back-edge checkpoint, and rungs descended on the
	// graceful-degradation ladder.
	Retries      int64
	Degradations int64

	// Data-movement accounting for the column-pruning experiment:
	// cells (rows × columns) written into intermediate results by
	// materialize/merge/copy-back steps; the cells scans read back out
	// of them are ExecStats.ResultCellsRead.
	MaterializedCells int64

	// Executor counters: RowsScanned, RowsJoined, RowsIndexed,
	// RowsGrouped, RowsAggInput (input rows drained by aggregate
	// operators) and ResultCellsRead. RowsIndexed counts rows inserted
	// into join hash indexes; an iterative query indexes a table its loop
	// does not change once, not once per iteration, and RowsScanned does
	// not count the build-side scans that therefore did not happen. Both
	// executors count alike: an MPP fragment is the volcano operators over
	// one partition. Only a build side the MPP machine has to re-shuffle
	// (its exchange was not elided) is read and indexed every iteration.
	ExecStats
	RowsShuffled int64 // rows moved by MPP exchanges (Parallel mode)

	// Shuffle-elision accounting (internal/distprop): exchanges the
	// static partition-property analysis proved unnecessary and the
	// machine skipped, and the input rows those skipped exchanges
	// would otherwise have re-hashed.
	ShufflesElided int64
	RowsElided     int64

	// Exchange skew (Parallel mode): RowsRouted is the part of
	// RowsShuffled that hash exchanges routed, RowsToBusiest the rows the
	// fullest destination of each exchange received, summed.
	// RowsToBusiest x Partitions / RowsRouted is 1 when every partition
	// gets the same share of every exchange and Partitions when one gets
	// it all; the traced iteration lines print it per iteration.
	RowsRouted, RowsToBusiest int64

	// IterationTrace is the runtime trace of the most recent traced
	// iterative query (Config.TraceIterations or EXPLAIN ANALYZE); nil
	// when no traced query has run.
	IterationTrace *IterationTrace

	// DML overhead counters (what single-plan execution avoids).
	LocksAcquired int64
	WALRecords    int64
	WALBytes      int64
	TxnCommitted  int64
}

// ExecStats is the executor's counter set, embedded in Stats.
type ExecStats = exec.Stats

// Result is the outcome of a Query call.
type Result struct {
	Columns []string
	Rows    []Row
}

// Engine is an embedded DBSpinner instance. It is safe for concurrent
// use; statements are serialized internally.
type Engine struct {
	mu    sync.Mutex
	cfg   Config
	cat   *catalog.Catalog
	rt    *exec.StoreRuntime
	txn   *txn.Manager
	stats Stats
	stmts stmtCache
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.Partitions < 1 {
		cfg.Partitions = 4
	}
	cat := catalog.New(cfg.Partitions)
	return &Engine{
		cfg: cfg,
		cat: cat,
		rt:  exec.NewStoreRuntime(cat, storage.NewResultStore()),
		txn: txn.NewManager(),
	}
}

// coreOptions maps the config to the rewrite options.
func (e *Engine) coreOptions() core.Options {
	return core.Options{
		UseRename:           !e.cfg.DisableRenameOpt,
		CommonResults:       !e.cfg.DisableCommonResultOpt,
		PushDownPredicates:  !e.cfg.DisablePredicatePushdown,
		ColumnPruning:       !e.cfg.DisableColumnPruning,
		Parts:               e.cfg.Partitions,
		Parallel:            e.cfg.Parallel,
		Verify:              !e.cfg.DisableVerify,
		ShuffleElision:      !e.cfg.DisableShuffleElision,
		CheckShuffleElision: e.cfg.CheckShuffleElision,
		Incremental:         !e.cfg.DisableIncremental,
		CheckIncrementalAgg: e.cfg.CheckIncrementalAgg,
		MaxIterations:       e.cfg.MaxIterations,
		Trace:               e.cfg.TraceIterations,
		QueryTimeout:        e.cfg.QueryTimeout,
		Retry:               e.cfg.RetryPolicy,
		FaultSchedule:       e.cfg.FaultSchedule,
	}
}

// Query executes a single SELECT statement (including iterative and
// recursive CTE queries) and returns its rows.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a cancellation context: the statement
// polls ctx at every iteration boundary, MPP partition batch and
// executor inner loop, and a fired cancellation or deadline fails the
// query with ErrQueryCanceled or ErrQueryTimeout (a QueryLifecycleError
// naming the iteration and step reached). When Config.QueryTimeout is
// set and ctx carries no deadline of its own, the engine arms its own
// deadline around the statement.
//
// Every SELECT runs prepared: a text is lexed into its shape (its token
// stream with literal values left out), and a text whose shape the
// engine has prepared before runs that program with its own literal
// values bound, skipping parse, rewrite, verification and planning.
// prepare.go states when a cached program may serve a text.
func (e *Engine) QueryContext(ctx context.Context, sql string) (*Result, error) {
	shape, lits, err := lexer.Shape(sql)
	if err != nil {
		return nil, err
	}
	ctx, cancel := e.armTimeout(ctx)
	defer cancel()
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, params := e.stmts.lookup(sql, shape, lits); s != nil {
		e.stats.PreparedHits++
		return e.querySelect(ctx, func() (*prepared, []sqltypes.Value, error) {
			s.uses.Show(params)
			return s.p, params, nil
		})
	}
	e.stats.PreparedMisses++
	stmt, uses, err := parser.ParseUses(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("Query expects a SELECT statement; use Exec for %T", stmt)
	}
	return e.querySelect(ctx, func() (*prepared, []sqltypes.Value, error) {
		p, err := e.prepare(sel)
		if err != nil {
			return nil, nil, err
		}
		params, ok := e.stmts.add(sql, shape, lits, uses, p)
		if !ok {
			return nil, nil, fmt.Errorf("a literal of the statement cannot be bound")
		}
		return p, params, nil
	})
}

// prepareOnce is the prep of a SELECT that runs once, with its literals
// as parsed: a script's, or EXPLAIN ANALYZE's. The cache keeps neither.
func (e *Engine) prepareOnce(sel *ast.SelectStmt) func() (*prepared, []sqltypes.Value, error) {
	return func() (*prepared, []sqltypes.Value, error) {
		p, err := e.prepare(sel)
		return p, nil, err
	}
}

// armTimeout applies Config.QueryTimeout to ctx unless the caller
// already set a deadline. The returned cancel func is always non-nil.
func (e *Engine) armTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.cfg.QueryTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, e.cfg.QueryTimeout)
		}
	}
	return ctx, func() {}
}

// querySelect prepares a SELECT with prep — which returns the statement
// and the values bound to its literal slots, nil to run the literals as
// parsed — and runs it.
func (e *Engine) querySelect(ctx context.Context, prep func() (*prepared, []sqltypes.Value, error)) (res *Result, err error) {
	if len(e.cfg.FaultSchedule) > 0 {
		// Arm the storage mutation point for this statement only, so
		// hit counts never leak across queries. The step and partition
		// points are armed inside Program.RunContext.
		e.rt.ArmFaults(faultinject.NewRegistry(e.cfg.FaultSchedule))
		defer e.rt.ArmFaults(nil)
	}
	// Last-resort containment: a panic that escapes the executor's own
	// containment layers (e.g. a storage fault on a path with no step
	// context) fails the statement, never the process.
	defer func() {
		if v := recover(); v != nil {
			res = nil
			if ferr, ok := faultinject.AsError(v); ok {
				err = ferr
				return
			}
			err = &core.InternalPanicError{Value: v, Stack: string(debug.Stack()), Partition: -1}
		}
	}()
	e.stats.Queries++
	p, params, err := prep()
	if err != nil {
		return nil, err
	}
	// The statement's run state goes to this run and comes back only if
	// the run succeeds: a failure, and a panic above all, leaves the
	// statement with none, and its next run starts from a fresh one.
	st := p.state
	p.state = nil
	if st == nil {
		st = new(core.RunState)
	}
	res, err = e.run(ctx, p, params, st)
	if err == nil || e.stmts.test.keepFailed {
		p.state = st
	}
	return res, err
}

// run runs the prepared statement p with params bound, over its run
// state st.
func (e *Engine) run(ctx context.Context, p *prepared, params []sqltypes.Value, st *core.RunState) (*Result, error) {
	switch {
	case p.prog != nil:
		var cs core.Stats
		rows, err := p.prog.RunBound(ctx, e.rt, params, st, &cs)
		// Absorb counters even when the query failed: cap and
		// cancellation diagnostics need the iterations reached.
		e.absorbCoreStats(&cs)
		if cs.Trace != nil {
			e.stats.IterationTrace = cs.Trace
		}
		if err != nil {
			return nil, err
		}
		return &Result{Columns: p.cols, Rows: rows}, nil

	case p.rec != nil:
		rows, err := p.rec.RunContext(ctx, e.rt, params, st)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: p.cols, Rows: rows}, nil

	default:
		var es exec.Stats
		var rows []Row
		var err error
		run := st.Begin(e.rt, params)
		if e.cfg.Parallel && e.cfg.Partitions > 1 {
			var ms mpp.Stats
			m := run.Machine(e.cfg.Partitions, &ms, &es)
			m.Ctx = ctx
			rows, err = m.Run(p.node)
			e.stats.RowsShuffled += ms.RowsShuffled
			e.stats.RowsRouted += ms.RowsRouted
			e.stats.RowsToBusiest += ms.RowsToBusiest
		} else {
			rows, err = exec.RunContext(ctx, p.node, run.RT, &es)
		}
		run.End(err == nil)
		// Absorb counters even when the query failed (see above).
		e.absorbExecStats(&es)
		if err != nil {
			return nil, core.WrapCancel(err, 0, 0, "query")
		}
		return &Result{Columns: p.cols, Rows: rows}, nil
	}
}

func (e *Engine) absorbCoreStats(cs *core.Stats) {
	e.stats.Iterations += int64(cs.Iterations)
	e.stats.RowsShuffled += cs.RowsShuffled
	e.stats.ShufflesElided += cs.ShufflesElided
	e.stats.RowsElided += cs.RowsElided
	e.stats.RowsRouted += cs.RowsRouted
	e.stats.RowsToBusiest += cs.RowsToBusiest
	e.stats.Renames += int64(cs.Renames)
	e.stats.MovedRows += cs.MovedRows
	e.stats.CommonBlocks += int64(cs.CommonBlocks)
	e.stats.UpdatedRows += cs.UpdatedRows
	e.stats.RiFullRows += cs.RiFullRows
	e.stats.RiInputRows += cs.RiInputRows
	e.stats.AggFullRows += cs.AggFullRows
	e.stats.AggInputRows += cs.AggInputRows
	e.stats.Retries += int64(cs.Retries)
	e.stats.Degradations += int64(cs.Degradations)
	e.stats.MaterializedCells += cs.MaterializedCells
	e.absorbExecStats(&cs.Exec)
}

func (e *Engine) absorbExecStats(es *exec.Stats) { e.stats.ExecStats.Add(es) }

func colNames(cols []plan.ColInfo) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// Exec executes a single DDL or DML statement and returns the number
// of affected rows.
func (e *Engine) Exec(sql string) (int64, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext is Exec under a cancellation context. DDL/DML statements
// are short; the context is checked before execution starts (and
// Config.QueryTimeout is armed the same way as in QueryContext), so a
// canceled context fails fast with ErrQueryCanceled rather than
// interrupting a half-applied statement.
func (e *Engine) ExecContext(ctx context.Context, sql string) (int64, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return 0, err
	}
	ctx, cancel := e.armTimeout(ctx)
	defer cancel()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return 0, core.WrapCancel(err, 0, 0, "statement")
	}
	return e.execStmt(stmt)
}

// ExecScript executes a semicolon-separated script of DDL/DML
// statements (SELECTs are executed and their results discarded).
func (e *Engine) ExecScript(sql string) error {
	return e.ExecScriptContext(context.Background(), sql)
}

// ExecScriptContext is ExecScript under a cancellation context. Each
// statement runs under its own Config.QueryTimeout window (a deadline
// already on ctx takes precedence and bounds the whole script), and a
// fired cancellation stops the script at the next statement boundary.
func (e *Engine) ExecScriptContext(ctx context.Context, sql string) error {
	stmts, err := parser.ParseAll(sql)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, stmt := range stmts {
		if err := e.execScriptStmt(ctx, stmt); err != nil {
			return err
		}
	}
	return nil
}

// execScriptStmt runs one script statement under a fresh
// Config.QueryTimeout window derived from the script's context.
func (e *Engine) execScriptStmt(ctx context.Context, stmt ast.Statement) error {
	sctx, cancel := e.armTimeout(ctx)
	defer cancel()
	if sel, ok := stmt.(*ast.SelectStmt); ok {
		_, err := e.querySelect(sctx, e.prepareOnce(sel))
		return err
	}
	if err := sctx.Err(); err != nil {
		return core.WrapCancel(err, 0, 0, "statement")
	}
	_, err := e.execStmt(stmt)
	return err
}

// Explain returns the plan of a statement. For iterative-CTE queries
// this is the rewritten step program of Table I; for ordinary SELECTs
// the logical plan tree. EXPLAIN ANALYZE additionally executes the
// statement and appends the runtime trace: per-iteration wall clock,
// rows and delta-frontier size, per-step timings, and the total.
func (e *Engine) Explain(sql string) (string, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return "", err
	}
	analyze := false
	if ex, ok := stmt.(*ast.Explain); ok {
		analyze = ex.Analyze
		stmt = ex.Stmt
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		return "", fmt.Errorf("EXPLAIN supports SELECT statements, got %T", stmt)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case core.HasIterative(sel):
		// EXPLAIN reports verifier findings instead of failing on them,
		// so the rewrite runs unverified and the check happens here.
		opts := e.coreOptions()
		opts.Verify = false
		prog, err := core.Rewrite(sel, e.rt, opts)
		if err != nil {
			return "", err
		}
		out, ok := e.explainProgram(prog, sel)
		if !ok {
			return out, nil
		}
		if analyze {
			prog.Trace = true
			var cs core.Stats
			e.stats.Queries++
			_, err := prog.RunContext(context.Background(), e.rt, &cs)
			e.absorbCoreStats(&cs)
			if cs.Trace != nil {
				e.stats.IterationTrace = cs.Trace
			}
			if err != nil {
				return "", err
			}
			out += cs.Trace.Render()
		}
		return out, nil
	case sel.With != nil && sel.With.Recursive:
		out := "RecursiveUnion " + sel.With.CTEs[0].Name + "\n"
		if analyze {
			out += e.analyzePlain(sel)
		}
		return out, nil
	default:
		node, err := plan.NewBuilder(e.rt).Build(sel)
		if err != nil {
			return "", err
		}
		out := plan.ExplainTree(node)
		if analyze {
			out += e.analyzePlain(sel)
		}
		return out, nil
	}
}

// explainProgram renders an iterative program and the verifier's verdict
// on it, and reports whether the program verified. The rewrite derives
// partition properties only for a program that may elide exchanges;
// EXPLAIN prints them for every program, so it derives the rest here,
// before the verifier re-derives every claim recorded.
func (e *Engine) explainProgram(prog *core.Program, sel *ast.SelectStmt) (string, bool) {
	prog.DeriveDistProps()
	out := prog.Explain()
	if e.cfg.DisableVerify {
		return out, true
	}
	if diags := verify.Check(prog, sel); len(diags) > 0 {
		var b strings.Builder
		b.WriteString(out)
		for _, d := range diags {
			fmt.Fprintf(&b, "Verifier: %s\n", d)
		}
		return b.String(), false
	}
	return out + fmt.Sprintf("Verifier: OK (%d steps, %d invariant classes checked).\n",
		len(prog.Steps), verify.ClassCount), true
}

// analyzePlain times one execution of a non-iterative statement for
// EXPLAIN ANALYZE and renders its total line (errors render inline:
// EXPLAIN ANALYZE reports, it does not fail the explanation).
func (e *Engine) analyzePlain(sel *ast.SelectStmt) string {
	begin := time.Now()
	res, err := e.querySelect(context.Background(), e.prepareOnce(sel))
	if err != nil {
		return fmt.Sprintf("Execution failed: %v\n", err)
	}
	return fmt.Sprintf("Total: %s wall, %d rows.\n", time.Since(begin), len(res.Rows))
}

// Stats returns a snapshot of the engine counters (WAL/lock counters
// are read live from the transaction manager).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.LocksAcquired = e.txn.Locks.Acquired
	s.WALRecords = e.txn.Log.Records
	s.WALBytes = e.txn.Log.Bytes()
	s.TxnCommitted = e.txn.Committed
	return s
}

// ResetStats zeroes the counters (the WAL itself is checkpointed).
func (e *Engine) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
	e.txn.Locks.Acquired = 0
	e.txn.Log.Reset()
	e.txn.Committed = 0
}

// BulkInsert loads rows into a table without per-statement transaction
// overhead; it is the fast path used by dataset loaders. Values are
// cast to the declared column types.
func (e *Engine) BulkInsert(table string, rows []Row) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.cat.Get(table)
	if t == nil {
		return fmt.Errorf("table %q does not exist", table)
	}
	for _, r := range rows {
		cast, err := castRow(r, t.Schema)
		if err != nil {
			return err
		}
		t.Insert(cast)
	}
	return nil
}

// TableRowCount returns the number of rows in a base table.
func (e *Engine) TableRowCount(table string) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.cat.Get(table)
	if t == nil {
		return 0, fmt.Errorf("table %q does not exist", table)
	}
	return t.Len(), nil
}

// LiveResults returns the number of intermediate results currently
// registered in the result store. After any statement — clean, failed
// or retried — it must be zero; the fault-tolerance tests use it as
// the leak-freedom observable.
func (e *Engine) LiveResults() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rt.LiveResults()
}

// Tables lists the base tables.
func (e *Engine) Tables() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.Names()
}

func castRow(r Row, schema sqltypes.Schema) (Row, error) {
	if len(r) != len(schema) {
		return nil, fmt.Errorf("row has %d values, table has %d columns", len(r), len(schema))
	}
	out := make(Row, len(r))
	for i, v := range r {
		c, err := sqltypes.Cast(v, schema[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", schema[i].Name, err)
		}
		out[i] = c
	}
	return out, nil
}

// String renders a result as a simple aligned table (for the shell and
// examples).
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	cells := make([][]string, 0, len(r.Rows)+1)
	header := make([]string, len(r.Columns))
	copy(header, r.Columns)
	cells = append(cells, header)
	for _, row := range r.Rows {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = v.String()
		}
		cells = append(cells, line)
	}
	for _, line := range cells {
		for i, cell := range line {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for li, line := range cells {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(line)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
		if li == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
