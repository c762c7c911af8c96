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
// built from. Every SELECT runs as a step program: a recursive CTE is
// rewritten into the same loop as an iterative one, its rounds merging
// into the CTE and stopping when one adds no row, and a SELECT with
// neither is a program with no steps.
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
// safety-cap failure: an iterative or recursive CTE's loop still wanted
// to continue after Config.MaxIterations iterations. Match with
// errors.Is.
var ErrIterationCapExceeded = core.ErrIterationCapExceeded

// IterationCapError is the structured error behind
// ErrIterationCapExceeded: which CTE hit the cap, and the cap value.
// Match with errors.As.
type IterationCapError = core.IterationCapError

// ErrQueryCanceled is the sentinel wrapped by every cancellation
// failure: the context passed to QueryContext/ExecContext was canceled
// while the statement was running. Match with errors.Is; errors.As on
// *QueryLifecycleError recovers the iteration and step reached.
var ErrQueryCanceled = core.ErrQueryCanceled

// ErrQueryTimeout is the sentinel wrapped by every deadline failure:
// the caller's context deadline or Config.QueryTimeout expired while
// the statement, or the run of an EXPLAIN ANALYZE, was running. Match
// with errors.Is; errors.As on *QueryLifecycleError recovers the
// iteration and step reached.
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

// Opt is a set of the engine's optimizations, one bit each; as
// Config.Baseline it names the ones the engine withholds.
type Opt = core.Opt

// The optimizations, each documented at its internal/core constant.
const (
	OptRename         = core.OptRename         // Figure 8 baseline: copy-back instead of rename
	OptCommonResults  = core.OptCommonResults  // Figure 9 baseline: no common-result blocks
	OptPushdown       = core.OptPushdown       // Figure 10 baseline: Qf predicates stay in Qf
	OptColumnPruning  = core.OptColumnPruning  // live-column pruning and last-use truncation
	OptShuffleElision = core.OptShuffleElision // skip exchanges proven co-partitioned (Parallel)
	OptIncremental    = core.OptIncremental    // Ri over the affected keys only
)

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

	// Baseline is the set of optimizations the engine withholds, so
	// benchmarks can measure the non-optimized baselines of §VII; the
	// zero set runs every one. The Opt constants name them. Results
	// are byte-identical under every set.
	Baseline Opt

	// Paranoid arms the dynamic cross-checks of what the static
	// analyses licensed: every row consumed through an elided exchange
	// is re-hashed, and the query fails if it sits on a partition its
	// claimed routing columns do not map it to; every iteration of
	// aggregate maintenance recomputes a deterministic sample of the
	// cached groups from scratch and fails the query on a divergence.
	// Off by default, because each re-does part of the work its
	// optimization saved. A belt-and-braces guard for the analyses.
	Paranoid bool

	// QueryTimeout, when > 0, bounds the wall clock of every statement:
	// a statement still running when it expires fails with
	// ErrQueryTimeout. A deadline already present on the context passed
	// to QueryContext/ExecContext takes precedence. Zero means no
	// engine-imposed deadline.
	QueryTimeout time.Duration

	// TraceIterations records a per-iteration runtime trace for every
	// query: wall clock, rows written and delta-frontier size per
	// iteration (a recursive CTE's rounds are iterations; a query with
	// neither kind of CTE has none), plus per-step timings, exposed as
	// Stats.Trace and rendered by EXPLAIN ANALYZE. Off by
	// default; the untraced path allocates nothing and never reads the
	// clock.
	TraceIterations bool

	// MaxIterations sizes the safety cap every loop carries, iterative
	// or recursive: a loop still running after that many iterations
	// fails with ErrIterationCapExceeded instead of spinning forever.
	// An UNTIL n ITERATIONS or UNTIL n UPDATES loop is capped at n when
	// n is larger, so a declared count never trips it. Zero means the
	// default (100000); the guard cannot be disabled, only sized.
	MaxIterations int64

	// MaxRetries enables iteration-granular fault tolerance: the engine
	// checkpoints the loop-carried state at every back-edge and, when a
	// step or the final query fails with a retryable error (anything but
	// cancellation, deadline or the iteration cap), restores the newest
	// checkpoint and runs on from it, up to MaxRetries times per
	// checkpoint. When a checkpoint's retries are spent the engine
	// degrades gracefully and tries as many times again on
	// single-threaded volcano execution, with shuffle elision and the
	// restricted incremental steps off, before the query fails. A query
	// that retries to success returns byte-identical rows. Zero disables
	// checkpointing entirely (no snapshot cost on the hot path).
	MaxRetries int

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

	// The run counters of every SELECT, summed (core.Stats): the loop
	// counters of the §VII experiments, the executor's (ExecStats) and,
	// in Parallel mode, the MPP machine's (MPPStats), and the Trace of
	// the most recent traced query (Config.TraceIterations or EXPLAIN
	// ANALYZE; nil when none has run).
	core.Stats

	// DML overhead counters (what single-plan execution avoids).
	LocksAcquired int64
	WALRecords    int64
	WALBytes      int64
	TxnCommitted  int64
}

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
		Baseline:      e.cfg.Baseline,
		Paranoid:      e.cfg.Paranoid,
		MaxIterations: e.cfg.MaxIterations,
		Parts:         e.cfg.Partitions,
		Parallel:      e.cfg.Parallel,
		Trace:         e.cfg.TraceIterations,
		Verify:        true,
		MaxRetries:    e.cfg.MaxRetries,
		FaultSchedule: e.cfg.FaultSchedule,
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
	if s, params := e.stmts.lookup(shape, lits); s != nil {
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
		params, ok := e.stmts.add(shape, lits, uses, p)
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
// already set a deadline. It is the only place the engine arms a
// statement deadline. The returned cancel func is always non-nil.
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
	// The row chunks the states carry then go back under the cache's
	// ceiling (stmtCache.trim).
	st := p.state
	p.state = nil
	if st == nil {
		st = new(core.RunState)
	}
	res, err = e.run(ctx, p, params, st)
	if err == nil || e.stmts.test.keepFailed {
		p.state = st
		e.stmts.trim()
	}
	return res, err
}

// run runs the prepared statement p with params bound, over its run
// state st.
func (e *Engine) run(ctx context.Context, p *prepared, params []sqltypes.Value, st *core.RunState) (*Result, error) {
	var cs core.Stats
	rows, err := p.prog.RunBound(ctx, e.rt, params, st, &cs)
	// Add counters even when the query failed: cap and cancellation
	// diagnostics need the iterations reached.
	e.stats.Add(&cs)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: p.cols, Rows: rows}, nil
}

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

// Explain returns the plan of a statement. For a query with iterative
// or recursive CTEs this is the rewritten step program of Table I; for
// an ordinary SELECT, a program with no steps, the logical plan tree.
// EXPLAIN ANALYZE additionally executes the statement, under
// Config.QueryTimeout like any query, and appends the runtime trace:
// per-iteration wall clock, rows and delta-frontier size, per-step
// timings, and the total.
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
	// EXPLAIN reports verifier findings instead of failing on them, so
	// the rewrite runs unverified and the check happens here.
	opts := e.coreOptions()
	opts.Verify = false
	prog, err := core.Rewrite(sel, e.rt, opts)
	if err != nil {
		return "", err
	}
	out, ok := e.explainProgram(prog, sel)
	if !ok || !analyze {
		return out, nil
	}
	prog.Trace = true
	ctx, cancel := e.armTimeout(context.Background())
	defer cancel()
	var cs core.Stats
	e.stats.Queries++
	_, err = prog.RunContext(ctx, e.rt, &cs)
	e.stats.Add(&cs)
	if err != nil {
		return "", err
	}
	return out + cs.Trace.Render(), nil
}

// explainProgram renders a step program and the verifier's verdict
// on it, and reports whether the program verified. The rewrite derives
// partition properties only for a program that may elide exchanges;
// EXPLAIN prints them for every program, so it derives the rest here,
// before the verifier re-derives every claim recorded.
func (e *Engine) explainProgram(prog *core.Program, sel *ast.SelectStmt) (string, bool) {
	if len(prog.Steps) == 0 {
		// The statement is its own final query: nothing was derived and
		// there is nothing to verify.
		return prog.Explain(), true
	}
	prog.DeriveDistProps()
	out := prog.Explain()
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
