package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/core"
	"dbspinner/internal/exec"
	"dbspinner/internal/lexer"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/verify"
)

var (
	edgeSchema   = sqltypes.Schema{{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float}}
	statusSchema = sqltypes.Schema{{Name: "node", Type: sqltypes.Int}, {Name: "status", Type: sqltypes.Int}}
)

// newRuntime loads the input's two tables into a catalog of the
// benchmark's own, laid out as the engine lays out its tables.
func newRuntime(in *input, parts int) (*catalog.Catalog, *exec.StoreRuntime, error) {
	cat := catalog.New(parts)
	edges, err := cat.Create("edges", edgeSchema, -1)
	if err != nil {
		return nil, nil, err
	}
	edges.InsertBatch(in.g.edgeRows())
	status, err := cat.Create("vertexStatus", statusSchema, 0)
	if err != nil {
		return nil, nil, err
	}
	status.InsertBatch(in.g.statusRows())
	return cat, exec.NewStoreRuntime(cat, storage.NewResultStore()), nil
}

// driver re-enacts the engine's statement driver from outside, one span
// per call into a layer's public function.
type driver struct {
	t    *tracer
	rt   *exec.StoreRuntime
	opts core.Options
	// Counters of the last op, summed over its statements.
	stats     core.Stats
	tokens    int
	steps     int
	diags     int
	iterMS    []float64 // every iteration's wall, all ops
	iterMaxMS []float64 // per op, the slowest iteration
}

func newDriver(t *tracer, rt *exec.StoreRuntime, w *workload) *driver {
	opts := core.DefaultOptions()
	opts.Parts = w.cfg.Partitions
	opts.Parallel = w.cfg.Parallel
	opts.Verify = false // verify.Check gets a span of its own
	opts.Trace = true
	return &driver{t: t, rt: rt, opts: opts}
}

func (d *driver) resetOp() {
	d.stats, d.tokens, d.steps, d.diags = core.Stats{}, 0, 0, 0
}

// frontEnd tokenizes and parses one text. parser.Parse tokenizes again
// on its own; the separate lexer span exists to size that part of it.
func (d *driver) frontEnd(parent int, sql string) (ast.Statement, error) {
	id := d.t.begin("lexer.tokenize", "lexer", parent)
	toks, err := lexer.Tokenize(sql)
	d.t.end(id)
	if err != nil {
		return nil, err
	}
	d.tokens += len(toks)
	id = d.t.begin("parser.parse", "parser", parent)
	stmt, err := parser.Parse(sql)
	d.t.end(id)
	return stmt, err
}

// query runs one SELECT the way Engine.Query does: an iterative CTE is
// rewritten, verified and run as a step program, a recursive CTE goes
// to the fixed-point evaluator, anything else is planned and executed
// (on the volcano executor: no parallel workload has a plain SELECT).
func (d *driver) query(parent int, sql string) ([]sqltypes.Row, error) {
	stmt, err := d.frontEnd(parent, sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*ast.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %T", stmt)
	}
	ctx := context.Background()
	switch {
	case core.HasIterative(sel):
		return d.iterative(ctx, parent, sel)
	case sel.With != nil && sel.With.Recursive:
		id := d.t.begin("core.recursive", "core", parent)
		rows, _, err := core.ExecuteRecursiveContext(ctx, sel, d.rt, d.opts.Parts, 0)
		d.t.end(id)
		return rows, err
	}
	id := d.t.begin("plan.build", "plan", parent)
	node, err := plan.NewBuilder(d.rt).Build(sel)
	d.t.end(id)
	if err != nil {
		return nil, err
	}
	id = d.t.begin("exec.run", "exec", parent)
	rows, err := exec.RunContext(ctx, node, d.rt, &exec.Stats{})
	d.t.end(id)
	return rows, err
}

func (d *driver) iterative(ctx context.Context, parent int, sel *ast.SelectStmt) ([]sqltypes.Row, error) {
	id := d.t.begin("core.rewrite", "core", parent)
	prog, err := core.Rewrite(sel, d.rt, d.opts)
	d.t.end(id)
	if err != nil {
		return nil, err
	}
	d.steps += len(prog.Steps)

	id = d.t.begin("verify.check", "verify", parent)
	diags := verify.Check(prog, sel)
	d.t.end(id)
	d.diags += len(diags)
	if len(diags) > 0 {
		return nil, fmt.Errorf("verifier: %s", diags[0])
	}

	var cs core.Stats
	run := d.t.begin("core.run", "core", parent)
	rows, err := prog.RunContext(ctx, d.rt, &cs)
	d.t.end(run)
	d.addStats(&cs)
	if cs.Trace != nil {
		d.addEngineTrace(run, prog, cs.Trace)
	}
	return rows, err
}

func (d *driver) addStats(cs *core.Stats) {
	s := &d.stats
	s.Iterations += cs.Iterations
	s.UpdatedRows += cs.UpdatedRows
	s.MovedRows += cs.MovedRows
	s.RiFullRows += cs.RiFullRows
	s.RiInputRows += cs.RiInputRows
	s.AggFullRows += cs.AggFullRows
	s.AggInputRows += cs.AggInputRows
	s.MaterializedCells += cs.MaterializedCells
	s.RowsShuffled += cs.RowsShuffled
	s.ShufflesElided += cs.ShufflesElided
}

// stepBucket names the core.step.* metric a step's time is reported
// under, by the step's concrete type.
func stepBucket(s core.Step) string {
	switch s.(type) {
	case *core.MaterializeStep, *core.DeltaMaterializeStep:
		return "materialize"
	case *core.MaintainAggStep:
		return "maintainagg"
	case *core.MergeStep:
		return "merge"
	case *core.CopyBackStep:
		return "copyback"
	case *core.RenameStep:
		return "rename"
	case *core.TruncateStep:
		return "truncate"
	case *core.InitLoopStep, *core.UpdateLoopStep, *core.LoopStep:
		return "loop"
	}
	return "other"
}

var stepBuckets = []string{"materialize", "merge", "copyback", "rename", "maintainagg", "truncate", "loop"}

// addEngineTrace turns the engine's IterationTrace into child spans of
// the run span. Iteration spans follow each other from the start of the
// run, as they did. Step spans are cumulative: the record has one total
// per step over all iterations, so they are laid end to end from the
// start of the run and show size, not position.
func (d *driver) addEngineTrace(run int, prog *core.Program, tr *core.IterationTrace) {
	start := d.t.spans[run-1].StartNS
	at, slowest := start, 0.0
	for _, it := range tr.Spans {
		d.t.add("core.iteration", "core", run, at, at+it.Wall.Nanoseconds())
		at += it.Wall.Nanoseconds()
		ms := float64(it.Wall.Nanoseconds()) / 1e6
		d.iterMS = append(d.iterMS, ms)
		slowest = max(slowest, ms)
	}
	d.iterMaxMS = append(d.iterMaxMS, slowest)
	at = start
	for i, st := range tr.Steps {
		if st.Runs == 0 {
			continue
		}
		d.t.add("core.step."+stepBucket(prog.Steps[i]), "core", run, at, at+st.Wall.Nanoseconds())
		at += st.Wall.Nanoseconds()
	}
}

// engineSpans names the span each statement kind gets when the op goes
// through the engine because its statements write (proc-dml): the DML
// driver is private to the root package and cannot be re-enacted.
var engineSpans = [...]string{
	kindQuery:  "engine.query",
	kindInsert: "engine.exec_insert",
	kindUpdate: "engine.exec_update",
	kindDelete: "engine.exec_delete",
	kindDDL:    "engine.exec_ddl",
}

// The spans whose sum is an op's work as the statement driver sees it.
// The lexer span is left out because parser.parse repeats it; on the
// engine path the outside parse is left out because the engine repeats
// it.
var (
	frontEndSpans = []string{"parser.parse", "plan.build", "core.rewrite", "verify.check"}
	backEndSpans  = []string{"core.run", "core.recursive", "exec.run"}
)

// readsOnly reports whether every statement of an op is a query, so the
// op can be re-enacted on the benchmark's own runtime.
func readsOnly(stmts []stmt) bool {
	for _, s := range stmts {
		if s.kind != kindQuery {
			return false
		}
	}
	return true
}

// tracedOp runs one op with spans and returns the digest of its results.
func (d *driver) tracedOp(v *env, stmts []stmt) (digest, error) {
	var dg digest
	d.resetOp()
	root := d.t.beginOp("op")
	defer d.t.endOp(root)
	if readsOnly(stmts) {
		for _, s := range stmts {
			rows, err := d.query(root, s.sql)
			if err != nil {
				return dg, err
			}
			dg.add(rows)
		}
		return dg, nil
	}
	for _, s := range stmts {
		if _, err := d.frontEnd(root, s.sql); err != nil {
			return dg, err
		}
		id := d.t.begin(engineSpans[s.kind], "engine", root)
		res, err := v.send(s)
		d.t.end(id)
		if err != nil {
			return dg, err
		}
		if res != nil {
			dg.add(res.Rows)
		}
	}
	return dg, nil
}

func gcCycles() uint64 {
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark, from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runTraced is the traced pass. It alternates an untraced op through the
// engine with the same op re-enacted under spans, so both see the same
// machine, and then runs the layer probes.
func runTraced(c runConfig) (result, error) {
	w := c.w
	warmup := c.warmup()
	v, _, err := setUp(w, c.seed, warmup)
	if err != nil {
		return result{}, err
	}
	_, rt, err := newRuntime(v.in, w.cfg.Partitions)
	if err != nil {
		return result{}, err
	}
	t := newTracer()
	d := newDriver(t, rt, w)
	v.verify(warmup)
	round := warmup + w.variants

	var base []float64 // Engine.Query/Exec wall per untraced op, ms
	cal := newCalibrator()
	lastKernel := time.Time{}
	budget := time.Duration(c.seconds * float64(time.Second))
	runtime.GC()
	var locks, walBytes int64 // of the untraced ops only
	gc0 := gcCycles()
	start := time.Now()
	for time.Since(start) < budget || len(base) < c.minOps() {
		stmts := w.statements(v.in, round, false)
		if time.Since(lastKernel) >= chunkTime {
			cal.run()
			lastKernel = time.Now()
		}
		base = append(base, v.timed(round, stmts))
		st := v.e.Stats() // exec zeroed the counters, so these are the op's own
		locks += st.LocksAcquired
		walBytes += st.WALBytes

		got, err := d.tracedOp(v, stmts)
		v.attempted++
		if want := v.refs[round%w.variants]; err != nil {
			v.fail(fmt.Errorf("traced round %d: %w", round, err))
		} else if got != want {
			v.fail(fmt.Errorf("traced round %d: %d rows with checksum %x, the checked op had %d rows with checksum %x",
				round, got.rows, got.sum, want.rows, want.sum))
		}
		round++
	}
	gcs := gcCycles() - gc0
	ops := float64(len(base))

	m := map[string]metric{}
	us := func(names ...string) metric { return metric{t.medianOf(names...) / 1e3, "us"} }
	ms := func(names ...string) metric { return metric{t.medianOf(names...) / 1e6, "ms"} }
	count := func(n int64) metric { return metric{float64(n), "count"} }
	ratio := func(part, whole int64) metric {
		if whole == 0 {
			return metric{0, "ratio"}
		}
		return metric{float64(part) / float64(whole), "ratio"}
	}

	m["lexer.tokenize_us"] = us("lexer.tokenize")
	m["lexer.tokens"] = count(int64(d.tokens))
	m["parser.parse_us"] = us("parser.parse")
	m["core.rewrite_us"] = us("core.rewrite")
	m["core.steps"] = count(int64(d.steps))
	m["verify.check_us"] = us("verify.check")
	m["verify.diagnostics"] = count(int64(d.diags))
	m["core.run_ms"] = ms("core.run")
	m["core.iter_ms_p50"] = metric{median(d.iterMS), "ms"}
	m["core.iter_ms_max"] = metric{median(d.iterMaxMS), "ms"}
	for _, b := range stepBuckets {
		m["core.step."+b+"_ms"] = ms("core.step." + b)
	}
	m["core.iterations"] = count(int64(d.stats.Iterations))
	m["core.updated_rows"] = count(d.stats.UpdatedRows)
	m["core.moved_rows"] = count(d.stats.MovedRows)
	m["core.ri_input_ratio"] = ratio(d.stats.RiInputRows, d.stats.RiFullRows)
	m["core.agg_input_ratio"] = ratio(d.stats.AggInputRows, d.stats.AggFullRows)
	m["core.materialized_cells"] = count(d.stats.MaterializedCells)
	m["core.rows_shuffled"] = count(d.stats.RowsShuffled)
	m["core.shuffles_elided"] = count(d.stats.ShufflesElided)
	m["engine.exec_insert_us"] = us("engine.exec_insert")
	m["engine.exec_update_us"] = us("engine.exec_update")
	m["engine.exec_delete_us"] = us("engine.exec_delete")
	m["engine.exec_ddl_us"] = us("engine.exec_ddl")
	m["txn.locks_per_op"] = metric{float64(locks) / ops, "count"}
	m["txn.wal_bytes_per_op"] = metric{float64(walBytes) / ops, "B"}
	m["engine.gc_cycles_per_op"] = metric{float64(gcs) / (2 * ops), "count"}

	m["machine.speed"] = metric{cal.speed(0), "ratio"}
	m["engine.op_wall_ms_p50"] = metric{percentile(base, 50), "ms"}
	m["engine.op_wall_ms_p90"] = metric{percentile(base, 90), "ms"}
	baseNS := median(base) * 1e6
	work := append(append([]string{}, frontEndSpans...), backEndSpans...)
	if t.medianOf(engineSpans[:]...) > 0 {
		work = engineSpans[:]
	}
	m["engine.frontend_share_pct"] = metric{100 * t.medianOf(frontEndSpans...) / baseNS, "%"}
	m["engine.driver_overhead_us"] = metric{(baseNS - t.medianOf(work...)) / 1e3, "us"}
	m["engine.trace_overhead_pct"] = metric{100 * (t.medianOf("op") - baseNS) / baseNS, "%"}

	if err := runProbes(w, v.in, m); err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	m["engine.peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	if c.traceDir != "" {
		if err := t.write(c.traceDir, w.name); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	fmt.Printf("%s: %d untraced and %d traced ops in %.2f s; every per-op layer time is the median over %d traced ops\n",
		w.name, len(base), t.op, time.Since(start).Seconds(), t.op)
	return result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}, v.firstErr
}
