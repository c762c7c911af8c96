package bench

import (
	"fmt"
	"sort"
	"time"

	"dbspinner"
	"dbspinner/internal/middleware"
	"dbspinner/internal/proc"
	"dbspinner/internal/workload"
)

// TableI reproduces Table I: the six-step logical plan of the PR query
// after the functional rewrite.
func TableI(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(g, cfg, dbspinner.Config{Baseline: dbspinner.OptCommonResults})
	if err != nil {
		return nil, err
	}
	out, err := e.Explain(PRQuery(10))
	if err != nil {
		return nil, err
	}
	return &Experiment{
		ID:      "table1",
		Title:   "Logical plan of the PR query (paper Table I)",
		Headers: []string{"Rewritten step program"},
		Rows:    [][]string{{""}},
		Notes:   out,
	}, nil
}

// Fig8 reproduces Figure 8: minimizing data movement (rename operator
// vs copy-back baseline) for the FF and PR queries.
func Fig8(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	type q struct {
		name string
		sql  string
	}
	queries := []q{
		{"FF", FFQuery(cfg.Iterations, 2)},
		{"PR", PRQuery(cfg.Iterations)},
	}
	exp := &Experiment{
		ID:      "fig8",
		Title:   fmt.Sprintf("Minimizing data movement (%s, %d iterations)", cfg.Preset, cfg.Iterations),
		Headers: []string{"query", "baseline (copy-back)", "optimized (rename)", "improvement"},
	}
	for _, query := range queries {
		base, err := runTimed(g, cfg, dbspinner.Config{Baseline: dbspinner.OptRename}, query.sql)
		if err != nil {
			return nil, err
		}
		opt, err := runTimed(g, cfg, dbspinner.Config{}, query.sql)
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, []string{query.name, ms(base), ms(opt), improvement(base, opt)})
	}
	exp.Notes = "Paper: FF improves up to 48%; PR with its expensive iterative part barely moves."
	return exp, nil
}

// Fig9 reproduces Figure 9: the common-result optimization on PR-VS
// and SSSP-VS across two datasets.
func Fig9(cfg Config, presets []string) (*Experiment, error) {
	cfg = cfg.withDefaults()
	if len(presets) == 0 {
		presets = []string{"dblp-small", "pokec-small"}
	}
	exp := &Experiment{
		ID:      "fig9",
		Title:   fmt.Sprintf("Common-result optimization (%d iterations)", cfg.Iterations),
		Headers: []string{"query", "dataset", "baseline", "optimized", "improvement"},
	}
	for _, preset := range presets {
		pcfg := cfg
		pcfg.Preset = preset
		g, err := dataset(pcfg)
		if err != nil {
			return nil, err
		}
		for _, query := range []struct {
			name string
			sql  string
		}{
			{"PR-VS", PRVSQuery(cfg.Iterations)},
			{"SSSP-VS", SSSPVSQuery(1, cfg.Iterations)},
		} {
			base, err := runTimed(g, pcfg, dbspinner.Config{Baseline: dbspinner.OptCommonResults}, query.sql)
			if err != nil {
				return nil, err
			}
			opt, err := runTimed(g, pcfg, dbspinner.Config{}, query.sql)
			if err != nil {
				return nil, err
			}
			exp.Rows = append(exp.Rows, []string{query.name, preset, ms(base), ms(opt), improvement(base, opt)})
		}
	}
	exp.Notes = "Paper: ~20% on DBLP, ~10% on Pokec; similar for both queries. The sparser graph gains more because the constant block is proportionally larger."
	return exp, nil
}

// Fig10 reproduces Figure 10: predicate push down on the FF query
// across selectivities (MOD(node, X) = 0 keeps 1/X of the rows).
func Fig10(cfg Config, mods []int) (*Experiment, error) {
	cfg = cfg.withDefaults()
	if len(mods) == 0 {
		mods = []int{2, 4, 10, 25, 100}
	}
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "fig10",
		Title:   fmt.Sprintf("Predicate push down, FF query (%s, %d iterations)", cfg.Preset, cfg.Iterations),
		Headers: []string{"selectivity", "baseline", "pushed", "speedup"},
	}
	for _, mod := range mods {
		sql := FFQuery(cfg.Iterations, mod)
		base, err := runTimed(g, cfg, dbspinner.Config{Baseline: dbspinner.OptPushdown}, sql)
		if err != nil {
			return nil, err
		}
		opt, err := runTimed(g, cfg, dbspinner.Config{}, sql)
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, []string{
			fmt.Sprintf("1/%d (%.0f%%)", mod, 100.0/float64(mod)),
			ms(base), ms(opt), speedup(base, opt),
		})
	}
	exp.Notes = "Paper: the baseline is flat across selectivities; the pushed plan improves with selectivity, exceeding 10x at 1%."
	return exp, nil
}

// Fig11 reproduces Figure 11: optimized iterative CTEs vs the
// equivalent stored procedures for PR-VS, SSSP-VS and FF (50%
// selectivity).
func Fig11(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	type item struct {
		name string
		sql  string
		proc *proc.Procedure
	}
	items := []item{
		{"PR-VS", PRVSQuery(cfg.Iterations), proc.PageRank(cfg.Iterations, true)},
		{"SSSP-VS", SSSPVSQuery(1, cfg.Iterations), proc.SSSP(1, cfg.Iterations, true)},
		{"FF (50%)", FFQuery(cfg.Iterations, 2), proc.Forecast(cfg.Iterations, 2)},
	}
	exp := &Experiment{
		ID:      "fig11",
		Title:   fmt.Sprintf("Iterative CTEs vs stored procedures (%s, %d iterations)", cfg.Preset, cfg.Iterations),
		Headers: []string{"query", "stored procedure", "iterative CTE", "CTE speedup"},
	}
	for _, it := range items {
		e, err := NewEngine(g, cfg, dbspinner.Config{})
		if err != nil {
			return nil, err
		}
		procTime, err := timeMedian(cfg.Reps, func() error {
			_, err := proc.Run(e, it.proc)
			return err
		})
		if err != nil {
			return nil, err
		}
		cteTime, err := timeMedian(cfg.Reps, func() error {
			_, err := e.Query(it.sql)
			return err
		})
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, []string{it.name, ms(procTime), ms(cteTime), speedup(procTime, cteTime)})
	}
	exp.Notes = "Paper: CTEs are at least 25% faster for PR and SSSP, and more than 80% faster for FF (early predicate evaluation)."
	return exp, nil
}

// MiddlewareAblation is the extra experiment backing §I/§II: native
// single-plan execution vs the external middleware driver.
func MiddlewareAblation(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(g, cfg, dbspinner.Config{})
	if err != nil {
		return nil, err
	}
	client := middleware.NewClient(e)
	p := proc.PageRank(cfg.Iterations, false)
	mwTime, err := timeMedian(cfg.Reps, func() error {
		_, err := client.RunIterative(p)
		return err
	})
	if err != nil {
		return nil, err
	}
	cteTime, err := timeMedian(cfg.Reps, func() error {
		_, err := e.Query(PRQuery(cfg.Iterations))
		return err
	})
	if err != nil {
		return nil, err
	}
	e.ResetStats()
	if _, err := client.RunIterative(p); err != nil {
		return nil, err
	}
	st := e.Stats()
	return &Experiment{
		ID:      "middleware",
		Title:   fmt.Sprintf("Native iterative CTE vs external middleware, PR (%s, %d iterations)", cfg.Preset, cfg.Iterations),
		Headers: []string{"mode", "time", "statements", "WAL records", "locks"},
		Rows: [][]string{
			{"middleware", ms(mwTime), fmt.Sprint(st.Statements), fmt.Sprint(st.WALRecords), fmt.Sprint(st.LocksAcquired)},
			{"native CTE", ms(cteTime), "0", "0", "0"},
		},
		Notes: fmt.Sprintf("CTE speedup %s; the middleware pays per-statement DDL/DML, locking and logging the single plan avoids (§II).", speedup(mwTime, cteTime)),
	}, nil
}

// ParallelScaling measures MPP fragment execution against the
// single-threaded volcano executor (a substrate ablation; the paper's
// engine is inherently parallel).
func ParallelScaling(cfg Config, parts []int) (*Experiment, error) {
	cfg = cfg.withDefaults()
	if len(parts) == 0 {
		parts = []int{1, 2, 4, 8}
	}
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	sql := PRQuery(cfg.Iterations)
	serial, err := runTimed(g, cfg, dbspinner.Config{Partitions: cfg.Partitions}, sql)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		ID:      "parallel",
		Title:   fmt.Sprintf("MPP scaling, PR (%s, %d iterations; serial baseline %s)", cfg.Preset, cfg.Iterations, ms(serial)),
		Headers: []string{"partitions", "time", "speedup vs serial"},
	}
	for _, p := range parts {
		t, err := runTimed(g, cfg, dbspinner.Config{Partitions: p, Parallel: true}, sql)
		if err != nil {
			return nil, err
		}
		exp.Rows = append(exp.Rows, []string{fmt.Sprint(p), ms(t), speedup(serial, t)})
	}
	return exp, nil
}

// PruningComparison is the experiment behind column-level dataflow
// (OptColumnPruning): projection pruning, common-block filter
// hoisting and liveness-driven truncation vs full-width
// materialization. The run fails if the two modes disagree on a single
// row; the interesting metric is materialized cells (rows x columns)
// moved per iteration — written into intermediate results and read
// back out of them, reported apart — which the pruned plans must cut by
// at least 10% on PR-VS.
func PruningComparison(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	queries := []struct {
		name string
		sql  string
	}{
		{"PR-VS", PRVSQuery(cfg.Iterations)},
		{"SSSP-VS", SSSPVSQuery(1, cfg.Iterations)},
	}
	exp := &Experiment{
		ID:      "pruning",
		Title:   fmt.Sprintf("Column pruning and liveness truncation (%s, %d iterations)", cfg.Preset, cfg.Iterations),
		Headers: []string{"query", "full", "pruned", "speedup", "written/iter (full)", "written/iter (pruned)", "read/iter (full)", "read/iter (pruned)", "cells saved"},
	}
	for _, query := range queries {
		fullRows, fullTime, fullStats, err := deltaRun(g, cfg, dbspinner.Config{Baseline: dbspinner.OptColumnPruning}, query.sql)
		if err != nil {
			return nil, err
		}
		prunedRows, prunedTime, prunedStats, err := deltaRun(g, cfg, dbspinner.Config{}, query.sql)
		if err != nil {
			return nil, err
		}
		if why := sameRowMultiset(fullRows, prunedRows); why != "" {
			return nil, fmt.Errorf("column pruning changed the %s result: %s", query.name, why)
		}
		fullCells := fullStats.MaterializedCells + fullStats.ResultCellsRead
		prunedCells := prunedStats.MaterializedCells + prunedStats.ResultCellsRead
		if fullCells == 0 {
			return nil, fmt.Errorf("no materialized cells counted on %s", query.name)
		}
		saved := 100 * (1 - float64(prunedCells)/float64(fullCells))
		// The floor is restated from the measurement: at -scale 300 with 5
		// iterations PR-VS moves 15.0% fewer cells pruned (14,420 → 12,255
		// written, 14,360 → 12,195 read per query). It was 30% while the
		// full-width arm read Common#1's build side, pruned columns and
		// all, once per iteration; since the run-scoped index memo both
		// arms read it once per query, so the share pruning can save
		// shrank. Under 10% a pruned column has come back.
		if query.name == "PR-VS" && saved < 10 {
			return nil, fmt.Errorf("column pruning moved only %.1f%% fewer cells on PR-VS, expected at least 10%%", saved)
		}
		iters := int64(cfg.Iterations)
		exp.Rows = append(exp.Rows, []string{
			query.name, ms(fullTime), ms(prunedTime), speedup(fullTime, prunedTime),
			fmt.Sprint(fullStats.MaterializedCells / iters), fmt.Sprint(prunedStats.MaterializedCells / iters),
			fmt.Sprint(fullStats.ResultCellsRead / iters), fmt.Sprint(prunedStats.ResultCellsRead / iters),
			fmt.Sprintf("%.0f%%", saved),
		})
	}
	exp.Notes = "Results are asserted identical row for row. 'Written' counts rows x columns written into intermediate results, 'read' the cells read back from them, both summed over the run and divided by the iterations; 'cells saved' is over their sum. The pruned plans materialize only live columns and truncate results at their last use. A join build side the loop does not change is read once per query (the index memo), pruned or not."
	return exp, nil
}

// sameRowSequence compares two row slices in order and returns a
// description of the first difference ("" when equal). Unlike
// sameRowMultiset it does not sort: the modes an experiment compares
// must return the same rows in the same order.
func sameRowSequence(a, b []dbspinner.Row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if as, bs := a[i].String(), b[i].String(); as != bs {
			return fmt.Sprintf("row %d: %q vs %q", i, as, bs)
		}
	}
	return ""
}

// deltaRun times a query on a fresh engine and returns the rows and
// stats of one clean-stat execution.
func deltaRun(g *workload.Graph, cfg Config, ecfg dbspinner.Config, sql string) ([]dbspinner.Row, time.Duration, dbspinner.Stats, error) {
	e, err := NewEngine(g, cfg, ecfg)
	if err != nil {
		return nil, 0, dbspinner.Stats{}, err
	}
	med, err := timeMedian(cfg.Reps, func() error {
		_, err := e.Query(sql)
		return err
	})
	if err != nil {
		return nil, 0, dbspinner.Stats{}, err
	}
	e.ResetStats()
	res, err := e.Query(sql)
	if err != nil {
		return nil, 0, dbspinner.Stats{}, err
	}
	return res.Rows, med, e.Stats(), nil
}

// sameRowMultiset compares two row sets ignoring order and returns a
// description of the first difference ("" when equal).
func sameRowMultiset(a, b []dbspinner.Row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows vs %d", len(a), len(b))
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = a[i].String()
		bs[i] = b[i].String()
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Sprintf("row %d: %q vs %q", i, as[i], bs[i])
		}
	}
	return ""
}

// runTimed loads a fresh engine and reports the median query time.
func runTimed(g *workload.Graph, cfg Config, ecfg dbspinner.Config, sql string) (time.Duration, error) {
	e, err := NewEngine(g, cfg, ecfg)
	if err != nil {
		return 0, err
	}
	return timeMedian(cfg.Reps, func() error {
		_, err := e.Query(sql)
		return err
	})
}

// TraceOverhead measures the runtime cost of per-iteration tracing
// (Config.TraceIterations) and asserts the tracing-off path stays the
// default: results byte-identical, the traced run produces one span
// per loop iteration, and the traced runtime stays within a generous
// noise band of the untraced one (tracing adds two clock reads per
// step and one small append per iteration; a blow-up indicates the
// no-op path regressed).
func TraceOverhead(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	queries := []struct {
		name string
		sql  string
	}{
		{"PR", PRQuery(cfg.Iterations)},
		{"SSSP", SSSPQuery(1, cfg.Iterations)},
	}
	exp := &Experiment{
		ID:      "trace",
		Title:   fmt.Sprintf("Iteration-trace overhead (%s, %d iterations)", cfg.Preset, cfg.Iterations),
		Headers: []string{"query", "tracing off", "tracing on", "overhead", "iterations traced"},
	}
	for _, query := range queries {
		offRows, offTime, _, err := deltaRun(g, cfg, dbspinner.Config{}, query.sql)
		if err != nil {
			return nil, err
		}
		onRows, onTime, onStats, err := deltaRun(g, cfg, dbspinner.Config{TraceIterations: true}, query.sql)
		if err != nil {
			return nil, err
		}
		if why := sameRowSequence(offRows, onRows); why != "" {
			return nil, fmt.Errorf("tracing changed the %s result: %s", query.name, why)
		}
		tr := onStats.Trace
		if tr == nil {
			return nil, fmt.Errorf("%s: TraceIterations produced no IterationTrace", query.name)
		}
		if len(tr.Spans) != int(onStats.Iterations) {
			return nil, fmt.Errorf("%s: trace has %d spans for %d iterations", query.name, len(tr.Spans), onStats.Iterations)
		}
		for i, sp := range tr.Spans {
			if sp.Iteration != i+1 {
				return nil, fmt.Errorf("%s: span %d numbered %d", query.name, i, sp.Iteration)
			}
		}
		// Noise gate, deliberately loose for single-rep CI boxes: the
		// traced run must not take triple the untraced time plus half a
		// second. Tracing's real cost is nanoseconds per step.
		if onTime > 3*offTime+500*time.Millisecond {
			return nil, fmt.Errorf("%s: tracing overhead out of noise band: off %v, on %v", query.name, offTime, onTime)
		}
		exp.Rows = append(exp.Rows, []string{
			query.name, ms(offTime), ms(onTime), speedup(onTime, offTime),
			fmt.Sprint(len(tr.Spans)),
		})
	}
	exp.Notes = "Results are asserted byte-identical with tracing on and off; the traced run must produce exactly one span per loop iteration, numbered from 1, and stay within a noise band of the untraced run (the untraced path allocates nothing and never reads the clock)."
	return exp, nil
}

// FaultTolerance is the experiment behind iteration-granular fault
// tolerance (Config.MaxRetries / Config.FaultSchedule): the
// checkpointing-off and checkpointing-on runs must return
// byte-identical rows with the on-run's cost inside a noise band (the
// back-edge snapshot clones slice headers, not rows), and a run with
// deterministic faults injected mid-loop — one step panic, one storage
// error — must retry from its checkpoints back to the exact same rows.
func FaultTolerance(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	queries := []struct {
		name string
		sql  string
	}{
		{"PR", PRQuery(cfg.Iterations)},
		{"SSSP", SSSPQuery(1, cfg.Iterations)},
	}
	schedule := []dbspinner.Fault{
		{Point: "step", Hit: 2, Mode: dbspinner.FaultModePanic},
		{Point: "storage", Hit: 3, Mode: dbspinner.FaultModeError},
	}
	exp := &Experiment{
		ID:      "faults",
		Title:   fmt.Sprintf("Checkpoint/retry fault tolerance (%s, %d iterations)", cfg.Preset, cfg.Iterations),
		Headers: []string{"query", "checkpointing off", "checkpointing on", "overhead", "faulted run", "retries"},
	}
	for _, query := range queries {
		offRows, offTime, _, err := deltaRun(g, cfg, dbspinner.Config{}, query.sql)
		if err != nil {
			return nil, err
		}
		onCfg := dbspinner.Config{MaxRetries: 2}
		onRows, onTime, onStats, err := deltaRun(g, cfg, onCfg, query.sql)
		if err != nil {
			return nil, err
		}
		if why := sameRowSequence(offRows, onRows); why != "" {
			return nil, fmt.Errorf("checkpointing changed the %s result: %s", query.name, why)
		}
		if onStats.Retries != 0 || onStats.Degradations != 0 {
			return nil, fmt.Errorf("%s: unfaulted checkpointed run recorded %d retries, %d degradations",
				query.name, onStats.Retries, onStats.Degradations)
		}
		// Noise gate, deliberately loose for single-rep CI boxes: the
		// checkpointed run must not take triple the plain time plus half
		// a second. A snapshot clones partition slice headers only.
		if onTime > 3*offTime+500*time.Millisecond {
			return nil, fmt.Errorf("%s: checkpointing overhead out of noise band: off %v, on %v", query.name, offTime, onTime)
		}
		faultCfg := onCfg
		faultCfg.FaultSchedule = schedule
		faultRows, faultTime, faultStats, err := deltaRun(g, cfg, faultCfg, query.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: faulted run did not retry to success: %w", query.name, err)
		}
		if why := sameRowSequence(offRows, faultRows); why != "" {
			return nil, fmt.Errorf("retried %s run diverges from the unfaulted one: %s", query.name, why)
		}
		if faultStats.Retries == 0 {
			return nil, fmt.Errorf("%s: scheduled faults never fired", query.name)
		}
		exp.Rows = append(exp.Rows, []string{
			query.name, ms(offTime), ms(onTime), speedup(onTime, offTime),
			ms(faultTime), fmt.Sprint(faultStats.Retries),
		})
	}
	exp.Notes = fmt.Sprintf("Results are asserted byte-identical with checkpointing off and on, and again for a run with the deterministic fault schedule %q injected mid-loop: each fault is contained, the loop state restored from its back-edge checkpoint, and the iteration re-run. The checkpointed run must stay within a noise band of the plain one.",
		dbspinner.FormatFaultSchedule(schedule))
	return exp, nil
}

// ShuffleComparison is the experiment behind partition-property
// analysis (OptShuffleElision): every exchange materialized
// vs the property-licensed elisions, on every workload query, over the
// same parallel plans and partition count. The elided runs execute
// with the dynamic co-location guard armed, so each skipped exchange
// is re-checked row by row at consumption; the run fails if the two
// modes disagree on a single row or on row order. The interesting
// metric is Stats.RowsShuffled — rows routed through exchange
// operators — which the licensed plans must strictly cut on the VS
// variants (their loop bodies join and aggregate on the CTE key the
// loop provably preserves).
func ShuffleComparison(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	g, err := dataset(cfg)
	if err != nil {
		return nil, err
	}
	queries := []struct {
		name string
		vs   bool
		sql  string
	}{
		{"PR", false, PRQuery(cfg.Iterations)},
		{"PR-VS", true, PRVSQuery(cfg.Iterations)},
		{"SSSP", false, SSSPQuery(1, cfg.Iterations)},
		{"SSSP-VS", true, SSSPVSQuery(1, cfg.Iterations)},
		{"FF (50%)", false, FFQuery(cfg.Iterations, 2)},
	}
	exp := &Experiment{
		ID:      "shuffle",
		Title:   fmt.Sprintf("Shuffle elision (%s, %d iterations, %d partitions)", cfg.Preset, cfg.Iterations, cfg.Partitions),
		Headers: []string{"query", "all exchanges", "elided", "speedup", "rows shuffled", "with elision", "saved", "exchanges skipped"},
	}
	for _, query := range queries {
		offCfg := dbspinner.Config{Parallel: true, Baseline: dbspinner.OptShuffleElision}
		offRows, offTime, offStats, err := deltaRun(g, cfg, offCfg, query.sql)
		if err != nil {
			return nil, err
		}
		onCfg := dbspinner.Config{Parallel: true, Paranoid: true}
		onRows, onTime, onStats, err := deltaRun(g, cfg, onCfg, query.sql)
		if err != nil {
			return nil, err
		}
		if why := sameRowSequence(offRows, onRows); why != "" {
			return nil, fmt.Errorf("shuffle elision changed the %s result: %s", query.name, why)
		}
		saved := "-"
		if offStats.RowsShuffled > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*float64(offStats.RowsShuffled-onStats.RowsShuffled)/float64(offStats.RowsShuffled))
		}
		if query.vs {
			if onStats.ShufflesElided == 0 {
				return nil, fmt.Errorf("%s: the analysis licensed no elisions on a VS variant", query.name)
			}
			if onStats.RowsShuffled >= offStats.RowsShuffled {
				return nil, fmt.Errorf("%s: elision does not reduce shuffled rows (%d vs %d)",
					query.name, onStats.RowsShuffled, offStats.RowsShuffled)
			}
		}
		exp.Rows = append(exp.Rows, []string{
			query.name, ms(offTime), ms(onTime), speedup(offTime, onTime),
			fmt.Sprint(offStats.RowsShuffled), fmt.Sprint(onStats.RowsShuffled), saved,
			fmt.Sprint(onStats.ShufflesElided),
		})
	}
	exp.Notes = "Results are asserted byte-identical, row order included, with the dynamic co-location guard re-hashing every row consumed through a skipped exchange. 'Rows shuffled' counts every row routed by an exchange operator; the VS variants must strictly reduce it — their loop bodies join and aggregate on the key the loop provably keeps hash-distributed across the back-edge."
	return exp, nil
}
