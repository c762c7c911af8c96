package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dbspinner/internal/aggprop"
	"dbspinner/internal/ast"
	"dbspinner/internal/converge"
	"dbspinner/internal/exec"
	"dbspinner/internal/expr"
	"dbspinner/internal/mpp"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// probeRepeats is how often a layer probe repeats its call; the median
// is reported.
const probeRepeats = 9

// timeMedian calls fn probeRepeats times and returns the median wall of
// one call, in nanoseconds.
func timeMedian(fn func() error) (float64, error) {
	walls := make([]float64, 0, probeRepeats)
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls = append(walls, float64(time.Since(t0).Nanoseconds()))
	}
	return median(walls), nil
}

// runProbes calls single layers directly, outside any op, on inputs of
// the workload's size, and files the results in m. Each probe isolates
// one layer's public function so that a change to that layer shows here
// even when an op hides it behind other work.
func runProbes(w *workload, in *input, m map[string]metric) error {
	cat, rt, err := newRuntime(in, w.cfg.Partitions)
	if err != nil {
		return err
	}
	stmt, err := parser.Parse(w.probe(in))
	if err != nil {
		return err
	}
	cte := stmt.(*ast.SelectStmt).With.CTEs[0]

	// R0, run once as a plain SELECT: its rows become a base table named
	// like the CTE, so that Ri's body plans and runs as an ordinary query
	// over a snapshot of the first iteration's input.
	r0, err := plan.NewBuilder(rt).Build(cte.Init)
	if err != nil {
		return fmt.Errorf("plan R0: %w", err)
	}
	r0Rows, err := exec.Run(r0, rt, &exec.Stats{})
	if err != nil {
		return fmt.Errorf("run R0: %w", err)
	}
	schema := plan.Schema(r0)
	for i, name := range cte.Cols {
		schema[i].Name = name
	}

	// The two static analyses, on the parsed CTE, before the snapshot
	// table exists: inside the rewrite the CTE is not a base table.
	ns, _ := timeMedian(func() error { converge.AnalyzeCTE(cte, rt); return nil })
	m["converge.analyze_us"] = metric{ns / 1e3, "us"}
	ns, _ = timeMedian(func() error { aggprop.AnalyzeCTE(cte, schema, rt); return nil })
	m["aggprop.analyze_us"] = metric{ns / 1e3, "us"}

	snapshot, err := cat.Create(cte.Name, schema, -1)
	if err != nil {
		return err
	}
	snapshot.InsertBatch(r0Rows)

	var body plan.Node
	ns, err = timeMedian(func() (err error) { body, err = plan.NewBuilder(rt).Build(cte.Iter); return err })
	if err != nil {
		return fmt.Errorf("plan Ri: %w", err)
	}
	m["plan.build_us"] = metric{ns / 1e3, "us"}

	var es exec.Stats
	execNS, err := timeMedian(func() error {
		es = exec.Stats{}
		_, err := exec.RunContext(context.Background(), body, rt, &es)
		return err
	})
	if err != nil {
		return fmt.Errorf("run Ri: %w", err)
	}
	m["exec.ri_body_ms"] = metric{execNS / 1e6, "ms"}
	m["exec.rows_scanned"] = metric{float64(es.RowsScanned), "count"}
	m["exec.rows_joined"] = metric{float64(es.RowsJoined), "count"}
	m["exec.rows_grouped"] = metric{float64(es.RowsGrouped), "count"}
	m["exec.rows_agg_input"] = metric{float64(es.RowsAggInput), "count"}
	m["exec.ns_per_row"] = metric{execNS / float64(max(es.RowsScanned+es.RowsJoined, 1)), "ns"}

	// The same plan on the MPP machine, where the workload uses it.
	var ms mpp.Stats
	mppNS := 0.0
	if w.cfg.Parallel {
		mppNS, err = timeMedian(func() error {
			ms = mpp.Stats{}
			_, err := mpp.New(rt, w.cfg.Partitions, &ms, nil).Run(body)
			return err
		})
		if err != nil {
			return fmt.Errorf("run Ri on mpp: %w", err)
		}
	}
	m["mpp.ri_body_ms"] = metric{mppNS / 1e6, "ms"}
	m["mpp.rows_shuffled"] = metric{float64(ms.RowsShuffled), "count"}
	m["mpp.rows_relocated"] = metric{float64(ms.RowsRelocated), "count"}
	m["mpp.fragments"] = metric{float64(ms.Fragments), "count"}
	m["mpp.speedup"] = metric{0, "ratio"}
	if mppNS > 0 {
		m["mpp.speedup"] = metric{execNS / mppNS, "ratio"}
	}

	if err := probeStorage(in, w.cfg.Partitions, snapshot, m); err != nil {
		return err
	}
	probeRowKey(in, m)
	return probeExpr(in, m)
}

// probeStorage times the table operations set-up and the step program
// lean on: loading the edge rows, copying and reading out a CTE-sized
// table, and the result store's bind, rename, drop cycle.
func probeStorage(in *input, parts int, cteSized *storage.Table, m map[string]metric) error {
	rows := in.g.edgeRows()
	ns, _ := timeMedian(func() error {
		t := storage.NewTable("probe", edgeSchema, parts)
		t.DistCol = 0
		t.InsertBatch(rows)
		return nil
	})
	m["storage.insert_batch_ms"] = metric{ns / 1e6, "ms"}
	ns, _ = timeMedian(func() error { cteSized.Clone(); return nil })
	m["storage.clone_ms"] = metric{ns / 1e6, "ms"}
	ns, _ = timeMedian(func() error { cteSized.AllRows(); return nil })
	m["storage.all_rows_ms"] = metric{ns / 1e6, "ms"}

	const cycles = 1000
	store := storage.NewResultStore()
	ns, err := timeMedian(func() error {
		for i := 0; i < cycles; i++ {
			store.Put("Intermediate#probe", cteSized)
			if err := store.Rename("Intermediate#probe", "probe"); err != nil {
				return err
			}
			store.Drop("probe")
		}
		return nil
	})
	m["storage.rename_us"] = metric{ns / cycles / 1e3, "us"}
	return err
}

// probeRowKey times sqltypes.RowKey, the key construction every hash
// join, grouping and merge goes through, over the edge rows with one-
// and two-column keys, and counts what it allocates.
func probeRowKey(in *input, m map[string]metric) {
	rows := in.g.edgeRows()
	one, two := []int{0}, []int{0, 1}
	var sink sqltypes.CompositeKey
	sweeps := max(1, 50000/len(rows)) // enough keys per timing to rise above the clock's resolution
	keys := float64(2 * len(rows) * sweeps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns, _ := timeMedian(func() error {
		for s := 0; s < sweeps; s++ {
			for _, r := range rows {
				sink = sqltypes.RowKey(r, one)
				sink = sqltypes.RowKey(r, two)
			}
		}
		return nil
	})
	runtime.ReadMemStats(&m1)
	_ = sink
	m["sqltypes.rowkey_ns"] = metric{ns / keys, "ns"}
	m["sqltypes.rowkey_allocs"] = metric{float64(m1.Mallocs-m0.Mallocs) / (probeRepeats * keys), "count"}
}

// probeExpr times the expr layer on the forecast's per-row expression:
// parse and compile once, evaluate once per node.
func probeExpr(in *input, m map[string]metric) error {
	schema := sqltypes.Schema{{Name: "node", Type: sqltypes.Int}, {Name: "friends", Type: sqltypes.Float}, {Name: "friendsPrev", Type: sqltypes.Float}}
	var compiled *expr.Compiled
	ns, err := timeMedian(func() error {
		e, err := parser.ParseExpr(ffExpr)
		if err != nil {
			return err
		}
		compiled, err = expr.Compile(e, expr.NewEnv("forecast", schema))
		return err
	})
	if err != nil {
		return fmt.Errorf("compile %s: %w", ffExpr, err)
	}
	m["expr.compile_us"] = metric{ns / 1e3, "us"}

	rows := make([]sqltypes.Row, in.g.nodes)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewFloat(float64(3 + i%7)), sqltypes.NewFloat(float64(2 + i%5))}
	}
	ns, err = timeMedian(func() error {
		for _, r := range rows {
			if _, err := compiled.Eval(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("eval %s: %w", ffExpr, err)
	}
	m["expr.eval_ns"] = metric{ns / float64(len(rows)), "ns"}
	return nil
}
