// Package mpp simulates the shared-nothing execution of the paper's
// MPPDB substrate: plans run as per-partition fragments connected by
// shuffle exchanges. Base tables are already hash-partitioned in
// storage; joins repartition both sides on the join keys, aggregations
// repartition on the group keys, and order-sensitive operators gather
// to a single fragment. Every shuffled row is counted, making data
// movement a first-class metric.
package mpp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/expr"
	"dbspinner/internal/faultinject"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Stats counts MPP-level activity.
type Stats struct {
	// RowsShuffled is the number of rows processed by exchange
	// operators: every row an exchange hashes and routes (or
	// replicates, for broadcasts) counts, whether or not it lands on
	// the partition it came from. All exchanges — hash shuffles,
	// full-row shuffles, broadcasts and gathers — account identically,
	// so an elided exchange shows up as a genuine drop in this counter.
	RowsShuffled int64
	// RowsRelocated is the subset of RowsShuffled that actually changed
	// partitions in a hash exchange. A shuffle of an already
	// co-partitioned input relocates nothing; the layout-preservation
	// tests pin that.
	RowsRelocated int64
	// Fragments is the number of parallel fragments executed.
	Fragments int64
	// ShufflesElided counts exchange operators skipped because the
	// static partition-property analysis proved their input already
	// co-partitioned on the exchange keys.
	ShufflesElided int64
	// RowsElided counts the input rows of elided exchanges: rows that
	// were not rehashed and routed because the analysis proved they
	// already sit at their destination.
	RowsElided int64
}

// Elide annotates one plan node with the exchanges the static
// partition-property analysis (internal/distprop) proved redundant.
// Each licensed exchange carries the claimed routing columns — row
// positions in the exchange's input — whose RowKey(...).Partition
// destination every input row provably already occupies. The machine
// never derives these itself; it only consumes claims that the
// verifier has independently re-derived (fail closed: an absent entry
// means every exchange runs).
type Elide struct {
	// Left / Right license skipping the join-side shuffles; Input
	// licenses the aggregate group-by exchange (replaced by local
	// pre-aggregation plus an output-row shuffle) or the distinct
	// full-row exchange.
	Left, Right, Input bool
	// LeftCols / RightCols / InputCols are the claimed routing columns
	// of the corresponding elided exchange.
	LeftCols, RightCols, InputCols []int
}

// Machine evaluates plans over P partitions with up to P concurrent
// fragment goroutines.
type Machine struct {
	RT    exec.Runtime
	Parts int
	Stats *Stats
	Exec  *exec.Stats
	// Ctx, when non-nil, is polled at every partition batch (the start
	// of each parallel region) and — through per-partition
	// exec.CancelCheckers — inside the fragments' row loops, so a
	// canceled query stops mid-batch. A nil Ctx keeps the zero-cost
	// uncancellable path.
	Ctx context.Context
	// Elide maps plan nodes to their statically licensed exchange
	// elisions. A nil map (the default) runs every exchange.
	Elide map[plan.Node]Elide
	// CheckElide enables the dynamic cross-check: every row feeding an
	// elided exchange is re-hashed at consumption and the run fails if
	// any row is not already in its claimed partition.
	CheckElide bool
	// Faults, when non-nil, arms the partition-batch fault-injection
	// hook (internal/faultinject): each parallel region takes the
	// point serially before fanning out and fires it inside partition
	// 0's worker, keeping the hit count deterministic. Only the
	// program's top-level machine is armed — per-step machines of
	// scheduled regions would interleave the counter nondeterministically.
	Faults *faultinject.Registry
}

// New creates a machine. parts must be >= 1.
func New(rt exec.Runtime, parts int, stats *Stats, execStats *exec.Stats) *Machine {
	if parts < 1 {
		parts = 1
	}
	if stats == nil {
		stats = &Stats{}
	}
	if execStats == nil {
		execStats = &exec.Stats{}
	}
	return &Machine{RT: rt, Parts: parts, Stats: stats, Exec: execStats}
}

// relation is a partitioned intermediate result flowing between
// fragments.
type relation struct {
	parts [][]sqltypes.Row
	// src is the table whose partitions parts are, as they stand (only
	// the aligned branch of evalScan sets it); nil for anything computed.
	src *storage.Table
}

func (m *Machine) newRelation() *relation {
	return &relation{parts: make([][]sqltypes.Row, m.Parts)}
}

func (r *relation) gather() []sqltypes.Row {
	n := 0
	for _, p := range r.parts {
		n += len(p)
	}
	out := make([]sqltypes.Row, 0, n)
	for _, p := range r.parts {
		out = append(out, p...)
	}
	return out
}

// Run executes a plan in parallel and returns the gathered rows.
func (m *Machine) Run(n plan.Node) ([]sqltypes.Row, error) {
	rel, err := m.eval(n)
	if err != nil {
		return nil, err
	}
	return rel.gather(), nil
}

// Materialize executes a plan in parallel into a storage table.
func (m *Machine) Materialize(n plan.Node, name string) (*storage.Table, error) {
	rel, err := m.eval(n)
	if err != nil {
		return nil, err
	}
	t := storage.NewTable(name, plan.Schema(n), m.Parts)
	// Keep the fragment partitioning: the next step's scans read the
	// partitions as they were produced (no extra shuffle). The write-out
	// is one fragment per partition, counted like Run's parallel
	// regions even though the in-memory adoption is a slice swap.
	for i, p := range rel.parts {
		t.Parts[i] = p
	}
	atomic.AddInt64(&m.Stats.Fragments, int64(m.Parts))
	return t, nil
}

// checkpoint polls the machine's context; it is the cooperative
// cancellation point every parallel region consults before fanning
// out. A nil Ctx never fires.
func (m *Machine) checkpoint() error {
	if m.Ctx == nil {
		return nil
	}
	return m.Ctx.Err()
}

// isContextErr reports whether err stems from a fired context. (A
// local copy of the core-layer helper: mpp sits below core and cannot
// import it.)
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// parallel runs fn once per partition index, concurrently. Each
// worker receives a per-partition CancelChecker (possibly nil) to poll
// in its row loops. The first partition to fail cancels its siblings,
// which then stop at their next poll instead of running the batch to
// completion; the error returned is the first failure in time — except
// that a sibling's induced cancellation error never masks the real
// error that triggered it.
func (m *Machine) parallel(fn func(p int, cc *exec.CancelChecker) error) error {
	if err := m.checkpoint(); err != nil {
		return err
	}
	// The partition-batch fault hook: taken serially before the
	// fan-out (deterministic hit count) and fired inside partition 0's
	// worker, under the same containment real panics get.
	batchFault := m.Faults.Take(faultinject.PointPartition)
	outer := m.Ctx
	if outer == nil {
		outer = context.Background()
	}
	pctx, cancel := context.WithCancel(outer)
	defer cancel()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for p := 0; p < m.Parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if pctx.Err() != nil {
				return // a sibling already failed; skip the batch
			}
			// Contain converts a worker panic into a *faultinject.
			// PanicError carrying the partition; the core layer promotes
			// it with iteration and step provenance. No panic escapes the
			// goroutine, so no query can take down the process.
			err := faultinject.Contain(p, func() error {
				if p == 0 {
					if ferr := faultinject.Trigger(batchFault); ferr != nil {
						return ferr
					}
				}
				return fn(p, exec.NewCancelChecker(pctx))
			})
			if err == nil {
				return
			}
			mu.Lock()
			if first == nil || (isContextErr(first) && !isContextErr(err)) {
				first = err
			}
			mu.Unlock()
			cancel()
		}(p)
	}
	wg.Wait()
	atomic.AddInt64(&m.Stats.Fragments, int64(m.Parts))
	if first != nil {
		return first
	}
	// Workers skipped by an external cancellation record no error;
	// report the outer context's verdict so the caller still fails.
	if m.Ctx != nil {
		return m.Ctx.Err()
	}
	return nil
}

// shuffle redistributes a relation so that rows with equal key values
// land in the same partition. NULL keys go to partition 0 (they never
// match in joins but must survive for outer joins) — the same
// destination sqltypes.CompositeKey.Partition assigns them, so the
// exchange and the storage layer agree on one routing function.
func (m *Machine) shuffle(in *relation, keys []*expr.Compiled) (*relation, error) {
	cols := identityCols(len(keys))
	return m.shuffleBy(in, func() func(sqltypes.Row) (int, error) {
		vals := make(sqltypes.Row, len(keys)) // per-fragment key scratch
		return func(r sqltypes.Row) (int, error) {
			null, err := exec.EvalKey(keys, r, vals)
			if err != nil {
				return 0, err
			}
			if null {
				// EvalKey stops at the first NULL, so route explicitly;
				// Partition sends NULL-bearing keys to 0 too.
				return 0, nil
			}
			return sqltypes.RowKey(vals, cols).Partition(m.Parts), nil
		}
	})
}

// shuffleCols redistributes a relation routing each row by the values
// at the given column positions — the direct-column variant of shuffle
// used by the elided-aggregate path and the full-row distinct exchange,
// where the routing values are already materialized in the row.
func (m *Machine) shuffleCols(in *relation, cols []int) (*relation, error) {
	route := func(r sqltypes.Row) (int, error) {
		return sqltypes.RowKey(r, cols).Partition(m.Parts), nil
	}
	return m.shuffleBy(in, func() func(sqltypes.Row) (int, error) { return route })
}

func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// shuffleBy is the exchange body shared by every shuffle variant:
// per-source locals are concatenated in source-partition order so the
// exchange is deterministic run to run. Every routed row counts toward
// RowsShuffled; the rows that actually change partitions additionally
// count toward RowsRelocated. newRoute is called once per fragment, so a
// router may own scratch state.
func (m *Machine) shuffleBy(in *relation, newRoute func() func(sqltypes.Row) (int, error)) (*relation, error) {
	locals := make([][][]sqltypes.Row, m.Parts)
	routed := int64(0)
	moved := int64(0)
	err := m.parallel(func(p int, cc *exec.CancelChecker) error {
		local := make([][]sqltypes.Row, m.Parts)
		route := newRoute()
		atomic.AddInt64(&routed, int64(len(in.parts[p])))
		for _, r := range in.parts[p] {
			if err := cc.Tick(); err != nil {
				return err
			}
			dst, err := route(r)
			if err != nil {
				return err
			}
			local[dst] = append(local[dst], r)
			if dst != p {
				atomic.AddInt64(&moved, 1)
			}
		}
		locals[p] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := m.newRelation()
	for dst := 0; dst < m.Parts; dst++ {
		for src := 0; src < m.Parts; src++ {
			out.parts[dst] = append(out.parts[dst], locals[src][dst]...)
		}
	}
	atomic.AddInt64(&m.Stats.RowsShuffled, routed)
	atomic.AddInt64(&m.Stats.RowsRelocated, moved)
	return out, nil
}

// noteElide records an elided exchange over the given input and, when
// CheckElide is set, cross-checks the static claim dynamically: every
// row must already live in the partition the routing columns hash it
// to. The check is the runtime analogue of storage.Guard for the
// partition-property analysis — behavior never depends on it, an
// unsound claim is reported as an error.
func (m *Machine) noteElide(in *relation, cols []int, what string) error {
	n := int64(0)
	for _, p := range in.parts {
		n += int64(len(p))
	}
	atomic.AddInt64(&m.Stats.ShufflesElided, 1)
	atomic.AddInt64(&m.Stats.RowsElided, n)
	if !m.CheckElide {
		return nil
	}
	return m.parallel(func(p int, cc *exec.CancelChecker) error {
		for _, r := range in.parts[p] {
			if err := cc.Tick(); err != nil {
				return err
			}
			if dst := sqltypes.RowKey(r, cols).Partition(m.Parts); dst != p {
				return fmt.Errorf("mpp: elided %s exchange is unsound: row in partition %d routes to %d on cols %v", what, p, dst, cols)
			}
		}
		return nil
	})
}

// eval recursively evaluates a plan node into a partitioned relation.
func (m *Machine) eval(n plan.Node) (*relation, error) {
	switch t := n.(type) {
	case *plan.Scan, *plan.NamedResult:
		return m.evalScan(n)
	case *plan.Alias:
		return m.eval(t.Input)
	case *plan.Filter:
		return m.evalFilter(t)
	case *plan.Project:
		return m.evalProject(t)
	case *plan.Join:
		return m.evalJoin(t)
	case *plan.Aggregate:
		return m.evalAggregate(t)
	case *plan.Union:
		return m.evalUnion(t)
	case *plan.Distinct:
		return m.evalDistinct(t)
	case *plan.TopN:
		return m.evalTopN(t)
	case *plan.EmptyNode:
		return m.newRelation(), nil
	case *plan.Sort, *plan.Limit, *plan.Trim, *plan.OneRow, *plan.ValuesNode:
		return m.evalSequential(n)
	}
	return nil, fmt.Errorf("mpp: unsupported plan node %T", n)
}

func (m *Machine) evalScan(n plan.Node) (*relation, error) {
	var t *storage.Table
	var err error
	switch s := n.(type) {
	case *plan.Scan:
		t, err = m.RT.BaseTable(s.Table)
	case *plan.NamedResult:
		t, err = m.RT.Result(s.Name)
	}
	if err != nil {
		return nil, err
	}
	out := m.newRelation()
	// Re-slice the table's partitions onto the machine's layout.
	if len(t.Parts) == m.Parts {
		out.src = t
		for i, p := range t.Parts {
			out.parts[i] = p
			atomic.AddInt64(&m.Exec.RowsScanned, int64(len(p)))
		}
		return out, nil
	}
	i := 0
	for _, p := range t.Parts {
		for _, r := range p {
			out.parts[i%m.Parts] = append(out.parts[i%m.Parts], r)
			i++
		}
	}
	atomic.AddInt64(&m.Exec.RowsScanned, int64(i))
	return out, nil
}

func (m *Machine) evalFilter(t *plan.Filter) (*relation, error) {
	in, err := m.eval(t.Input)
	if err != nil {
		return nil, err
	}
	cond, err := expr.Compile(t.Cond, nodeEnv(t.Input))
	if err != nil {
		return nil, err
	}
	out := m.newRelation()
	err = m.parallel(func(p int, cc *exec.CancelChecker) error {
		kept := make([]sqltypes.Row, 0, len(in.parts[p]))
		for _, r := range in.parts[p] {
			if err := cc.Tick(); err != nil {
				return err
			}
			v, err := cond.Eval(r)
			if err != nil {
				return err
			}
			if sqltypes.TriOf(v) == sqltypes.TriTrue {
				kept = append(kept, r)
			}
		}
		out.parts[p] = kept
		return nil
	})
	return out, err
}

func (m *Machine) evalProject(t *plan.Project) (*relation, error) {
	in, err := m.eval(t.Input)
	if err != nil {
		return nil, err
	}
	env := nodeEnv(t.Input)
	// Compile one evaluator set per fragment: Compiled closures are
	// stateless, but building per fragment keeps the model honest
	// (each node compiles its own fragment plan).
	out := m.newRelation()
	err = m.parallel(func(p int, cc *exec.CancelChecker) error {
		items := make([]*expr.Compiled, len(t.Items))
		for i, it := range t.Items {
			c, err := expr.Compile(it.Expr, env)
			if err != nil {
				return err
			}
			items[i] = c
		}
		res := sqltypes.MakeRows(len(in.parts[p]), len(items))
		for ri, r := range in.parts[p] {
			if err := cc.Tick(); err != nil {
				return err
			}
			for i, c := range items {
				v, err := c.Eval(r)
				if err != nil {
					return err
				}
				res[ri][i] = v
			}
		}
		out.parts[p] = res
		return nil
	})
	return out, err
}

func (m *Machine) evalJoin(t *plan.Join) (*relation, error) {
	left, err := m.eval(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := m.eval(t.Right)
	if err != nil {
		return nil, err
	}
	lw, rw := len(t.Left.Columns()), len(t.Right.Columns())

	leftKeys, rightKeys, residual, err := exec.JoinKeys(t)
	if err != nil {
		return nil, err
	}

	if t.Type == ast.CrossJoin || len(leftKeys) == 0 {
		if t.Type != ast.CrossJoin && t.Type != ast.InnerJoin {
			return nil, fmt.Errorf("outer join requires at least one equality condition")
		}
		// Broadcast join: the right side is replicated to every
		// fragment (counted as movement), the left side stays put.
		residual, err := exec.CompileResidual(t)
		if err != nil {
			return nil, err
		}
		bc := right.gather()
		atomic.AddInt64(&m.Stats.RowsShuffled, int64(len(bc))*int64(m.Parts-1))
		out := m.newRelation()
		err = m.parallel(func(p int, cc *exec.CancelChecker) error {
			if e := cc.Check(); e != nil {
				return e
			}
			rows, err := exec.NestedLoopPartition(left.parts[p], bc, residual, nil)
			if err != nil {
				return err
			}
			out.parts[p] = rows
			return nil
		})
		if err != nil {
			return nil, err
		}
		m.addJoined(out)
		return out, nil
	}

	// Repartition both sides on the join keys, then join partition-wise.
	// A side whose input the partition-property analysis proved already
	// hash-distributed on exactly its key columns skips the exchange:
	// the shuffle would route every row to the partition it is already
	// in and reproduce the input verbatim (per-source concatenation of
	// rows that all stay put), so the elided path is byte-identical.
	el := m.Elide[plan.Node(t)]
	leftSh := left
	if el.Left {
		if err := m.noteElide(left, el.LeftCols, "join left"); err != nil {
			return nil, err
		}
	} else if leftSh, err = m.shuffle(left, leftKeys); err != nil {
		return nil, err
	}
	rightSh := right
	if el.Right {
		if err := m.noteElide(right, el.RightCols, "join right"); err != nil {
			return nil, err
		}
	} else if rightSh, err = m.shuffle(right, rightKeys); err != nil {
		return nil, err
	}
	// The build side (exec.HashJoinPartition's: the right input, a
	// right-outer join's left). When it is a table's own partitions — a
	// scan whose exchange was elided; a shuffle's output is a new relation
	// every time — each fragment takes its partition's index from the
	// run's memo instead of building it.
	build, buildKeys := rightSh, rightKeys
	if t.Type == ast.RightJoin {
		build, buildKeys = leftSh, leftKeys
	}
	out := m.newRelation()
	err = m.parallel(func(p int, cc *exec.CancelChecker) error {
		if e := cc.Check(); e != nil {
			return e
		}
		var index *exec.HashIndex
		built := true
		if build.src != nil {
			var err error
			if index, built, err = m.RT.Indexes().Index(build.src, p, buildKeys); err != nil {
				return err
			}
		}
		if built {
			atomic.AddInt64(&m.Exec.RowsIndexed, int64(len(build.parts[p])))
		}
		rows, err := exec.HashJoinPartition(t.Type, leftSh.parts[p], rightSh.parts[p],
			leftKeys, rightKeys, residual, lw, rw, index, nil)
		if err != nil {
			return err
		}
		out.parts[p] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.addJoined(out)
	return out, nil
}

func (m *Machine) addJoined(out *relation) {
	n := int64(0)
	for _, p := range out.parts {
		n += int64(len(p))
	}
	atomic.AddInt64(&m.Exec.RowsJoined, n)
}

func (m *Machine) evalAggregate(t *plan.Aggregate) (*relation, error) {
	in, err := m.eval(t.Input)
	if err != nil {
		return nil, err
	}
	if len(t.GroupBy) == 0 {
		// Scalar aggregate: gather and run once (cheap: one output row).
		rows, err := exec.AggregatePartition(t, in.gather(), true, m.Exec)
		if err != nil {
			return nil, err
		}
		out := m.newRelation()
		out.parts[0] = rows
		return out, nil
	}
	if el := m.Elide[plan.Node(t)]; el.Input {
		return m.evalAggregateElided(t, in, el.InputCols)
	}
	keys, err := exec.GroupKeyExprs(t)
	if err != nil {
		return nil, err
	}
	sh, err := m.shuffle(in, keys)
	if err != nil {
		return nil, err
	}
	out := m.newRelation()
	var grouped int64
	err = m.parallel(func(p int, cc *exec.CancelChecker) error {
		if e := cc.Check(); e != nil {
			return e
		}
		rows, err := exec.AggregatePartition(t, sh.parts[p], false, nil)
		if err != nil {
			return err
		}
		out.parts[p] = rows
		atomic.AddInt64(&grouped, int64(len(rows)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Per-partition calls pass a nil stats (the shared counter would
	// race); account their aggregate input here instead.
	var aggIn int64
	for _, p := range sh.parts {
		aggIn += int64(len(p))
	}
	atomic.AddInt64(&m.Exec.RowsAggInput, aggIn)
	atomic.AddInt64(&m.Exec.RowsGrouped, grouped)
	return out, nil
}

// evalAggregateElided is the grouped-aggregate path licensed by the
// partition-property analysis: the input is hash-distributed on
// columns equivalent to the group keys, so every group's rows already
// sit in one partition. Each fragment aggregates its partition exactly
// (no merge needed), then the one-row-per-group outputs are exchanged
// to the partitions the regular input shuffle would have used —
// RowKey over the leading group columns, the same values EvalKey
// computes from the group expressions, through the same Partition
// function. Destination, per-destination order (source-major, groups
// in first-seen order within each source) and float accumulation
// order all match the non-elided path, so results are byte-identical;
// only ~#groups rows move instead of ~#input rows.
func (m *Machine) evalAggregateElided(t *plan.Aggregate, in *relation, cols []int) (*relation, error) {
	if err := m.noteElide(in, cols, "aggregate input"); err != nil {
		return nil, err
	}
	pre := m.newRelation()
	var grouped int64
	err := m.parallel(func(p int, cc *exec.CancelChecker) error {
		if e := cc.Check(); e != nil {
			return e
		}
		rows, err := exec.AggregatePartition(t, in.parts[p], false, nil)
		if err != nil {
			return err
		}
		pre.parts[p] = rows
		atomic.AddInt64(&grouped, int64(len(rows)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var aggIn int64
	for _, p := range in.parts {
		aggIn += int64(len(p))
	}
	atomic.AddInt64(&m.Exec.RowsAggInput, aggIn)
	atomic.AddInt64(&m.Exec.RowsGrouped, grouped)
	return m.shuffleCols(pre, identityCols(len(t.GroupBy)))
}

func (m *Machine) evalUnion(t *plan.Union) (*relation, error) {
	left, err := m.eval(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := m.eval(t.Right)
	if err != nil {
		return nil, err
	}
	out := m.newRelation()
	for p := 0; p < m.Parts; p++ {
		out.parts[p] = append(append([]sqltypes.Row(nil), left.parts[p]...), right.parts[p]...)
	}
	return out, nil
}

func (m *Machine) evalDistinct(t *plan.Distinct) (*relation, error) {
	in, err := m.eval(t.Input)
	if err != nil {
		return nil, err
	}
	// Repartition on the full row so duplicates co-locate, through the
	// same Partition function every other placement path uses
	// (NULL-bearing rows go to partition 0, single-column rows use the
	// scalar hash), so the partition-property analysis can equate the
	// distinct exchange's layout with storage and shuffle layouts. When
	// it proved the input already distributed on the full row, the
	// exchange is the identity and is skipped.
	width := len(t.Input.Columns())
	sh := in
	if el := m.Elide[plan.Node(t)]; el.Input {
		if err := m.noteElide(in, el.InputCols, "distinct input"); err != nil {
			return nil, err
		}
	} else if sh, err = m.shuffleCols(in, identityCols(width)); err != nil {
		return nil, err
	}
	out := m.newRelation()
	err = m.parallel(func(p int, cc *exec.CancelChecker) error {
		seen := sqltypes.NewKeyTable(width, len(sh.parts[p]))
		var kept []sqltypes.Row
		for _, r := range sh.parts[p] {
			if err := cc.Tick(); err != nil {
				return err
			}
			if _, added := seen.Insert(r); added {
				kept = append(kept, r)
			}
		}
		out.parts[p] = kept
		return nil
	})
	return out, err
}

// evalTopN implements distributed top-k: each fragment computes its
// local top N+Offset candidates, only those are gathered (counted as
// movement), and a final TopN over the candidates produces the answer.
func (m *Machine) evalTopN(t *plan.TopN) (*relation, error) {
	in, err := m.eval(t.Input)
	if err != nil {
		return nil, err
	}
	keep := t.N + t.Offset
	locals := make([][]sqltypes.Row, m.Parts)
	err = m.parallel(func(p int, cc *exec.CancelChecker) error {
		if e := cc.Check(); e != nil {
			return e
		}
		rows, err := exec.TopNPartition(in.parts[p], t.Keys, keep)
		if err != nil {
			return err
		}
		locals[p] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var candidates []sqltypes.Row
	for _, l := range locals {
		candidates = append(candidates, l...)
	}
	atomic.AddInt64(&m.Stats.RowsShuffled, int64(len(candidates)))
	final, err := exec.TopNPartition(candidates, t.Keys, keep)
	if err != nil {
		return nil, err
	}
	if t.Offset < int64(len(final)) {
		final = final[t.Offset:]
	} else {
		final = nil
	}
	out := m.newRelation()
	out.parts[0] = final
	return out, nil
}

// evalSequential handles order-sensitive nodes by evaluating the input
// in parallel, gathering to a single fragment and finishing with the
// volcano operators.
func (m *Machine) evalSequential(n plan.Node) (*relation, error) {
	out := m.newRelation()
	switch t := n.(type) {
	case *plan.OneRow:
		out.parts[0] = []sqltypes.Row{{}}
		return out, nil
	case *plan.ValuesNode:
		rows, err := exec.Run(t, m.RT, m.Exec)
		if err != nil {
			return nil, err
		}
		out.parts[0] = rows
		return out, nil
	case *plan.Sort:
		in, err := m.eval(t.Input)
		if err != nil {
			return nil, err
		}
		rows := in.gather()
		atomic.AddInt64(&m.Stats.RowsShuffled, int64(len(rows)))
		keys := t.Keys
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range keys {
				c := sqltypes.Compare(rows[i][k.Col], rows[j][k.Col])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		out.parts[0] = rows
		return out, nil
	case *plan.Limit:
		in, err := m.eval(t.Input)
		if err != nil {
			return nil, err
		}
		rows := in.gather()
		start := t.Offset
		if start > int64(len(rows)) {
			start = int64(len(rows))
		}
		end := int64(len(rows))
		if t.N >= 0 && start+t.N < end {
			end = start + t.N
		}
		out.parts[0] = rows[start:end]
		return out, nil
	case *plan.Trim:
		in, err := m.eval(t.Input)
		if err != nil {
			return nil, err
		}
		err = m.parallel(func(p int, cc *exec.CancelChecker) error {
			res := make([]sqltypes.Row, len(in.parts[p]))
			for i, r := range in.parts[p] {
				if err := cc.Tick(); err != nil {
					return err
				}
				res[i] = r[:t.Keep]
			}
			out.parts[p] = res
			return nil
		})
		return out, err
	}
	return nil, fmt.Errorf("mpp: unsupported sequential node %T", n)
}

func nodeEnv(n plan.Node) *expr.Env {
	e := &expr.Env{}
	for i, c := range n.Columns() {
		e.Cols = append(e.Cols, expr.Binding{
			Table: lower(c.Table), Name: lower(c.Name), Index: i, Type: c.Type,
		})
	}
	return e
}

func lower(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}
