// Package exec implements the physical operators: volcano-style
// iterators compiled from logical plans. Joins are hash joins with
// equi-key extraction (falling back to nested loops), aggregation is
// hash-based, and every operator follows SQL NULL semantics.
package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Runtime supplies table data to operators at execution time.
type Runtime interface {
	// BaseTable resolves a catalog table.
	BaseTable(name string) (*storage.Table, error)
	// Result resolves a named intermediate result.
	Result(name string) (*storage.Table, error)
	// Memo returns the run memo; nil when there is none, and every join
	// builds its own index, every tree compiles its own expressions and
	// every table allocates its own rows.
	Memo() *Memo
}

// Stats accumulates execution counters, used by the benchmarks and the
// data-movement experiments. Both executors count alike: the fragments
// of an MPP run are these operators over one partition each, so their
// sums are the volcano run's counts — except where the machine has to
// shuffle a join's build side, which it then reads and indexes every
// time, memo or not.
type Stats struct {
	// RowsScanned counts rows read from base tables and results. A join
	// whose build side's index came out of the run memo (Memo.Index) did
	// not read that table again and counts nothing for it.
	RowsScanned int64
	RowsJoined  int64 // rows emitted by joins
	// RowsIndexed counts rows inserted into join hash indexes: every
	// build-side row of every build that happened. A loop that indexes a
	// table it does not change once per query adds the table's rows once.
	RowsIndexed int64
	RowsGrouped int64 // groups emitted by aggregates
	// RowsAggInput counts rows fed INTO aggregate operators — the
	// input-side metric the incremental-aggregate-maintenance
	// experiment reports (a maintained plan aggregates only the
	// affected groups' rows, a full plan everything).
	RowsAggInput int64
	// ResultCellsRead counts cells (row length per row) read from
	// materialized intermediate results — the read-side half of the
	// column-pruning experiment's data-movement metric (the write side
	// is core.Stats.MaterializedCells).
	ResultCellsRead int64
}

// Add adds o's counters to s. Every counter of one plan's run ends up
// in one Stats this way: the fragments of an MPP run count privately
// and are summed after the fan-out.
func (s *Stats) Add(o *Stats) {
	s.RowsScanned += o.RowsScanned
	s.RowsJoined += o.RowsJoined
	s.RowsIndexed += o.RowsIndexed
	s.RowsGrouped += o.RowsGrouped
	s.RowsAggInput += o.RowsAggInput
	s.ResultCellsRead += o.ResultCellsRead
}

// Operator is a volcano-style iterator. Next returns nil at end of
// stream. Unless the operator was built for a consumer that keeps rows
// (every exported entry point builds such a tree), a returned row is
// valid only until the next Next or Close: see rows.go.
type Operator interface {
	Open() error
	Next() (sqltypes.Row, error)
	Close() error
}

// Drain runs an operator to completion and returns all rows. It keeps
// them, so op must not have been built to lend its rows.
func Drain(op Operator) ([]sqltypes.Row, error) { return DrainInto(nil, op) }

// DrainInto is Drain appending to out, which a caller that knows about
// how many rows will come can presize.
func DrainInto(out []sqltypes.Row, op Operator) ([]sqltypes.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	for {
		r, err := op.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r)
	}
}

// Build compiles a logical plan into an operator tree whose rows the
// caller may keep (see rows.go for the ownership contract).
func Build(n plan.Node, rt Runtime, stats *Stats) (Operator, error) {
	return buildWith(n, rt, stats, nil, false, nil)
}

// buildWith is the recursive compiler; cc (possibly nil) is shared by
// every operator of the tree — execution is single-threaded. borrow
// says that n's consumer is done with each row before it asks for the
// next one, so n's operator may reuse one output row (rows.go). frag is
// nil except under the MPP machine, which builds one tree per partition
// of each exchange-free piece of its plan (fragment.go).
func buildWith(n plan.Node, rt Runtime, stats *Stats, cc *CancelChecker, borrow bool, frag *fragPart) (Operator, error) {
	if stats == nil {
		stats = &Stats{}
	}
	if frag == nil {
		return buildNode(n, rt, stats, cc, borrow, nil)
	}
	return frag.build(n, rt, stats, cc, borrow)
}

// buildNode compiles n's own operator over the trees buildWith makes of
// its inputs.
func buildNode(n plan.Node, rt Runtime, stats *Stats, cc *CancelChecker, borrow bool, frag *fragPart) (Operator, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return &scanOp{name: t.Table, base: true, rt: rt, stats: stats, cancel: cc, frag: frag}, nil
	case *plan.NamedResult:
		return &scanOp{name: t.Name, base: false, keep: !borrow, rt: rt, stats: stats, cancel: cc, frag: frag}, nil
	case *plan.OneRow:
		return &rowsOp{rows: []sqltypes.Row{{}}}, nil
	case *plan.Alias:
		return buildWith(t.Input, rt, stats, cc, borrow, frag)
	case *plan.Filter:
		in, err := buildWith(t.Input, rt, stats, cc, borrow, frag)
		if err != nil {
			return nil, err
		}
		cond, err := shared(rt.Memo(), n, func() (*expr.Compiled, error) {
			return expr.Compile(t.Cond, planEnv(t.Input, rt.Memo().Params()))
		})
		if err != nil {
			return nil, err
		}
		return &filterOp{input: in, cond: cond}, nil
	case *plan.Project:
		in, err := buildWith(t.Input, rt, stats, cc, true, frag)
		if err != nil {
			return nil, err
		}
		px, err := shared(rt.Memo(), n, func() (px projectExprs, err error) {
			e := planEnv(t.Input, rt.Memo().Params())
			px.items = make([]*expr.Compiled, len(t.Items))
			for i, it := range t.Items {
				if px.items[i], err = expr.Compile(it.Expr, e); err != nil {
					return px, err
				}
			}
			if slices.ContainsFunc(px.items, (*expr.Compiled).Typed) {
				px.run = runOf(rt.Memo(), n, func() *batchRun { return new(batchRun) })
			}
			return px, nil
		})
		if err != nil {
			return nil, err
		}
		return &projectOp{input: in, items: px.items, run: px.run, out: outRows{borrow: borrow}}, nil
	case *plan.Join:
		return buildJoin(t, rt, stats, cc, borrow, frag)
	case *plan.Aggregate:
		return buildAggregate(t, rt, stats, cc, borrow, frag)
	case *plan.Union:
		l, err := buildWith(t.Left, rt, stats, cc, borrow, frag)
		if err != nil {
			return nil, err
		}
		r, err := buildWith(t.Right, rt, stats, cc, borrow, frag)
		if err != nil {
			return nil, err
		}
		return &unionOp{left: l, right: r}, nil
	case *plan.Distinct:
		in, err := buildWith(t.Input, rt, stats, cc, borrow, frag)
		if err != nil {
			return nil, err
		}
		run, _ := shared(rt.Memo(), n, func() (*distinctRun, error) {
			return runOf(rt.Memo(), n, func() *distinctRun { return new(distinctRun) }), nil
		})
		return &distinctOp{input: in, width: len(t.Input.Columns()), run: run}, nil
	case *plan.Sort:
		in, err := buildWith(t.Input, rt, stats, cc, false, frag)
		if err != nil {
			return nil, err
		}
		return &sortOp{input: in, keys: t.Keys}, nil
	case *plan.Limit:
		in, err := buildWith(t.Input, rt, stats, cc, borrow, frag)
		if err != nil {
			return nil, err
		}
		n, offset := t.Bound(rt.Memo().Params())
		return &limitOp{input: in, n: n, offset: offset}, nil
	case *plan.TopN:
		in, err := buildWith(t.Input, rt, stats, cc, false, frag)
		if err != nil {
			return nil, err
		}
		n, offset := t.Bound(rt.Memo().Params())
		return &topNOp{input: in, keys: t.Keys, n: n, offset: offset}, nil
	case *plan.EmptyNode:
		return &rowsOp{}, nil
	case *plan.Trim:
		in, err := buildWith(t.Input, rt, stats, cc, borrow, frag)
		if err != nil {
			return nil, err
		}
		return &trimOp{input: in, keep: t.Keep}, nil
	case *plan.ValuesNode:
		rows := make([]sqltypes.Row, len(t.Rows))
		emptyEnv := &expr.Env{}
		for i, exprs := range t.Rows {
			row := make(sqltypes.Row, len(exprs))
			for j, e := range exprs {
				c, err := expr.Compile(e, emptyEnv)
				if err != nil {
					return nil, err
				}
				v, err := c.Eval(nil)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			rows[i] = row
		}
		return &rowsOp{rows: rows}, nil
	}
	return nil, fmt.Errorf("unsupported plan node %T", n)
}

// Run builds and drains a plan in one call.
func Run(n plan.Node, rt Runtime, stats *Stats) ([]sqltypes.Row, error) {
	return RunContext(nil, n, rt, stats)
}

// RunContext builds and drains a plan whose hot loops poll ctx at a
// coarse row stride; a fired context surfaces as ctx.Err(). A nil ctx
// keeps the zero-cost uncancellable path.
func RunContext(ctx context.Context, n plan.Node, rt Runtime, stats *Stats) ([]sqltypes.Row, error) {
	op, err := buildWith(n, rt, stats, NewCancelChecker(ctx), false, nil)
	if err != nil {
		return nil, err
	}
	return Drain(op)
}

// MaterializeContext executes a plan into a fresh storage table with the
// given name and partition count. Like base tables, intermediate
// results are hash-distributed on their first column: the physical
// layout is then a function of row content alone, so a plan rewrite
// that adds or removes rows cannot permute the scan-back order of the
// rows both plans produce (order-sensitive float aggregation stays
// bit-identical across optimizer variants).
//
// Each row goes into its partition as the plan produces it, so the
// partitions and their order are what InsertBatch makes of the drained
// rows, without the drained slice. A chain of filters and a project with
// a typed item produces its rows a batch at a time, and an aggregate
// over a chain of hash joins takes its input a batch at a time
// (batch.go): the same rows in the same order. hint, when it has one
// count per partition, presizes each partition to hold that many rows: a
// step passes about what it wrote there last iteration. It is advisory and
// changes capacity, never rows. The plan's hot loops poll ctx at a
// coarse row stride; a nil ctx keeps the zero-cost uncancellable path.
// The partitions come from the run's free list (Memo.Chunks), and a
// table whose every row the root builds (rowSource) owns them: they are
// carved from its chunks (storage.Table.OwnRows).
func MaterializeContext(ctx context.Context, n plan.Node, rt Runtime, stats *Stats, name string, parts int, hint []int) (*storage.Table, error) {
	op, err := buildWith(n, rt, stats, NewCancelChecker(ctx), false, nil)
	if err != nil {
		return nil, err
	}
	t := storage.NewTable(name, plan.Schema(n), parts)
	if len(t.Schema) > 0 {
		t.DistCol = 0
	}
	chunks := rt.Memo().Chunks()
	CarveRows(op, func() *sqltypes.Arena { return t.OwnRows(chunks) })
	if len(hint) == len(t.Parts) {
		for p, rows := range hint {
			if rows > 0 {
				t.Parts[p] = chunks.Part(rows)
			}
		}
	}
	if a := aggUnder(op); a != nil {
		a.batch = !rowAtATime.Load()
	}
	if c, ok := batchChainOf(op); ok {
		if err := c.materialize(t); err != nil {
			return nil, err
		}
		return t, nil
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	for {
		r, err := op.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return t, nil
		}
		t.Insert(r)
	}
}

// CarveRows carves the rows op emits from chunks recorded in the arena
// own returns, when op's tree builds every row it emits (rowSource), and
// reports whether it did; own is called only then, so that the arena's
// table owns those rows. A tree that may pass on a row it did not build
// is left as it is. It is the one ownership rule of a materialized table,
// MaterializeContext's and the MPP machine's Materialize's; call it before
// Open, on a tree built for a keeping consumer.
func CarveRows(op Operator, own func() *sqltypes.Arena) bool {
	out := rowSource(op)
	if out == nil {
		return false
	}
	out.slab.CarveFor(own())
	return true
}

// rowSource returns the outRows of the project every row op emits
// comes from, under filters, trims and limits; nil when op may pass on
// a row it did not build (a scan's, an aggregate's, a join's).
func rowSource(op Operator) *outRows {
	for {
		switch o := op.(type) {
		case *filterOp:
			op = o.input
		case *trimOp:
			op = o.input
		case *limitOp:
			op = o.input
		case *projectOp:
			return &o.out
		default:
			return nil
		}
	}
}

// planEnv builds the expression environment for a node's output under a
// run's bound literal values.
func planEnv(n plan.Node, params []sqltypes.Value) *expr.Env {
	e := &expr.Env{Params: params}
	for i, c := range n.Columns() {
		e.Cols = append(e.Cols, expr.Binding{
			Table: strings.ToLower(c.Table),
			Name:  strings.ToLower(c.Name),
			Index: i,
			Type:  c.Type,
		})
	}
	return e
}

// --- scan --------------------------------------------------------------

type scanOp struct {
	name string
	base bool
	// keep: the consumer keeps rows (rows.go), so Open pins the result it
	// reads; a reader's scan, in a fragment or not, pins nothing.
	keep   bool
	rt     Runtime
	stats  *Stats
	cancel *CancelChecker
	frag   *fragPart // non-nil: read only this partition's share of the table

	// parts snapshots the table's partition slices at Open; the slices
	// themselves are stable (a table bound in the result store is frozen,
	// see storage.Table, and DML drains its scans before mutating), so
	// no row copying is needed.
	parts [][]sqltypes.Row
	pi    int
	pos   int
}

// table resolves the table the scan reads.
func (s *scanOp) table() (*storage.Table, error) {
	if s.base {
		return s.rt.BaseTable(s.name)
	}
	return s.rt.Result(s.name)
}

func (s *scanOp) Open() error {
	t, err := s.table()
	if err != nil {
		return err
	}
	if !s.base && s.keep && (s.frag == nil || !test.unpinnedFragmentKeeper) {
		t.Pin()
	}
	switch {
	case s.frag == nil:
		s.parts = append(s.parts[:0], t.Parts...)
	case s.frag.aligned(t):
		s.parts = append(s.parts[:0], t.Parts[s.frag.part])
	default:
		s.parts = append(s.parts[:0], s.frag.dealt(t))
	}
	s.pi, s.pos = 0, 0
	return nil
}

func (s *scanOp) Next() (sqltypes.Row, error) {
	if err := s.cancel.Tick(); err != nil {
		return nil, err
	}
	for s.pi < len(s.parts) {
		part := s.parts[s.pi]
		if s.pos < len(part) {
			r := part[s.pos]
			s.pos++
			s.stats.RowsScanned++
			if !s.base {
				s.stats.ResultCellsRead += int64(len(r))
			}
			return r, nil
		}
		s.pi++
		s.pos = 0
	}
	return nil, nil
}

func (s *scanOp) Close() error {
	s.parts = nil
	return nil
}

// --- trivial operators --------------------------------------------------

// rowsOp emits fixed rows: a VALUES list, the one empty row of a
// FROM-less SELECT, none for a provably false filter, or what an
// exchange delivered to a fragment.
type rowsOp struct {
	rows   []sqltypes.Row
	cancel *CancelChecker
	pos    int
}

func (r *rowsOp) Open() error { r.pos = 0; return nil }
func (r *rowsOp) Next() (sqltypes.Row, error) {
	if err := r.cancel.Tick(); err != nil {
		return nil, err
	}
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	row := r.rows[r.pos]
	r.pos++
	return row, nil
}
func (r *rowsOp) Close() error { return nil }

type filterOp struct {
	input Operator
	cond  *expr.Compiled
}

func (f *filterOp) Open() error { return f.input.Open() }
func (f *filterOp) Next() (sqltypes.Row, error) {
	for {
		r, err := f.input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		ok, err := f.cond.Holds(r)
		if err != nil {
			return nil, err
		}
		if ok {
			return r, nil
		}
	}
}
func (f *filterOp) Close() error { return f.input.Close() }

type projectOp struct {
	input Operator
	items []*expr.Compiled
	run   *batchRun // nil unless an item is typed: the batch form's run state
	out   outRows
}

// projectExprs is what a project node's items compile to, plus its run
// state where an item is typed.
type projectExprs struct {
	items []*expr.Compiled
	run   *batchRun
}

func (p *projectOp) Open() error {
	p.out.reset()
	return p.input.Open()
}
func (p *projectOp) Next() (sqltypes.Row, error) {
	r, err := p.input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	out := p.out.next(len(p.items))
	if err := evalInto(p.items, r, out); err != nil {
		return nil, err
	}
	return out, nil
}
func (p *projectOp) Close() error { return p.input.Close() }

// evalInto evaluates exprs over r into out (len(out) must be
// len(exprs)). A bare column is copied in place: its Eval is called only
// for a row too short for it, to fail as it would.
func evalInto(exprs []*expr.Compiled, r sqltypes.Row, out []sqltypes.Value) error {
	for i, e := range exprs {
		if c := e.Col; c >= 0 && c < len(r) {
			out[i] = r[c]
			continue
		}
		v, err := e.Eval(r)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

type trimOp struct {
	input Operator
	keep  int
}

func (t *trimOp) Open() error { return t.input.Open() }
func (t *trimOp) Next() (sqltypes.Row, error) {
	r, err := t.input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	return r[:t.keep:t.keep], nil
}
func (t *trimOp) Close() error { return t.input.Close() }

type unionOp struct {
	left, right Operator
	onRight     bool
}

func (u *unionOp) Open() error {
	u.onRight = false
	if err := u.left.Open(); err != nil {
		return err
	}
	return u.right.Open()
}

func (u *unionOp) Next() (sqltypes.Row, error) {
	if !u.onRight {
		r, err := u.left.Next()
		if err != nil {
			return nil, err
		}
		if r != nil {
			return r, nil
		}
		u.onRight = true
	}
	return u.right.Next()
}

func (u *unionOp) Close() error {
	err1 := u.left.Close()
	err2 := u.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

type distinctOp struct {
	input Operator
	width int
	run   *distinctRun
	seen  *sqltypes.KeyTable
}

// distinctRun is what a distinct node carries from one of its runs to the
// next (nodeRun). The operator hands on its input's rows, so its key
// table is its own at Close whoever its consumer is.
type distinctRun struct {
	// lastRows is how many distinct rows the node's last run that
	// closed produced, in whichever partition closed last: what the next
	// run presizes its key table to.
	lastRows atomic.Int64
	// spare holds the key tables of closed runs, for the next run to
	// reset and fill instead of allocating.
	spare sqltypes.Spares[*sqltypes.KeyTable]
}

func (r *distinctRun) sweep()    { r.spare.Sweep() }
func (r *distinctRun) handBack() { r.spare.HandBack() }

func (d *distinctOp) Open() error {
	if d.seen = d.run.spare.Take(); d.seen == nil {
		d.seen = new(sqltypes.KeyTable)
	}
	d.seen.Reset(d.width, 0, int(d.run.lastRows.Load()))
	return d.input.Open()
}

func (d *distinctOp) Next() (sqltypes.Row, error) {
	for {
		r, err := d.input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		if _, added := d.seen.Insert(r); added {
			return r, nil
		}
	}
}

func (d *distinctOp) Close() error {
	if d.seen != nil {
		d.run.lastRows.Store(int64(d.seen.Len()))
		d.run.spare.Give(d.seen)
	}
	d.seen = nil
	return d.input.Close()
}

type sortOp struct {
	input Operator
	keys  []plan.SortKey

	rows []sqltypes.Row
	pos  int
}

func (s *sortOp) Open() error {
	rows, err := Drain(s.input)
	if err != nil {
		return err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		before, _ := sortsBefore(s.keys, rows[i], rows[j])
		return before
	})
	s.rows = rows
	s.pos = 0
	return nil
}

func (s *sortOp) Next() (sqltypes.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sortOp) Close() error {
	s.rows = nil
	return nil
}

type limitOp struct {
	input   Operator
	n       int64
	offset  int64
	skipped int64
	emitted int64
}

func (l *limitOp) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.input.Open()
}

func (l *limitOp) Next() (sqltypes.Row, error) {
	for l.skipped < l.offset {
		r, err := l.input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		l.skipped++
	}
	if l.n >= 0 && l.emitted >= l.n {
		return nil, nil
	}
	r, err := l.input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	l.emitted++
	return r, nil
}

func (l *limitOp) Close() error { return l.input.Close() }

// --- aggregation --------------------------------------------------------

type aggOp struct {
	node  *plan.Aggregate
	stats *Stats
	input Operator
	aggExprs
	newAgg []func() expr.Aggregator // per aggregate: its accumulator constructor
	// lend: the consumer is done with each row before it asks for the
	// next (rows.go), so once closed the operator's table and
	// accumulators can go back to the node's run state for its next run.
	lend bool
	// batch: MaterializeContext runs the operator's tree, so a chain of
	// hash joins under it may feed it a batch at a time (batch.go).
	batch bool

	// groups holds, once open, one row per group in first-encounter
	// order: the group key, then one cell per aggregate holding its
	// result. Those rows are the operator's output, its one buffer. aggs
	// holds the groups' accumulators, nAggs per group.
	groups *sqltypes.KeyTable
	aggs   []expr.Aggregator
	pos    int
}

// aggExprs is what an aggregate node's expressions compile to, plus the
// node's run state.
type aggExprs struct {
	groupEx []*expr.Compiled
	argEx   []*expr.Compiled // nil entries for COUNT(*)
	run     *aggRun
}

// aggRun is what one aggregate node carries from one of its runs to the
// next, within the run of a statement and from that run to the next
// (Leftovers). All of it is advisory: it changes capacity and who
// allocates, never rows.
type aggRun struct {
	// lastGroups is how many groups the node produced the last time it
	// ran, in whichever partition finished last: what the next run
	// presizes its group table and accumulators to. A stale or another
	// partition's count changes capacity, never rows.
	lastGroups atomic.Int64

	// spare holds the group tables and accumulators of lending runs that
	// closed, for the next run to reset and fill instead of allocating:
	// at most one per run of the node open at the same time (the
	// partitions of an MPP machine).
	spare sqltypes.Spares[aggSpare]
	// batch holds the scratch of the node's join → aggregate runs in the
	// batch form (batch.go).
	batch sqltypes.Spares[*joinAggScratch]
}

type aggSpare struct {
	groups *sqltypes.KeyTable
	aggs   []expr.Aggregator
}

func (r *aggRun) sweep()    { r.spare.Sweep(); r.batch.Sweep() }
func (r *aggRun) handBack() { r.spare.HandBack(); r.batch.HandBack() }

// buildAggregate compiles an aggregate node's expressions over its
// input's rows and resolves each aggregate function once. The
// accumulator constructors carve from chunks of their own, so unlike
// the expressions they are the operator's alone. borrow says whether the
// consumer lends the operator's rows (rows.go).
func buildAggregate(t *plan.Aggregate, rt Runtime, stats *Stats, cc *CancelChecker, borrow bool, frag *fragPart) (Operator, error) {
	input, err := buildWith(t.Input, rt, stats, cc, true, frag)
	if err != nil {
		return nil, err
	}
	ex, err := aggExprsOf(rt.Memo(), t)
	if err != nil {
		return nil, err
	}
	op := &aggOp{node: t, stats: stats, input: input, aggExprs: ex, newAgg: make([]func() expr.Aggregator, len(t.Aggs)), lend: borrow}
	for i, a := range t.Aggs {
		if op.newAgg[i], err = expr.NewAggregators(a.Name, a.Star, a.Distinct); err != nil {
			return nil, err
		}
	}
	return op, nil
}

func (a *aggOp) Open() error {
	if err := a.input.Open(); err != nil {
		return err
	}
	defer a.input.Close()

	// Group ids are dense and in first-encounter order, so the
	// accumulators of group id sit at aggs[id*nAggs:], and its output
	// row is the table's row id: the key, then a payload cell per
	// aggregate that the pass below fills with the result. Both come
	// from a closed run of the node if one left them, emptied.
	nAggs := len(a.node.Aggs)
	hint := int(a.run.lastGroups.Load())
	s := a.run.spare.Take()
	a.groups, a.aggs = s.groups, s.aggs
	if a.groups == nil {
		a.groups = new(sqltypes.KeyTable)
	}
	a.groups.Reset(len(a.groupEx), nAggs, hint)
	if cap(a.aggs) < hint*nAggs {
		a.aggs = make([]expr.Aggregator, 0, hint*nAggs)
	}
	a.aggs = a.aggs[:0]

	var err error
	if c, ok := a.joinChain(); ok {
		err = c.feed(a)
	} else {
		err = a.feed()
	}
	if err != nil {
		a.groups, a.aggs = nil, nil
		return err
	}

	// Scalar aggregate over an empty input still yields one row.
	groups := a.groups
	if len(a.groupEx) == 0 && groups.Len() == 0 {
		groups.Insert(nil)
		a.newGroup()
	}
	for id := range groups.Len() {
		row := groups.Row(id)
		for i, ag := range a.aggs[id*nAggs : (id+1)*nAggs] {
			row[len(a.groupEx)+i] = ag.Result()
		}
	}
	a.run.lastGroups.Store(int64(groups.Len()))
	a.stats.RowsGrouped += int64(groups.Len())
	a.pos = 0
	return nil
}

// newGroup appends the accumulators of a group the table just added.
// Past len, aggs still holds the accumulators of the run that left it,
// a group's worth at a time: it resets them, or carves new ones where
// there are none.
func (a *aggOp) newGroup() {
	nAggs, n := len(a.newAgg), len(a.aggs)
	if nAggs > 0 && n+nAggs <= cap(a.aggs) && a.aggs[:n+1][n] != nil {
		a.aggs = a.aggs[:n+nAggs]
		for _, ag := range a.aggs[n:] {
			ag.Reset()
		}
		return
	}
	for _, mk := range a.newAgg {
		a.aggs = append(a.aggs, mk())
	}
}

// feed groups and accumulates the input's rows a row at a time.
func (a *aggOp) feed() error {
	nAggs := len(a.node.Aggs)
	groupVals := make([]sqltypes.Value, len(a.groupEx))
	for {
		r, err := a.input.Next()
		if err != nil || r == nil {
			return err
		}
		a.stats.RowsAggInput++
		if err := evalInto(a.groupEx, r, groupVals); err != nil {
			return err
		}
		id, added := a.groups.Insert(groupVals)
		if added {
			a.newGroup()
		}
		for i, spec := range a.node.Aggs {
			var v sqltypes.Value
			switch arg := a.argEx[i]; {
			case spec.Star:
				v = sqltypes.NewBool(true) // any non-null marker
			case arg.Col >= 0 && arg.Col < len(r):
				v = r[arg.Col] // a bare column, read in place
			default:
				if v, err = arg.Eval(r); err != nil {
					return err
				}
			}
			if err := a.aggs[id*nAggs+i].Add(v); err != nil {
				return err
			}
		}
	}
}

func (a *aggOp) Next() (sqltypes.Row, error) {
	if a.groups == nil || a.pos >= a.groups.Len() {
		return nil, nil
	}
	r := a.groups.Row(a.pos)
	a.pos++
	return r, nil
}

// Close lets the rows go. A lending operator's consumer is done with
// them, so the table and the accumulators go back to the node's run
// state; a keeping one's rows are its consumer's from now on.
func (a *aggOp) Close() error {
	if (a.lend || test.keepingGivesBack) && a.groups != nil {
		a.run.spare.Give(aggSpare{a.groups, a.aggs})
	}
	a.groups, a.aggs = nil, nil
	return nil
}

// aggExprsOf compiles an aggregate node's expressions, once per m.
func aggExprsOf(m *Memo, t *plan.Aggregate) (aggExprs, error) {
	return shared(m, t, func() (ex aggExprs, err error) {
		ex.run = runOf(m, t, func() *aggRun { return new(aggRun) })
		if ex.groupEx, err = groupKeyExprs(t, m.Params()); err != nil {
			return ex, err
		}
		e := planEnv(t.Input, m.Params())
		ex.argEx = make([]*expr.Compiled, len(t.Aggs))
		for i, a := range t.Aggs {
			if a.Star {
				continue
			}
			if ex.argEx[i], err = expr.Compile(a.Arg, e); err != nil {
				return ex, err
			}
		}
		return ex, nil
	})
}

// groupKeyExprs compiles the group-by expressions of an aggregate node
// over its input's rows: what the operator groups by, and what the MPP
// machine routes the input by.
func groupKeyExprs(node *plan.Aggregate, params []sqltypes.Value) ([]*expr.Compiled, error) {
	e := planEnv(node.Input, params)
	out := make([]*expr.Compiled, len(node.GroupBy))
	for i, g := range node.GroupBy {
		c, err := expr.Compile(g, e)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}
