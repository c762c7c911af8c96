package exec

import (
	"slices"
	"sync/atomic"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// The batch form. Under MaterializeContext, a tree that is a chain of
// filters over one project over filters over a source whose rows stay
// valid until it closes — a stored result's scan, or an aggregate's
// output rows — runs up to expr.BatchRows source rows at a time when the
// project has a typed item (expr.Compiled.Typed): each filter keeps the
// rows its condition holds for (expr.Compiled.SelectBatch), and the
// project carves its output rows as the row path does, one per row the
// filters under it kept, and fills them an item at a time
// (expr.Compiled.EvalBatch), a typed item's program running once over
// the batch. An aggregate over a chain of hash joins takes its input a
// batch at a time too (the join → aggregate form, below). The shape of
// the plan chooses both, and nothing else: every other tree, and every
// tree the MPP machine, RunContext, DrainInto or a DML statement runs,
// runs a row at a time.
//
// A batch evaluates the same expressions over the same rows as the row
// path, in another order: an item over every row before the next item,
// not a row through every operator before the next row. So where any
// evaluation fails, the batch is replayed a row at a time through the
// row path's closures, which raises the row path's error at the row path's
// row, with the row path's counters; a batch in which nothing fails
// inserts the rows the row path inserts, in the row path's order.

// rowAtATime turns both batch forms off (RowAtATime).
var rowAtATime atomic.Bool

// RowAtATime makes MaterializeContext run every tree a row at a time, in
// neither batch form, until restore is called: the switch the
// differential tests compare the batch forms with the row path by.
// Nothing else calls it.
func RowAtATime() (restore func()) {
	rowAtATime.Store(true)
	return func() { rowAtATime.Store(false) }
}

// batchRun is what a project node with a typed item carries from one of
// its runs to the next (nodeRun): the vectors and row slices of its
// batches, so that a warm run allocates none.
type batchRun struct {
	spare sqltypes.Spares[*batchScratch]
}

func (r *batchRun) sweep()    { r.spare.Sweep() }
func (r *batchRun) handBack() { r.spare.HandBack() }

// batchScratch is one batch's storage: the chain's conditions, the
// source's rows, the rows the filters under the project kept, the
// project's output rows, and the typed programs' vectors.
type batchScratch struct {
	above, below   []*expr.Compiled // innermost first
	in, live, outs []sqltypes.Row
	b              expr.Batch
}

// batchSource is an operator whose rows stay valid until it closes, so
// that a batch may hold many of them at once.
type batchSource interface {
	Operator
	// fill appends up to n rows to dst, counting nothing.
	fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error)
	// counted counts rows as read, as Next counts each row it returns.
	counted(rows []sqltypes.Row)
}

// batchChain is a tree the batch form runs: filters over project over
// filters over src.
type batchChain struct {
	root    Operator
	project *projectOp
	src     batchSource
}

// batchChainOf returns op's tree as a batchChain where the batch form
// runs it, and ok false where the row path does.
func batchChainOf(op Operator) (c batchChain, ok bool) {
	if rowAtATime.Load() {
		return c, false
	}
	c.root = op
	for {
		switch o := op.(type) {
		case *filterOp:
			op = o.input
		case *projectOp:
			if c.project != nil || o.run == nil {
				return c, false
			}
			c.project, op = o, o.input
		case *scanOp:
			c.src = o
			return c, !o.base && c.project != nil
		case *aggOp:
			c.src = o
			return c, c.project != nil
		default:
			return c, false
		}
	}
}

// conds collects the chain's conditions into s, innermost first.
func (c *batchChain) conds(s *batchScratch) {
	s.above, s.below = s.above[:0], s.below[:0]
	conds := &s.above
	for op := c.root; op != c.src; {
		switch o := op.(type) {
		case *filterOp:
			*conds = append(*conds, o.cond)
			op = o.input
		case *projectOp:
			conds = &s.below
			op = o.input
		}
	}
	slices.Reverse(s.above)
	slices.Reverse(s.below)
}

// materialize runs the chain's tree into t, which its project's rows are
// carved for.
func (c *batchChain) materialize(t *storage.Table) error {
	if err := c.root.Open(); err != nil {
		return err
	}
	defer c.root.Close()
	run := c.project.run
	s := run.spare.Take()
	if s == nil {
		s = new(batchScratch)
	}
	defer func() {
		clear(s.in[:cap(s.in)])
		clear(s.live[:cap(s.live)])
		clear(s.outs[:cap(s.outs)])
		run.spare.Give(s)
	}()
	c.conds(s)
	for {
		in, err := c.src.fill(s.in[:0], expr.BatchRows)
		if s.in = in; err != nil {
			return err
		}
		if len(in) == 0 {
			return nil
		}
		outs, err := c.batch(s, in)
		if err != nil {
			if test.noReplay {
				return err
			}
			if err := c.replay(s, in, t); err != nil {
				return err
			}
			continue
		}
		c.src.counted(in)
		for _, r := range outs {
			t.Insert(r)
		}
	}
}

// batch runs the chain over in: the rows to insert, or the first error it
// meets.
func (c *batchChain) batch(s *batchScratch, in []sqltypes.Row) ([]sqltypes.Row, error) {
	live := append(s.live[:0], in...)
	s.live = live
	var err error
	for _, cond := range s.below {
		if live, err = cond.SelectBatch(&s.b, live); err != nil {
			return nil, err
		}
	}
	// The bare columns are copied a row at a time, as each output row is
	// carved, while the row is at hand; the other items fill a column at
	// a time.
	items := c.project.items
	outs := s.outs[:0]
	for _, r := range live {
		out := c.project.out.next(len(items))
		for i, item := range items {
			if item.Col < 0 {
				continue
			}
			if item.Col >= len(r) {
				_, err := item.Eval(r) // fails, as the row is too short
				return nil, err
			}
			out[i] = r[item.Col]
		}
		outs = append(outs, out)
	}
	s.outs = outs
	for i, item := range items {
		if item.Col >= 0 {
			continue
		}
		if err := item.EvalBatch(&s.b, live, outs, i); err != nil {
			return nil, err
		}
	}
	for _, cond := range s.above {
		if outs, err = cond.SelectBatch(&s.b, outs); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// replay runs in through the row path's closures a row at a time,
// counting each row as it reads it and inserting each row it builds: the
// row path's error, at the row path's row, or nil where no row fails.
func (c *batchChain) replay(s *batchScratch, in []sqltypes.Row, t *storage.Table) error {
	for i, r := range in {
		c.src.counted(in[i : i+1])
		keep, err := holdsAll(s.below, r)
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		out := c.project.out.next(len(c.project.items))
		if err := evalInto(c.project.items, r, out); err != nil {
			return err
		}
		if keep, err = holdsAll(s.above, out); err != nil {
			return err
		}
		if keep {
			t.Insert(out)
		}
	}
	return nil
}

// holdsAll reports whether every condition holds for r, evaluating them
// in order up to the first that does not.
func holdsAll(conds []*expr.Compiled, r sqltypes.Row) (bool, error) {
	for _, cond := range conds {
		if ok, err := cond.Holds(r); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func (s *scanOp) fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error) {
	if err := s.cancel.Check(); err != nil {
		return dst, err
	}
	return s.take(dst, n), nil
}

// take is fill with no poll: a caller that polls as the row path does
// (CancelChecker.TickN) counts the rows itself.
func (s *scanOp) take(dst []sqltypes.Row, n int) []sqltypes.Row {
	for len(dst) < n && s.pi < len(s.parts) {
		part := s.parts[s.pi]
		if s.pos >= len(part) {
			s.pi, s.pos = s.pi+1, 0
			continue
		}
		take := min(n-len(dst), len(part)-s.pos)
		dst = append(dst, part[s.pos:s.pos+take]...)
		s.pos += take
	}
	return dst
}

func (s *scanOp) counted(rows []sqltypes.Row) {
	s.stats.RowsScanned += int64(len(rows))
	if !s.base {
		for _, r := range rows {
			s.stats.ResultCellsRead += int64(len(r))
		}
	}
}

func (a *aggOp) fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error) {
	for len(dst) < n && a.groups != nil && a.pos < a.groups.Len() {
		dst = append(dst, a.groups.Row(a.pos))
		a.pos++
	}
	return dst, nil
}

func (a *aggOp) counted([]sqltypes.Row) {}

// The join → aggregate form. Under MaterializeContext, an aggregate whose
// input is a left-deep chain of inner or left-outer hash joins with no
// residual, over a stored result's scan, takes that scan's rows
// expr.BatchRows at a time. Each join, bottom first, turns the batch's
// tuples into index vectors (joinLevel): which tuple of the level under
// it, or which probe row, each of its tuples extends, and with which
// build row, -1 where the tuple is NULL-extended; no joined row is ever
// carved. The aggregate then walks the top join's tuples in the row
// path's order and reads each cell its expressions need from the probe or
// build row it lies in. Where every group key reads only the probe row's
// columns, as in each of the paper's loop bodies, a probe row's tuples
// all fall in one group: the aggregate evaluates the keys and looks the
// group up once per probe row, at its first tuple, not once per tuple.
// Any other aggregate, and any other input, runs a row at a time.
//
// Nothing here changes what the row path computes, or where it fails:
//   - the tuples, and so the groups, their order and each group's order
//     of accumulation, are the row path's;
//   - the joins above the bottom one read bare columns as their probe
//     keys, which cannot fail; the bottom one's probe keys are the row
//     path's (HashIndex.First), and where they fail on a probe row, the
//     batch stops there: the aggregate takes the tuples before it, then
//     the batch fails with its error;
//   - the aggregate evaluates in the row path's tuple order, and where it
//     fails, the counters are the ones the row path had reached at that
//     tuple (joinAggScratch.count);
//   - the polls are the row path's in number, one per probe row, per
//     matched tuple and at the scan's end, made a batch at a time
//     (CancelChecker.TickN).

// aggUnder returns the aggregate op's rows come from, under filters,
// projects, trims and limits, or nil.
func aggUnder(op Operator) *aggOp {
	for {
		switch o := op.(type) {
		case *filterOp:
			op = o.input
		case *projectOp:
			op = o.input
		case *trimOp:
			op = o.input
		case *limitOp:
			op = o.input
		case *aggOp:
			return o
		default:
			return nil
		}
	}
}

// joinChainUnder reports whether op is a chain the join → aggregate
// form runs: inner or left-outer hash joins with no residual, each
// probing with the one above it, over a stored result's scan.
func joinChainUnder(op Operator) bool {
	for joins := 0; ; joins++ {
		switch o := op.(type) {
		case *hashJoinOp:
			if o.residual != nil || o.typ != ast.InnerJoin && o.typ != ast.LeftJoin {
				return false
			}
			op = o.left
		case *scanOp:
			return joins > 0 && !o.base
		default:
			return false
		}
	}
}

// joinAggScratch is one join → aggregate run's storage: the chain, the
// batch's probe rows, each join's tuples, and the row of the joined width
// the aggregate's expressions read. It is the aggregate node's run state
// (aggRun.batch), so a warm run allocates none of it.
type joinAggScratch struct {
	// What the node's expressions read, worked out at its first run:
	// fits is false where a group key reads a column off the probe row or
	// a join above the bottom one probes with other than bare columns.
	laid, fits bool
	keyReads   [][]cellRead // per join above the bottom one: its probe keys
	groupReads []cellRead   // every column the group keys read
	argReads   [][]cellRead // per aggregate: the columns its argument reads

	src       *scanOp
	joins     []*hashJoinOp // bottom first
	rows      []sqltypes.Row
	levels    []joinLevel // per join, bottom first
	path      []int32     // one tuple's probe row, then its build rows
	row       sqltypes.Row
	groupVals []sqltypes.Value
}

// joinLevel is the tuples one join emits for a batch, in the row path's
// order: tuple t extends tuple par[t] of the join under it (of the bottom
// join: probe row par[t]) with build row bld[t], -1 where it is
// NULL-extended.
type joinLevel struct{ par, bld []int32 }

// cellRead is column col of the joined row: cell off of the probe row
// (seg 0) or of the build row of join seg-1.
type cellRead struct{ col, seg, off int32 }

// joinChain returns the scratch of a's run in the join → aggregate form,
// holding the chain under it, and ok false where the row path runs a.
func (a *aggOp) joinChain() (s *joinAggScratch, ok bool) {
	if !a.batch || !joinChainUnder(a.input) {
		return nil, false
	}
	if s = a.run.batch.Take(); s == nil {
		s = new(joinAggScratch)
	}
	s.joins = s.joins[:0]
	for op := a.input; ; {
		if h, ok := op.(*hashJoinOp); ok {
			s.joins = append(s.joins, h)
			op = h.left
			continue
		}
		s.src = op.(*scanOp)
		break
	}
	slices.Reverse(s.joins)
	if !s.laid {
		s.fits, s.laid = s.layout(a), true
	}
	if !s.fits {
		s.release(a.run)
		return nil, false
	}
	return s, true
}

// layout works out which cells the chain's probe keys and a's
// expressions read, and reports whether the form runs a: every join above
// the bottom one probes with bare columns, and every group key reads only
// the probe row's columns.
func (s *joinAggScratch) layout(a *aggOp) bool {
	read := func(col int) cellRead {
		c := cellRead{col: int32(col), off: int32(col)}
		for k, h := range s.joins {
			if col >= h.leftWidth {
				c.seg, c.off = int32(k+1), int32(col-h.leftWidth)
			}
		}
		return c
	}
	for _, h := range s.joins[1:] {
		keys := make([]cellRead, len(h.leftKeys))
		for j, k := range h.leftKeys {
			if k.Col < 0 {
				return false
			}
			keys[j] = read(k.Col)
		}
		s.keyReads = append(s.keyReads, keys)
	}
	env := planEnv(a.node.Input, nil)
	reads := func(e ast.Expr) (out []cellRead, ok bool) {
		for _, ref := range ast.ColumnRefs(e) {
			b, err := env.Resolve(ref.Table, ref.Name)
			if err != nil {
				return nil, false
			}
			out = append(out, read(b.Index))
		}
		return out, true
	}
	for _, g := range a.node.GroupBy {
		cols, ok := reads(g)
		if !ok {
			return false
		}
		for _, c := range cols {
			if c.seg != 0 {
				return false
			}
		}
		s.groupReads = append(s.groupReads, cols...)
	}
	s.argReads = make([][]cellRead, len(a.node.Aggs))
	for i, spec := range a.node.Aggs {
		switch arg := a.argEx[i]; {
		case spec.Star:
		case arg.Col >= 0:
			s.argReads[i] = []cellRead{read(arg.Col)}
		default:
			var ok bool
			if s.argReads[i], ok = reads(spec.Arg); !ok {
				return false
			}
		}
	}
	return true
}

// release lets go of the run's rows and operators and gives s back to
// the node's run state.
func (s *joinAggScratch) release(run *aggRun) {
	clear(s.joins[:cap(s.joins)])
	clear(s.rows[:cap(s.rows)])
	clear(s.row)
	s.src, s.joins, s.rows = nil, s.joins[:0], s.rows[:0]
	run.batch.Give(s)
}

// feed groups and accumulates the chain's tuples into a, a batch of
// probe rows at a time.
func (s *joinAggScratch) feed(a *aggOp) error {
	defer s.release(a.run)
	top := s.joins[len(s.joins)-1]
	for len(s.levels) < len(s.joins) {
		s.levels = append(s.levels, joinLevel{})
	}
	s.path = resize(s.path, len(s.joins)+1)
	s.row = resize(s.row, top.leftWidth+top.rightWidth)
	s.groupVals = resize(s.groupVals, len(a.groupEx))
	for {
		if s.rows = s.src.take(s.rows[:0], expr.BatchRows); len(s.rows) == 0 {
			return s.src.cancel.Tick() // the row path's last Next
		}
		scanned, polls, joinErr := s.expand(a)
		if err := s.src.cancel.TickN(polls); err != nil {
			return err
		}
		n, err := s.walk(a)
		s.count(a, scanned, n)
		if err != nil {
			return err
		}
		if joinErr != nil {
			return joinErr
		}
	}
}

// resize returns s at length n, grown if it must be.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// expand runs the batch's probe rows through the joins into s.levels. It
// returns how many probe rows the row path reads, how many times it
// polls, and the error the bottom join's probe keys fail with, if any:
// the levels then hold the tuples the row path emits before it.
func (s *joinAggScratch) expand(a *aggOp) (scanned, polls int, err error) {
	scanned = len(s.rows)
	h, lv := s.joins[0], &s.levels[0]
	lv.par, lv.bld = lv.par[:0], lv.bld[:0]
	for p, r := range s.rows {
		m, ferr := int32(-1), error(nil)
		if test.groupEveryProbe {
			s.path[0] = int32(p)
			ferr = s.groupKey(a, s.path[:1])
		}
		if ferr == nil {
			m, ferr = h.build.First(r, h.probeKeys, h.probeBuf)
		}
		if ferr != nil {
			if test.eagerJoins {
				err = ferr
				continue
			}
			scanned, err = p+1, ferr
			break
		}
		polls += lv.extend(int32(p), m, h)
	}
	polls += scanned
	for k, h := range s.joins[1:] {
		in, lv, keys := &s.levels[k], &s.levels[k+1], s.keyReads[k]
		lv.par, lv.bld = lv.par[:0], lv.bld[:0]
		for u := range in.par {
			m := int32(-1)
			if s.probeKey(s.pathOf(k, int32(u)), keys, h.probeBuf) {
				m = h.build.find(h.probeBuf)
			}
			polls += lv.extend(int32(u), m, h)
		}
	}
	return scanned, polls, err
}

// extend appends the tuples h emits for tuple u of the level under it,
// whose first match is build row m (-1: none), and returns how many
// matched: the row path polls once per match.
func (lv *joinLevel) extend(u, m int32, h *hashJoinOp) (matched int) {
	if m < 0 {
		if h.typ == ast.LeftJoin {
			lv.par, lv.bld = append(lv.par, u), append(lv.bld, -1)
		}
		return 0
	}
	for ; m >= 0; m = h.build.Next(m) {
		lv.par, lv.bld = append(lv.par, u), append(lv.bld, m)
		matched++
	}
	return matched
}

// pathOf returns tuple t of join k's level as its probe row, then its
// build row at each join up to k.
func (s *joinAggScratch) pathOf(k int, t int32) []int32 {
	path := s.path[:k+2]
	for ; k >= 0; k-- {
		lv := &s.levels[k]
		path[k+1] = lv.bld[t]
		t = lv.par[t]
	}
	path[0] = t
	return path
}

// cell returns column c of the joined row of the tuple path leads to: a
// NULL-extended side's cells are NULL, and so is a cell past a shorter
// row's end, as fillSide writes them.
func (s *joinAggScratch) cell(path []int32, c cellRead) sqltypes.Value {
	var row sqltypes.Row
	if c.seg == 0 {
		row = s.rows[path[0]]
	} else if b := path[c.seg]; b >= 0 {
		row = s.joins[c.seg-1].build.Rows[b]
	}
	if int(c.off) < len(row) {
		return row[c.off]
	}
	return sqltypes.NullValue
}

// gather copies the cells reads names into s.row.
func (s *joinAggScratch) gather(path []int32, reads []cellRead) {
	for _, c := range reads {
		s.row[c.col] = s.cell(path, c)
	}
}

// probeKey reads a join's bare-column probe keys into buf, as EvalKey
// does: false at the first NULL, which matches nothing.
func (s *joinAggScratch) probeKey(path []int32, keys []cellRead, buf []sqltypes.Value) bool {
	for j, c := range keys {
		v := s.cell(path, c)
		if v.IsNull() {
			return false
		}
		buf[j] = v
	}
	return true
}

// groupKey evaluates a's group keys for the probe row path starts at
// into s.groupVals.
func (s *joinAggScratch) groupKey(a *aggOp, path []int32) error {
	s.gather(path, s.groupReads)
	return evalInto(a.groupEx, s.row, s.groupVals)
}

// walk groups and accumulates the top join's tuples in order, looking the
// group up at each probe row's first tuple. It returns how many tuples
// the aggregate took, the one an error stopped it at included, and the
// error.
func (s *joinAggScratch) walk(a *aggOp) (int, error) {
	top := len(s.joins) - 1
	tuples := &s.levels[top]
	nAggs := len(a.node.Aggs)
	probe, id := int32(-1), 0
	for t := range tuples.par {
		path := s.pathOf(top, int32(t))
		if path[0] != probe && !(test.carryGroupID && tuples.bld[t] < 0) {
			probe = path[0]
			if err := s.groupKey(a, path); err != nil {
				return t + 1, err
			}
			var added bool
			if id, added = a.groups.Insert(s.groupVals); added {
				a.newGroup()
			}
		}
		for i, spec := range a.node.Aggs {
			var v sqltypes.Value
			switch arg := a.argEx[i]; {
			case spec.Star:
				v = sqltypes.NewBool(true) // any non-null marker
			case arg.Col >= 0:
				v = s.cell(path, s.argReads[i][0])
			default:
				s.gather(path, s.argReads[i])
				var err error
				if v, err = arg.Eval(s.row); err != nil {
					return t + 1, err
				}
			}
			if err := a.aggs[id*nAggs+i].Add(v); err != nil {
				return t + 1, err
			}
		}
	}
	return len(tuples.par), nil
}

// count adds what the row path counts for the batch up to the aggregate's
// n-th tuple: every tuple of the levels, and the first scanned probe
// rows, where the aggregate took them all; where it stopped short, the
// tuples and probe rows up to that tuple's.
func (s *joinAggScratch) count(a *aggOp, scanned, n int) {
	a.stats.RowsAggInput += int64(n)
	top := len(s.joins) - 1
	if n == len(s.levels[top].par) {
		for k, h := range s.joins {
			h.stats.RowsJoined += int64(len(s.levels[k].par))
		}
		s.src.counted(s.rows[:scanned])
		return
	}
	t := int32(n - 1)
	for k := top; k >= 0; k-- {
		s.joins[k].stats.RowsJoined += int64(t + 1)
		t = s.levels[k].par[t]
	}
	s.src.counted(s.rows[:t+1])
}
