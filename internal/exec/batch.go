package exec

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/sqltypes"
)

// The batch forms. The shape of a tree chooses how it runs, and nothing
// else: every drain (drain.go) — MaterializeContext, DrainInto, and so
// RunContext, a join's build side and the MPP machine's root fragments,
// and an MPP exchange's routing loop — runs the tree it drains in the form
// its shape takes, and an aggregate feeds itself in the form its input's
// takes. A batch source is an operator whose rows stay valid until it
// closes (batchSource): a stored result's scan, the rows an exchange
// delivered to a fragment, an aggregate's output rows, and a tap over one
// of them, which shows each row to its tap as it reads it.
//
//   - A chain of filters over one project over filters over a batch
//     source, where the project has a typed item (expr.Compiled.Typed),
//     runs up to expr.BatchRows source rows at a time (batchChain): each
//     filter keeps the rows its condition holds for
//     (expr.Compiled.SelectBatch), and the project fills its output rows
//     an item at a time (expr.Compiled.EvalBatch), a typed item's program
//     running once over the batch.
//   - An aggregate whose input is a chain of inner or left hash joins
//     over a batch source takes the joins' tuples a batch of probe rows at
//     a time, as index vectors, and no joined row is carved (the join →
//     aggregate form, below).
//   - An aggregate over a batch source takes its rows a batch at a time,
//     evaluating its group keys and arguments with EvalBatch.
//   - A chain of hash joins at the root of a tree an MPP exchange drains
//     hands the exchange its tuples as the same index vectors (the join →
//     exchange form, JoinTuples): the exchange routes each tuple by its key
//     cells where they lie and copies its cells once, into its buffers.
//   - A batch source at a drain's root hands over its rows a batch at a
//     time.
//
// Every other tree, and every tree while RowAtATime is on, runs a row at
// a time.
//
// A batch evaluates the same expressions over the same rows as the row
// path, in another order: an item over every row before the next item,
// not a row through every operator before the next row. So where any
// evaluation fails, the batch is replayed a row at a time through the
// row path's closures, which raises the row path's error at the row path's
// row, with the row path's counters; a batch in which nothing fails hands
// on the rows the row path hands on, in the row path's order. A source
// counts the rows of a batch once its consumer has taken them all, or up
// to the one it failed on (Drainer.Stop), and polls as often as the row
// path's Next does, a batch at a time (CancelChecker.TickN).

// rowAtATime turns the batch forms off (RowAtATime).
var rowAtATime atomic.Bool

// RowAtATime makes every drain and every aggregate run a row at a time,
// in no batch form, until restore is called: the switch the differential
// tests compare the batch forms with the row path by. Nothing else calls
// it.
func RowAtATime() (restore func()) {
	rowAtATime.Store(true)
	return func() { rowAtATime.Store(false) }
}

// batchSource is an operator whose rows stay valid until it closes, so
// that a batch may hold many of them at once.
type batchSource interface {
	Operator
	// fill appends up to n rows to dst, counting nothing, and polls as
	// often as Next polls to return them, once more where it appends none
	// (the row path's last Next). Where it fails, dst holds the rows read
	// before the failure, which the caller takes before the error.
	fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error)
	// counted counts rows as read, as Next counts each row it returns.
	counted(rows []sqltypes.Row)
}

// sourceOf returns op as a batch source, and ok false where it is none: a
// base table's scan, or a tap over an operator that is none.
func sourceOf(op Operator) (batchSource, bool) {
	switch o := op.(type) {
	case *scanOp:
		return o, !o.base
	case *rowsOp:
		return o, true
	case *aggOp:
		return o, true
	case *tapOp:
		_, ok := sourceOf(o.input)
		return o, ok
	}
	return nil, false
}

func (s *scanOp) fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error) {
	start := len(dst)
	for len(dst) < start+n && s.pi < len(s.parts) {
		part := s.parts[s.pi]
		if s.pos >= len(part) {
			s.pi, s.pos = s.pi+1, 0
			continue
		}
		take := min(start+n-len(dst), len(part)-s.pos)
		dst = append(dst, part[s.pos:s.pos+take]...)
		s.pos += take
	}
	if err := s.cancel.TickN(max(len(dst)-start, 1)); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

func (s *scanOp) counted(rows []sqltypes.Row) {
	s.stats.RowsScanned += int64(len(rows))
	if !s.base {
		for _, r := range rows {
			s.stats.ResultCellsRead += int64(len(r))
		}
	}
}

func (r *rowsOp) fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error) {
	take := min(n, len(r.rows)-r.pos)
	if err := r.cancel.TickN(max(take, 1)); err != nil {
		return dst, err
	}
	dst = append(dst, r.rows[r.pos:r.pos+take]...)
	r.pos += take
	return dst, nil
}

func (r *rowsOp) counted([]sqltypes.Row) {}

func (a *aggOp) fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error) {
	for end := len(dst) + n; len(dst) < end && a.groups != nil && a.pos < a.groups.Len(); a.pos++ {
		dst = append(dst, a.groups.Row(a.pos))
	}
	return dst, nil
}

func (a *aggOp) counted([]sqltypes.Row) {}

// fill shows each row its input fills to the tap's Check, in order. Where
// it fails on a row, the rows before it are the batch, and the row itself
// is counted as read, as the row path's input and tap counted it before
// the check. The rows of a batch are counted once the consumer took them
// (counted).
func (t *tapOp) fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error) {
	src := t.input.(batchSource)
	start := len(dst)
	dst, err := src.fill(dst, n)
	if test.skipTap || t.tap.Check == nil {
		return dst, err
	}
	for i := start; i < len(dst); i++ {
		if terr := t.check(dst[i]); terr != nil {
			src.counted(dst[i : i+1])
			t.count(1)
			return dst[:i], terr
		}
	}
	return dst, err
}

func (t *tapOp) counted(rows []sqltypes.Row) {
	t.input.(batchSource).counted(rows)
	t.count(len(rows))
}

// --- filters and a project over a batch source ---------------------------

// scratchSlots holds a node's batch scratch while no tree of the node runs
// in a batch form: one per partition — the tree of an MPP machine's
// partition p, or a volcano tree's, p = 0 — that ran the node. Unlike
// sqltypes.Spares, its sweeps and hand-backs drop nothing, and a slot is
// a partition's alone, so that how the partitions of a machine happened
// to overlap in one run does not decide what the next allocates; it lives
// as long as the statement's Leftovers, which drop it after a run that
// fails. The zero value is empty, and it is safe for concurrent use.
type scratchSlots[T any] struct {
	mu    sync.Mutex
	slots []T
}

// take returns partition part's scratch, or the zero T.
func (l *scratchSlots[T]) take(part int) (x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if part < len(l.slots) {
		var zero T
		x, l.slots[part] = l.slots[part], zero
	}
	return x
}

// give files x as partition part's scratch.
func (l *scratchSlots[T]) give(part int, x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.slots) <= part {
		var zero T
		l.slots = append(l.slots, zero)
	}
	l.slots[part] = x
}

// batchRun is what a project node with a typed item carries from one of
// its runs to the next (nodeRun): the vectors and row slices of its
// batches, so that a warm run allocates none.
type batchRun struct {
	spare scratchSlots[*batchScratch]
}

func (r *batchRun) sweep()    {}
func (r *batchRun) handBack() {}

// batchScratch is one batch's storage: the chain's conditions, the
// source's rows, the rows the filters under the project kept, the
// project's output rows — carved from cells where the project lends them —
// and the typed programs' vectors.
type batchScratch struct {
	above, below   []*expr.Compiled // innermost first
	in, live, outs []sqltypes.Row
	cells          []sqltypes.Value
	b              expr.Batch
}

// release lets go of the rows s holds and gives it back to run, as
// partition part's.
func (s *batchScratch) release(run *batchRun, part int) {
	clear(s.in[:cap(s.in)])
	clear(s.live[:cap(s.live)])
	clear(s.outs[:cap(s.outs)])
	clear(s.cells)
	run.spare.give(part, s)
}

// batchChain is a tree the batch form runs: filters over project over
// filters over src.
type batchChain struct {
	root    Operator
	project *projectOp
	src     batchSource
}

// batchChainOf returns op's tree as a batchChain where the batch form
// runs it, and ok false where it does not.
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
		default:
			c.src, ok = sourceOf(op)
			return c, ok && c.project != nil
		}
	}
}

// scratch takes a batch's storage from the project's run state, holding
// the chain's conditions.
func (c *batchChain) scratch() *batchScratch {
	s := c.project.run.spare.take(c.project.part)
	if s == nil {
		s = new(batchScratch)
	}
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
	return s
}

// batch runs the chain over in: the rows it emits, or the first error it
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
	// a time. A lending project's consumer is done with the batch's rows
	// before it asks for the next batch, so they are carved from scratch.
	items, w := c.project.items, len(c.project.items)
	lend := c.project.out.borrow
	if lend {
		s.cells = resize(s.cells, len(live)*w)
	}
	outs := s.outs[:0]
	for j, r := range live {
		var out sqltypes.Row
		if lend {
			out = s.cells[j*w : (j+1)*w : (j+1)*w]
		} else {
			out = c.project.out.next(w)
		}
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

// replayRow runs source rows in[*next:] through the row path's closures,
// counting each as it reads it, up to the next row the chain emits, which
// it returns (nil: none is left); the row path's error, at the row path's
// row, where one fails.
func (c *batchChain) replayRow(s *batchScratch, next *int) (sqltypes.Row, error) {
	for *next < len(s.in) {
		i := *next
		*next++
		r := s.in[i]
		c.src.counted(s.in[i : i+1])
		keep, err := holdsAll(s.below, r)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		out := c.project.out.next(len(c.project.items))
		if err := evalInto(c.project.items, r, out); err != nil {
			return nil, err
		}
		if keep, err = holdsAll(s.above, out); err != nil {
			return nil, err
		}
		if keep {
			return out, nil
		}
	}
	return nil, nil
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

// --- an aggregate over a batch source -------------------------------------

// aggBatchScratch is one batch's storage for an aggregate fed by a batch
// source: the source's rows, per row a scratch row for the values of its
// group keys then its arguments that are no bare column, and the group key
// buffer.
type aggBatchScratch struct {
	in, vals  []sqltypes.Row
	cells     []sqltypes.Value
	groupVals []sqltypes.Value
	b         expr.Batch
}

// feedSource groups and accumulates src's rows into a, a batch at a time:
// EvalBatch evaluates each computed group key and argument over the whole
// batch, then the rows are grouped and accumulated in order. A batch in
// which an evaluation fails is replayed a row at a time through the row
// path (feedRow).
func (a *aggOp) feedSource(src batchSource) error {
	s := a.run.feed.take(a.part)
	if s == nil {
		s = new(aggBatchScratch)
	}
	defer func() {
		clear(s.in[:cap(s.in)])
		clear(s.vals[:cap(s.vals)])
		clear(s.cells)
		a.run.feed.give(a.part, s)
	}()
	s.groupVals = resize(s.groupVals, len(a.groupEx))
	for {
		in, ferr := src.fill(s.in[:0], expr.BatchRows)
		if s.in = in; len(in) == 0 {
			return ferr
		}
		if !a.evalBatch(s, in) {
			for i, r := range in {
				src.counted(in[i : i+1])
				if err := a.feedRow(r, s.groupVals); err != nil {
					return err
				}
			}
		} else if n, err := a.groupBatch(in, s.vals, s.groupVals); err != nil {
			src.counted(in[:n])
			return err
		} else {
			src.counted(in)
		}
		if ferr != nil {
			return ferr
		}
	}
}

// evalBatch fills s.vals, per row of in, with the values of its group
// keys then its arguments that are no bare column — a bare column is read
// where it lies as the row is grouped — and reports whether every
// evaluation succeeded.
func (a *aggOp) evalBatch(s *aggBatchScratch, in []sqltypes.Row) bool {
	nKeys := len(a.groupEx)
	w := nKeys + len(a.node.Aggs)
	s.cells = resize(s.cells, len(in)*w)
	s.vals = resize(s.vals, len(in))
	for j := range in {
		s.vals[j] = s.cells[j*w : (j+1)*w : (j+1)*w]
	}
	for i, k := range a.groupEx {
		if k.Col < 0 && k.EvalBatch(&s.b, in, s.vals, i) != nil {
			return false
		}
	}
	for i, spec := range a.node.Aggs {
		if arg := a.argEx[i]; !spec.Star && arg.Col < 0 && arg.EvalBatch(&s.b, in, s.vals, nKeys+i) != nil {
			return false
		}
	}
	return true
}

// groupBatch groups and accumulates the rows of in, in order, their
// computed values in vals (evalBatch). It returns how many rows the
// aggregate took, the one an accumulator failed on included, and the
// error. A bare column a row is too short for fails as the row path's
// Eval fails on it.
func (a *aggOp) groupBatch(in, vals []sqltypes.Row, groupVals []sqltypes.Value) (int, error) {
	nKeys, nAggs := len(a.groupEx), len(a.node.Aggs)
	for j, r := range in {
		a.stats.RowsAggInput++
		v := vals[j]
		for i, k := range a.groupEx {
			switch {
			case k.Col < 0:
				groupVals[i] = v[i]
			case k.Col < len(r):
				groupVals[i] = r[k.Col]
			default:
				_, err := k.Eval(r)
				return j + 1, err
			}
		}
		id, added := a.groups.Insert(groupVals)
		if added {
			a.newGroup()
		}
		for i, spec := range a.node.Aggs {
			var x sqltypes.Value
			switch arg := a.argEx[i]; {
			case spec.Star:
				x = sqltypes.NewBool(true) // any non-null marker
			case arg.Col < 0:
				x = v[nKeys+i]
			case arg.Col < len(r):
				x = r[arg.Col]
			default:
				_, err := arg.Eval(r)
				return j + 1, err
			}
			if err := a.aggs[id*nAggs+i].Add(x); err != nil {
				return j + 1, err
			}
		}
	}
	return len(in), nil
}

// --- chains of hash joins ----------------------------------------------------

// The join → aggregate form. An aggregate whose input is a left-deep
// chain of inner or left-outer hash joins with no residual, over a batch
// source, takes that source's rows expr.BatchRows at a time. Each join,
// bottom first, turns the batch's tuples into index vectors (joinLevel):
// which tuple of the level under it, or which probe row, each of its
// tuples extends, and with which build row, -1 where the tuple is
// NULL-extended; no joined row is ever carved. The aggregate then walks
// the top join's tuples in the row path's order and reads each cell its
// expressions need from the probe or build row it lies in. Where every
// group key reads only the probe row's columns, as in each of the paper's
// loop bodies, a probe row's tuples all fall in one group: the aggregate
// evaluates the keys and looks the group up once per probe row, at its
// first tuple, not once per tuple. The join → exchange form (JoinTuples)
// expands its batches the same way.
//
// Nothing here changes what the row path computes, or where it fails:
//   - the tuples, and so the groups, their order and each group's order
//     of accumulation, are the row path's;
//   - the joins above the bottom one read bare columns as their probe
//     keys, which cannot fail; the bottom one's probe keys are the row
//     path's (HashIndex.First), and where they fail on a probe row, the
//     batch stops there: the consumer takes the tuples before it, then
//     the batch fails with its error;
//   - the consumer takes the tuples in the row path's order, and where it
//     fails, the counters are the ones the row path had reached at that
//     tuple (joinBatch.count);
//   - the polls are the row path's in number, one per probe row, per
//     matched tuple and at the source's end, made a batch at a time
//     (CancelChecker.TickN).

// joinBatch is a batch of probe rows run through a chain of joins: the
// chain, the rows, each join's tuples, and where the cells of the top
// join's rows lie.
type joinBatch struct {
	src    batchSource
	joins  []*hashJoinOp // bottom first
	rows   []sqltypes.Row
	levels []joinLevel // per join, bottom first
	path   []int32     // one tuple's probe row, then its build rows
	// keyReads are, per join above the bottom one, where its probe keys'
	// bare columns lie, worked out by layKeys.
	keyReads [][]cellRead
	// keys holds a key's values per probe row, in keyCells (probeKeys).
	keyCells []sqltypes.Value
	keys     []sqltypes.Row
	kb       expr.Batch
}

// joinLevel is the tuples one join emits for a batch, in the row path's
// order: tuple t extends tuple par[t] of the join under it (of the bottom
// join: probe row par[t]) with build row bld[t], -1 where it is
// NULL-extended.
type joinLevel struct{ par, bld []int32 }

// cellRead is column col of the joined row: cell off of the probe row
// (seg 0) or of the build row of join seg-1.
type cellRead struct{ col, seg, off int32 }

// joinChain reports whether op is a chain the batch forms run — inner or
// left-outer hash joins with no residual, each probing with the one above
// it, over a batch source — and returns its source; it appends the joins,
// top first, to *joins where joins is not nil.
func joinChain(op Operator, joins *[]*hashJoinOp) (batchSource, bool) {
	for n := 0; ; n++ {
		h, ok := op.(*hashJoinOp)
		if !ok {
			src, ok := sourceOf(op)
			return src, ok && n > 0
		}
		if h.residual != nil || h.typ != ast.InnerJoin && h.typ != ast.LeftJoin {
			return nil, false
		}
		if joins != nil {
			*joins = append(*joins, h)
		}
		op = h.left
	}
}

// isJoinChain reports whether op is a chain joinChain takes.
func isJoinChain(op Operator) bool {
	_, ok := joinChain(op, nil)
	return ok
}

// joinChainOf collects into b the chain op is, bottom first, which the
// caller made sure is one (isJoinChain).
func (b *joinBatch) joinChainOf(op Operator) {
	b.joins = b.joins[:0]
	b.src, _ = joinChain(op, &b.joins)
	slices.Reverse(b.joins)
}

// read is where column col of the top join's rows lies.
func (b *joinBatch) read(col int) cellRead {
	c := cellRead{col: int32(col), off: int32(col)}
	for k, h := range b.joins {
		if col >= h.leftWidth {
			c.seg, c.off = int32(k+1), int32(col-h.leftWidth)
		}
	}
	return c
}

// layKeys works out where the probe keys of the joins above the bottom
// one lie, and reports whether each is a bare column, as the form needs.
func (b *joinBatch) layKeys() bool {
	b.keyReads = b.keyReads[:0]
	for _, h := range b.joins[1:] {
		keys := make([]cellRead, len(h.leftKeys))
		for j, k := range h.leftKeys {
			if k.Col < 0 {
				return false
			}
			keys[j] = b.read(k.Col)
		}
		b.keyReads = append(b.keyReads, keys)
	}
	return true
}

// release lets go of the run's rows and operators.
func (b *joinBatch) release() {
	clear(b.joins[:cap(b.joins)])
	clear(b.rows[:cap(b.rows)])
	clear(b.keyCells)
	b.src, b.joins, b.rows = nil, b.joins[:0], b.rows[:0]
}

// begin sizes the batch's vectors for the chain.
func (b *joinBatch) begin() {
	for len(b.levels) < len(b.joins) {
		b.levels = append(b.levels, joinLevel{})
	}
	b.path = resize(b.path, len(b.joins)+1)
}

// resize returns s at length n, grown if it must be.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// expand runs the batch's probe rows through the joins into b.levels,
// calling pre, where it is not nil, on each probe row before its key. It
// returns how many probe rows the row path reads, how many times its joins
// poll, and the error the bottom join's probe keys fail with, if any: the
// levels then hold the tuples the row path emits before it.
func (b *joinBatch) expand(pre func(p int32) error) (scanned, polls int, err error) {
	scanned = len(b.rows)
	h, lv := b.joins[0], &b.levels[0]
	lv.par, lv.bld = lv.par[:0], lv.bld[:0]
	for p, r := range b.rows {
		m, ferr := int32(-1), error(nil)
		if pre != nil {
			ferr = pre(int32(p))
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
	for k, h := range b.joins[1:] {
		in, lv, keys := &b.levels[k], &b.levels[k+1], b.keyReads[k]
		lv.par, lv.bld = lv.par[:0], lv.bld[:0]
		for u := range in.par {
			m := int32(-1)
			if b.probeKey(b.pathOf(k, int32(u)), keys, h.probeBuf) {
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

// tuples is how many tuples the top join emits for the batch.
func (b *joinBatch) tuples() int { return len(b.levels[len(b.joins)-1].par) }

// pathOf returns tuple t of join k's level as its probe row, then its
// build row at each join up to k.
func (b *joinBatch) pathOf(k int, t int32) []int32 {
	path := b.path[:k+2]
	for ; k >= 0; k-- {
		lv := &b.levels[k]
		path[k+1] = lv.bld[t]
		t = lv.par[t]
	}
	path[0] = t
	return path
}

// cell returns column c of the joined row of the tuple path leads to: a
// NULL-extended side's cells are NULL, and so is a cell past a shorter
// row's end, as fillSide writes them.
func (b *joinBatch) cell(path []int32, c cellRead) sqltypes.Value {
	return cellOf(b.rowOf(c.seg, path[c.seg]), c.off)
}

// rowOf returns row r of segment seg of the joined rows: probe row r (seg
// 0) or build row r of join seg-1, nil where r is -1 (NULL-extended).
func (b *joinBatch) rowOf(seg, r int32) sqltypes.Row {
	switch {
	case seg == 0:
		return b.rows[r]
	case r >= 0:
		return b.joins[seg-1].build.Rows[r]
	}
	return nil
}

// cellOf returns cell off of row, and past its end the NULL fillSide
// writes there, the zero Value.
func cellOf(row sqltypes.Row, off int32) sqltypes.Value {
	if int(off) < len(row) {
		return row[off]
	}
	return sqltypes.Value{}
}

// probeKey reads a join's bare-column probe keys into buf, as EvalKey
// does: false at the first NULL, which matches nothing.
func (b *joinBatch) probeKey(path []int32, keys []cellRead, buf []sqltypes.Value) bool {
	for j, c := range keys {
		v := b.cell(path, c)
		if v.IsNull() {
			return false
		}
		buf[j] = v
	}
	return true
}

// count adds what the row path counts for the batch up to the consumer's
// n-th tuple: every tuple of the levels, and the first scanned probe rows,
// where the consumer took them all; where it stopped short, the tuples
// and probe rows up to that tuple's.
func (b *joinBatch) count(scanned, n int) {
	top := len(b.joins) - 1
	if n >= len(b.levels[top].par) {
		for k, h := range b.joins {
			h.stats.RowsJoined += int64(len(b.levels[k].par))
		}
		b.src.counted(b.rows[:scanned])
		return
	}
	t := int32(n - 1)
	for k := top; k >= 0; k-- {
		b.joins[k].stats.RowsJoined += int64(t + 1)
		t = b.levels[k].par[t]
	}
	b.src.counted(b.rows[:t+1])
}

// --- the join → aggregate form --------------------------------------------------

// joinAggScratch is one join → aggregate run's storage: the join batch,
// where each tuple's cells lie, and the vectors the aggregate's
// expressions are evaluated in. It is the aggregate node's run state
// (aggRun.batch), so a warm run allocates none of it.
type joinAggScratch struct {
	joinBatch
	// What the node's expressions read, worked out at its first run:
	// fits is false where a group key reads a column off the probe row or
	// a join above the bottom one probes with other than bare columns.
	laid, fits bool
	groupReads []cellRead   // every column the group keys read
	argReads   [][]cellRead // per aggregate: the columns its argument reads

	// at holds, per segment of the joined row, the row each tuple of the
	// top join reads it from: its probe row (at[0]), then its build row at
	// each join, -1 where the tuple is NULL-extended there.
	at [][]int32
	// Per aggregate: how the walk takes its argument (kinds), and, for a
	// typed one, the vectors its program runs in and its result.
	kinds []argKind
	args  []expr.Batch
	res   []expr.Floats

	// The replay's: a row of the joined width holding the cells an
	// expression reads, and a group key.
	row       sqltypes.Row
	groupVals []sqltypes.Value
}

// argKind is how the join → aggregate form takes an aggregate's argument.
type argKind uint8

const (
	argStar  argKind = iota // COUNT(*): any non-null marker
	argBare                 // a bare column, read where it lies
	argTyped                // a typed program, run over the batch's tuples
	argEval                 // anything else: its Eval, a tuple at a time
)

// joinChain returns the scratch of a's run in the join → aggregate form,
// holding the chain under it, and ok false where another form runs a.
func (a *aggOp) joinChain() (s *joinAggScratch, ok bool) {
	if rowAtATime.Load() || !isJoinChain(a.input) {
		return nil, false
	}
	if s = a.run.batch.take(a.part); s == nil {
		s = new(joinAggScratch)
	}
	s.joinChainOf(a.input)
	if !s.laid {
		s.fits, s.laid = s.layout(a), true
	}
	if !s.fits {
		s.release(a.run, a.part)
		return nil, false
	}
	return s, true
}

// layout works out which cells the chain's probe keys and a's
// expressions read, and reports whether the form runs a: every join above
// the bottom one probes with bare columns, and every group key reads only
// the probe row's columns.
func (s *joinAggScratch) layout(a *aggOp) bool {
	if !s.layKeys() {
		return false
	}
	env := planEnv(a.node.Input, nil)
	reads := func(e ast.Expr) (out []cellRead, ok bool) {
		for _, ref := range ast.ColumnRefs(e) {
			b, err := env.Resolve(ref.Table, ref.Name)
			if err != nil {
				return nil, false
			}
			out = append(out, s.read(b.Index))
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
			s.argReads[i] = []cellRead{s.read(arg.Col)}
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
// the node's run state, as partition part's.
func (s *joinAggScratch) release(run *aggRun, part int) {
	s.joinBatch.release()
	clear(s.row)
	run.batch.give(part, s)
}

// feed groups and accumulates the chain's tuples into a, a batch of
// probe rows at a time: it evaluates the group keys over the batch's
// probe rows and each typed argument over the tuples' cells (evaluate),
// then walks the tuples in order. A batch in which a group key fails is
// replayed: the walk evaluates every expression itself, per probe row or
// per tuple, in the row path's order.
func (s *joinAggScratch) feed(a *aggOp) error {
	defer s.release(a.run, a.part)
	top := s.joins[len(s.joins)-1]
	nAggs := len(a.node.Aggs)
	s.begin()
	s.row = resize(s.row, top.leftWidth+top.rightWidth)
	s.groupVals = resize(s.groupVals, len(a.groupEx))
	s.kinds, s.args, s.res = resize(s.kinds, nAggs), resize(s.args, nAggs), resize(s.res, nAggs)
	for i, arg := range a.argEx {
		switch {
		case a.node.Aggs[i].Star:
			s.kinds[i] = argStar
		case arg.Col >= 0:
			s.kinds[i] = argBare
		case arg.Typed():
			s.kinds[i] = argTyped
		default:
			s.kinds[i] = argEval
		}
	}
	var pre func(int32) error
	if test.groupEveryProbe {
		pre = func(p int32) error { return s.groupKey(a, p) }
	}
	for {
		rows, ferr := s.src.fill(s.rows[:0], expr.BatchRows)
		if s.rows = rows; len(rows) == 0 {
			return ferr
		}
		scanned, polls, joinErr := s.expand(pre)
		if err := s.joins[0].cancel.TickN(polls); err != nil {
			return err
		}
		s.lay()
		keyErr := s.evaluate(a)
		if keyErr != nil && test.noKeyReplay {
			return keyErr
		}
		n, err := s.walk(a, keyErr == nil)
		a.stats.RowsAggInput += int64(n)
		s.count(scanned, n)
		switch {
		case err != nil:
			return err
		case joinErr != nil:
			return joinErr
		case ferr != nil:
			return ferr
		}
	}
}

// lay fills s.at from the levels.
func (s *joinAggScratch) lay() {
	top := len(s.joins) - 1
	s.at = resize(s.at, top+2)
	cur := append(s.at[0][:0], s.levels[top].par...)
	s.at[top+1] = append(s.at[top+1][:0], s.levels[top].bld...)
	for k := top - 1; k >= 0; k-- {
		lv, bld := &s.levels[k], resize(s.at[k+1], len(cur))
		for t, u := range cur {
			bld[t], cur[t] = lv.bld[u], lv.par[u]
		}
		s.at[k+1] = bld
	}
	s.at[0] = cur
}

// evaluate evaluates a's group keys over the batch's probe rows into
// s.keys (probeKeys), and runs each typed argument over the tuples' cells
// (EvalColumns, fillLeaf). It returns the error a group key fails with on
// some probe row — one no tuple may come from, whose key the row path
// never evaluates — and runs no argument then.
func (s *joinAggScratch) evaluate(a *aggOp) error {
	if err := s.probeKeys(a.groupEx); err != nil {
		return err
	}
	n := s.tuples()
	for i, kind := range s.kinds {
		if kind == argTyped {
			s.res[i] = a.argEx[i].EvalColumns(&s.args[i], n, s.fillLeaf)
		}
	}
	return nil
}

// fillLeaf writes column col of the top join's tuples into c: NULL where
// the tuple is NULL-extended on the column's side, or its row is too short
// for it, as fillSide writes the joined row.
func (s *joinAggScratch) fillLeaf(col int, c *expr.Column) {
	at := s.read(col)
	rows := s.rows
	if at.seg > 0 {
		rows = s.joins[at.seg-1].build.Rows
	}
	for t, r := range s.at[at.seg] {
		if r < 0 && test.nullSideReadsRow && len(rows) > 0 {
			r = 0
		}
		if r >= 0 && int(at.off) < len(rows[r]) {
			c.Set(t, &rows[r][at.off])
		} else {
			c.SetNull(t)
		}
	}
}

// cellAt returns the cell c of tuple t of the top join.
func (s *joinAggScratch) cellAt(t int, c cellRead) sqltypes.Value {
	return cellOf(s.rowOf(c.seg, s.at[c.seg][t]), c.off)
}

// gather copies the cells reads names of tuple t into s.row.
func (s *joinAggScratch) gather(t int, reads []cellRead) {
	for _, c := range reads {
		s.row[c.col] = s.cellAt(t, c)
	}
}

// groupKey evaluates a's group keys for probe row p into s.groupVals, over
// s.row holding the cells they read.
func (s *joinAggScratch) groupKey(a *aggOp, p int32) error {
	for _, c := range s.groupReads {
		s.row[c.col] = cellOf(s.rows[p], c.off)
	}
	return evalInto(a.groupEx, s.row, s.groupVals)
}

// walk groups and accumulates the top join's tuples in order, looking the
// group up at each probe row's first tuple. Where evaluated, the group
// keys are the probe row's s.keys, and a typed argument's value is its
// program's, a FLOAT added as a float64 (AddFloat), on every tuple the
// program did not bail on; replayed, each group key is evaluated per
// probe row. Every other argument is read where it lies (a bare column)
// or evaluated over s.row, in tuple order. It returns how many tuples the
// aggregate took, the one an error stopped it at included, and the error.
func (s *joinAggScratch) walk(a *aggOp, evaluated bool) (int, error) {
	probes, last := s.at[0], s.at[len(s.at)-1]
	nAggs := len(a.node.Aggs)
	probe, id := int32(-1), 0
	for t, p := range probes {
		if p != probe && !(test.carryGroupID && last[t] < 0) {
			probe = p
			key := s.groupVals
			if evaluated {
				key = s.keys[p]
			} else if err := s.groupKey(a, p); err != nil {
				return t + 1, err
			}
			var added bool
			if id, added = a.groups.Insert(key); added {
				a.newGroup()
			}
		}
		for i, kind := range s.kinds {
			acc := a.aggs[id*nAggs+i]
			var v sqltypes.Value
			switch {
			case kind == argStar:
				v = sqltypes.NewBool(true) // any non-null marker
			case kind == argBare:
				v = s.cellAt(t, s.argReads[i][0])
			case kind == argTyped && evaluated && (!s.res[i].Bailed(t) || test.ignoreBail):
				// A NULL adds nothing, as Add(NULL) adds nothing.
				if f, null := s.res[i].At(t); !null || test.addNull {
					acc.AddFloat(f)
				}
				continue
			default:
				s.gather(t, s.argReads[i])
				var err error
				if v, err = a.argEx[i].Eval(s.row); err != nil {
					return t + 1, err
				}
			}
			if err := acc.Add(v); err != nil {
				return t + 1, err
			}
		}
	}
	return len(probes), nil
}

// probeKeys evaluates keys, which read only the probe rows' columns, over
// every probe row of the batch into b.keys: bare columns read in place,
// the others over the whole batch (EvalBatch). It returns the first error
// it meets, which need not be the row path's: a caller reports none of
// them but replays the batch. A probe row too short for a key fails with
// errShortProbe before any key is evaluated, so that a batch that holds
// one allocates no error.
func (b *joinBatch) probeKeys(keys []*expr.Compiled) error {
	n, nk := len(b.rows), len(keys)
	maxCol := -1
	for _, k := range keys {
		maxCol = max(maxCol, k.MaxCol)
	}
	for _, r := range b.rows {
		if len(r) <= maxCol {
			return errShortProbe
		}
	}
	b.keyCells = resize(b.keyCells, n*nk)
	b.keys = resize(b.keys, n)
	for j := range b.keys {
		b.keys[j] = b.keyCells[j*nk : (j+1)*nk : (j+1)*nk]
	}
	for i, k := range keys {
		if k.Col < 0 {
			if err := k.EvalBatch(&b.kb, b.rows, b.keys, i); err != nil {
				return err
			}
			continue
		}
		for j, r := range b.rows {
			b.keys[j][i] = r[k.Col]
		}
	}
	return nil
}

// errShortProbe is probeKeys' error for a batch with a probe row too short
// for a key.
var errShortProbe = errors.New("a probe row is too short for its key")

// routeProbes routes every probe row of the batch by keys, which read only
// its columns, into s.probeDst (probeKeys, then one PartitionsOf pass); a
// NULL key routes to 0, as PartitionOf sends it. It reports false, and
// routes nothing, where a key fails on some probe row — one no tuple may
// come from, whose key the row path never evaluates: the caller then
// evaluates per probe row, in the row path's order.
func (s *joinRootScratch) routeProbes(keys []*expr.Compiled, parts int) bool {
	if s.probeKeys(keys) != nil {
		return false
	}
	s.probeDst = resize(s.probeDst, len(s.rows))
	sqltypes.PartitionsOf(s.probeDst, s.keys, s.idCols, parts)
	return true
}

// --- the join → exchange form ---------------------------------------------------

// joinRun is what a hash join node carries from one of its runs to the
// next (nodeRun): the scratch of the join → exchange form, where the node
// is the root of a tree an MPP exchange drains.
type joinRun struct {
	spare scratchSlots[*joinRootScratch]
}

func (r *joinRun) sweep()    {}
func (r *joinRun) handBack() {}

// joinRootScratch is one join → exchange run's storage: the join batch,
// where every cell of the top join's rows lies, and the key cells of a
// batch's tuples.
type joinRootScratch struct {
	joinBatch
	laid, fits bool
	cols       []cellRead // per column of the top join's rows
	probeWidth int        // the bottom probe rows' columns in a joined row
	row        sqltypes.Row
	vals       []sqltypes.Value
	keyAt      []cellRead // Route's bare-column keys
	keyCells   []sqltypes.Value
	keyRows    []sqltypes.Row
	nulls      sqltypes.Row
	idCols     []int
	probeDst   []int32 // routeProbes': each probe row's partition
}

// joinRootOf returns the scratch of the join → exchange form where op is
// a chain of joins it runs, and ok false where it is not.
func joinRootOf(op Operator) (s *joinRootScratch, ok bool) {
	h, isJoin := op.(*hashJoinOp)
	if rowAtATime.Load() || !isJoin || h.run == nil || !isJoinChain(op) {
		return nil, false
	}
	if s = h.run.spare.take(h.part); s == nil {
		s = new(joinRootScratch)
	}
	s.joinChainOf(op)
	if !s.laid {
		s.laid, s.fits = true, s.layKeys()
		w := h.leftWidth + h.rightWidth
		s.cols = make([]cellRead, w)
		for c := range s.cols {
			s.cols[c] = s.read(c)
		}
		s.probeWidth = s.joins[0].leftWidth
	}
	if !s.fits {
		s.release(h.run, h.part)
		return nil, false
	}
	s.begin()
	return s, true
}

// release lets go of the run's rows and operators and gives s back to
// the top join's run state, as partition part's.
func (s *joinRootScratch) release(run *joinRun, part int) {
	s.joinBatch.release()
	clear(s.row)
	clear(s.keyCells)
	clear(s.keyRows[:cap(s.keyRows)])
	run.spare.give(part, s)
}

// JoinTuples is a batch of the tuples a chain of hash joins at the root
// of a tree emits, which a Drainer opened for an exchange hands over
// instead of carving a joined row per tuple: an exchange routes each
// tuple by its key cells where they lie (Route) and copies its cells once,
// into its own buffers (Copy). It is valid until the Drainer's next call.
type JoinTuples struct{ s *joinRootScratch }

// Len is how many tuples the batch holds, in the row path's order.
func (ts *JoinTuples) Len() int { return ts.s.tuples() }

// Width is how many cells a tuple's joined row has.
func (ts *JoinTuples) Width() int { return len(ts.s.cols) }

// Copy writes the joined row of tuple t into row, Width cells long: the
// probe row's cells, then each build row's, NULL past a shorter row's end
// and where a left join NULL-extended the tuple, as the row path's joined
// row holds them.
func (ts *JoinTuples) Copy(t int, row sqltypes.Row) {
	s := ts.s
	path := s.pathOf(len(s.joins)-1, int32(t))
	fillSide(row[:s.probeWidth], s.rows[path[0]])
	for k, h := range s.joins {
		side := row[h.leftWidth : h.leftWidth+h.rightWidth]
		if b := path[k+1]; b >= 0 {
			fillSide(side, h.build.Rows[b])
		} else if !test.keepCells {
			clear(side)
		}
	}
}

// Route sets dst[t] to the partition of tuple t among parts: the one
// sqltypes.PartitionOf gives the values of keys, expressions over the
// joined row, or, where keys is nil, of its columns cols — partition 0
// where one is NULL — as an exchange routes the joined row. A bare-column
// key is read where it lies; a computed one is evaluated over the cells it
// reads, once per probe row where it reads only the probe row's. It
// returns how many tuples it routed before the first whose key fails to
// evaluate, and that error.
func (ts *JoinTuples) Route(keys []*expr.Compiled, cols []int, parts int, dst []int32) (int, error) {
	s := ts.s
	n := s.tuples()
	dst = dst[:n]
	s.keyAt = s.keyAt[:0]
	computed, maxCol := false, -1
	if keys == nil {
		for _, c := range cols {
			s.keyAt = append(s.keyAt, s.cols[c])
		}
	}
	for _, k := range keys {
		if k.Col < 0 {
			computed = true
		} else {
			s.keyAt = append(s.keyAt, s.cols[k.Col])
		}
		maxCol = max(maxCol, k.MaxCol)
	}
	if computed {
		return s.routeComputed(keys, maxCol, parts, dst)
	}
	s.routeBare(parts, dst)
	return n, nil
}

// routeBare routes every tuple by its bare-column keys (s.keyAt) in one
// pass (sqltypes.PartitionsOf): over the one row that holds them all,
// where they lie in one, else over a copy of the key cells.
func (s *joinRootScratch) routeBare(parts int, dst []int32) {
	n, top, nk := len(dst), len(s.joins)-1, len(s.keyAt)
	s.keyRows = resize(s.keyRows, n)
	s.idCols = resize(s.idCols, nk)
	seg, width := int32(-1), 0
	for i, c := range s.keyAt {
		s.idCols[i] = int(c.off)
		width = max(width, int(c.off)+1)
		if i == 0 {
			seg = c.seg
		} else if c.seg != seg {
			seg = -1
		}
	}
	if nk == 0 || seg < 0 {
		// The keys lie in several rows: copy their cells.
		s.keyCells = resize(s.keyCells, n*nk)
		for t := range n {
			path := s.pathOf(top, int32(t))
			key := s.keyCells[t*nk : (t+1)*nk : (t+1)*nk]
			for i, c := range s.keyAt {
				key[i] = s.cell(path, c)
			}
			s.keyRows[t] = key
		}
		for i := range s.idCols {
			s.idCols[i] = i
		}
		sqltypes.PartitionsOf(dst, s.keyRows, s.idCols, parts)
		return
	}
	// A row that does not hold them — a NULL-extended side, a row shorter
	// than the join's — holds NULL keys, which go to partition 0.
	if len(s.nulls) < width {
		s.nulls = make(sqltypes.Row, width)
	}
	for t := range n {
		path := s.pathOf(top, int32(t))
		var row sqltypes.Row
		if seg == 0 {
			row = s.rows[path[0]]
		} else if b := path[seg]; b >= 0 {
			row = s.joins[seg-1].build.Rows[b]
		}
		if len(row) < width {
			row = s.nulls
		}
		s.keyRows[t] = row
	}
	sqltypes.PartitionsOf(dst, s.keyRows, s.idCols, parts)
}

// routeComputed routes every tuple by keys, some of them computed, whose
// cells lie in the joined row's first maxCol+1 columns: where those are
// all the probe row's, over the batch's probe rows at once (routeProbes),
// or, where an evaluation fails there, once per probe row in the row
// path's order; else once per tuple, over a copy of its cells.
func (s *joinRootScratch) routeComputed(keys []*expr.Compiled, maxCol, parts int, dst []int32) (int, error) {
	top := len(s.joins) - 1
	s.row = resize(s.row, maxCol+1)
	s.vals = resize(s.vals, len(keys))
	s.idCols = resize(s.idCols, len(keys))
	for i := range s.idCols {
		s.idCols[i] = i
	}
	perProbe := maxCol < s.probeWidth || test.keyPerProbe
	if perProbe && s.routeProbes(keys, parts) {
		top := len(s.joins) - 1
		for t := range dst {
			dst[t] = s.probeDst[s.pathOf(top, int32(t))[0]]
		}
		return len(dst), nil
	}
	probe, d := int32(-1), int32(0)
	for t := range dst {
		path := s.pathOf(top, int32(t))
		if perProbe && path[0] == probe {
			dst[t] = d
			continue
		}
		probe = path[0]
		row := s.rows[probe]
		if !perProbe || len(row) <= maxCol {
			for c := range s.row {
				s.row[c] = s.cell(path, s.cols[c])
			}
			row = s.row
		}
		null, err := EvalKey(keys, row, s.vals)
		if err != nil {
			return t, err
		}
		if d = 0; !null {
			d = int32(sqltypes.PartitionOf(s.vals, s.idCols, parts))
		}
		dst[t] = d
	}
	return len(dst), nil
}
