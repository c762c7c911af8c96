package exec

import (
	"slices"
	"sync/atomic"

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
// the batch. The shape of the plan chooses it, and nothing else: every
// other tree, and every tree the MPP machine, RunContext, DrainInto or a
// DML statement runs, runs a row at a time.
//
// A batch evaluates the same expressions over the same rows as the row
// path, in another order: an item over every row before the next item,
// not a row through every operator before the next row. So where any
// evaluation fails, the batch is replayed a row at a time through the
// row path's closures, which raises the row path's error at the row path's
// row, with the row path's counters; a batch in which nothing fails
// inserts the rows the row path inserts, in the row path's order.

// rowAtATime turns the batch form off (RowAtATime).
var rowAtATime atomic.Bool

// RowAtATime makes MaterializeContext run every tree a row at a time
// until restore is called: the switch the differential tests compare the
// batch form with the row path by. Nothing else calls it.
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

func (a *aggOp) fill(dst []sqltypes.Row, n int) ([]sqltypes.Row, error) {
	for len(dst) < n && a.groups != nil && a.pos < a.groups.Len() {
		dst = append(dst, a.groups.Row(a.pos))
		a.pos++
	}
	return dst, nil
}

func (a *aggOp) counted([]sqltypes.Row) {}
