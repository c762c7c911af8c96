package exec

import (
	"dbspinner/internal/expr"
	"dbspinner/internal/sqltypes"
)

// A Drainer runs a tree to its end a batch at a time, in the form the
// tree's shape takes (batch.go), and is the one drain every consumer of a
// whole tree runs: MaterializeContext, DrainInto — and so RunContext, a
// join's build side, a sort and the MPP machine's root fragments — and an
// MPP exchange's routing loop. The zero value is ready for Open; it drains
// one tree at a time, and lives on its caller's stack.
//
// The consumer takes each batch in order. A source counts a batch's rows
// once the consumer has taken them all, at the next call or at Close, and a
// consumer that fails on a row of a batch says so (Stop), so the counters
// stop where the row path's stop.
type Drainer struct {
	op   Operator
	form drainForm
	src  batchSource // sourceForm
	// chainForm: the chain, its scratch, and the source row the replay of
	// a batch in which an evaluation failed reads next (-1: none).
	chain  batchChain
	cs     *batchScratch
	replay int
	// joinForm: the chain's scratch, and the probe rows the row path read
	// for the batch the consumer holds.
	tuples  JoinTuples
	scanned int
	// pend: the consumer holds a batch whose counting waits; in holds the
	// source's rows of the source form's batch.
	pend bool
	in   []sqltypes.Row
	// err is what the source failed with after the batch it filled.
	err error
	one [1]sqltypes.Row // the row form's batch
}

type drainForm uint8

const (
	rowForm    drainForm = iota // op.Next, a row at a time
	sourceForm                  // a batch source's own rows
	chainForm                   // batchChain
	joinForm                    // JoinTuples
)

// Open opens op and chooses how to drain it: for an exchange, which copies
// each row before it asks for the next batch, a chain of hash joins at the
// root hands over its tuples (Tuples) instead of rows.
func (d *Drainer) Open(op Operator, exchange bool) error { return d.open(op, exchange, true) }

// open is Open; sources says whether the caller's Next appends a batch
// source's rows to a slice of its own, without which a source root runs a
// row at a time.
func (d *Drainer) open(op Operator, exchange, sources bool) error {
	*d = Drainer{op: op, replay: -1}
	if c, ok := batchChainOf(op); ok {
		d.form, d.chain = chainForm, c
	} else if _, ok := op.(*hashJoinOp); ok && exchange {
		d.form = joinForm // where joinRootOf takes the tree, once it is open
	} else if src, ok := sourceOf(op); ok && sources && !rowAtATime.Load() {
		d.form, d.src = sourceForm, src
	}
	if err := op.Open(); err != nil {
		return err
	}
	switch d.form {
	case chainForm:
		d.cs = d.chain.scratch()
	case joinForm:
		if s, ok := joinRootOf(op); ok {
			d.tuples.s = s
		} else {
			d.form = rowForm
		}
	}
	return nil
}

// Batched reports whether the drain runs a batch form. Where it does not,
// the caller may pull the tree's rows itself, a row at a time (Operator.Next
// of the tree it opened), as Next would hand them over.
func (d *Drainer) Batched() bool { return d.form != rowForm }

// Tuples returns the batches of a chain of hash joins drained for an
// exchange (Open), each Next's until the next call, and nil where the
// tree's batches are rows.
func (d *Drainer) Tuples() *JoinTuples {
	if d.form != joinForm {
		return nil
	}
	return &d.tuples
}

// Next appends the tree's next batch of rows to dst (none where the batch
// is tuples, or where its rows were all filtered out) and reports whether
// there was one; at the tree's end it returns ok false. Where the tree
// lends its rows, they are valid until the next call.
func (d *Drainer) Next(dst []sqltypes.Row) (_ []sqltypes.Row, ok bool, err error) {
	if d.form == sourceForm {
		d.settle()
		if d.err != nil {
			return dst, false, d.err
		}
		start := len(dst)
		dst, d.err = d.src.fill(dst, expr.BatchRows)
		if len(dst) == start {
			return dst, false, d.err
		}
		d.in, d.pend = dst[start:], true
		return dst, true, nil
	}
	rows, ok, err := d.next()
	return append(dst, rows...), ok, err
}

// next is Next for the forms that hold their batch: the batch, valid
// until the next call.
func (d *Drainer) next() ([]sqltypes.Row, bool, error) {
	d.settle()
	switch d.form {
	case chainForm:
		return d.nextChain()
	case joinForm:
		if err := d.nextTuples(); err != nil {
			return nil, false, err
		}
		if !d.pend {
			return nil, false, d.err
		}
		return nil, true, nil
	}
	r, err := d.op.Next()
	if err != nil || r == nil {
		return nil, false, err
	}
	d.one[0] = r
	return d.one[:], true, nil
}

// nextChain runs the chain over the source's next batch, or replays the
// batch a row at a time where an evaluation failed.
func (d *Drainer) nextChain() ([]sqltypes.Row, bool, error) {
	c, s := &d.chain, d.cs
	for {
		if d.replay >= 0 {
			out, err := c.replayRow(s, &d.replay)
			if err != nil {
				return nil, false, err
			}
			if out != nil {
				d.one[0] = out
				return d.one[:], true, nil
			}
			d.replay = -1
		}
		if d.err != nil {
			return nil, false, d.err
		}
		s.in, d.err = c.src.fill(s.in[:0], expr.BatchRows)
		if len(s.in) == 0 {
			return nil, false, d.err
		}
		outs, err := c.batch(s, s.in)
		if err != nil {
			if test.noReplay {
				return nil, false, err
			}
			d.replay = 0
			continue
		}
		d.in, d.pend = s.in, true
		return outs, true, nil
	}
}

// nextTuples runs the source's next batch of probe rows through the
// joins into d.tuples, pending for the consumer, unless the source is at
// its end or failed after the last batch (d.err). It returns an error
// that ends the drain before the batch, a cancellation, and keeps in d.err
// one that comes after the batch's tuples.
func (d *Drainer) nextTuples() error {
	if d.err != nil {
		return nil
	}
	s := d.tuples.s
	var ferr error
	if s.rows, ferr = s.src.fill(s.rows[:0], expr.BatchRows); len(s.rows) == 0 {
		d.err = ferr
		return nil
	}
	scanned, polls, joinErr := s.expand(nil)
	if err := s.joins[0].cancel.TickN(polls); err != nil {
		return err
	}
	if d.err = ferr; joinErr != nil {
		d.err = joinErr
	}
	d.scanned, d.pend = scanned, true
	return nil
}

// settle counts the batch the consumer has taken whole.
func (d *Drainer) settle() {
	if !d.pend {
		return
	}
	d.pend = false
	switch d.form {
	case sourceForm:
		d.src.counted(d.in)
	case chainForm:
		d.chain.src.counted(d.in)
	case joinForm:
		d.tuples.s.count(d.scanned, d.tuples.s.tuples())
	}
	d.in = nil
}

// Stop says the consumer took n rows or tuples of the batch it holds and
// failed on the next: the counters then stop at that one, as the row
// path's do where its consumer fails.
func (d *Drainer) Stop(n int) {
	if !d.pend {
		return
	}
	d.pend = false
	switch d.form {
	case sourceForm:
		d.src.counted(d.in[:min(n+1, len(d.in))])
	case chainForm:
		// Replay the batch, counting, up to the row the consumer failed
		// on; nothing fails, as the batch did not.
		d.replay = 0
		for range n + 1 {
			if out, _ := d.chain.replayRow(d.cs, &d.replay); out == nil {
				break
			}
		}
	case joinForm:
		d.tuples.s.count(d.scanned, n+1)
	}
	d.in = nil
}

// Close counts the batch the consumer holds, lets go of the scratch and
// closes the tree.
func (d *Drainer) Close() error {
	d.settle()
	switch d.form {
	case chainForm:
		d.cs.release(d.chain.project.run, d.chain.project.part)
	case joinForm:
		h := d.op.(*hashJoinOp)
		d.tuples.s.release(h.run, h.part)
	}
	d.cs, d.tuples.s, d.src = nil, nil, nil
	return d.op.Close()
}
