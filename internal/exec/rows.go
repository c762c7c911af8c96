package exec

import "dbspinner/internal/sqltypes"

// Row ownership. A row returned by Next is valid until the next Next or
// Close on the same operator, unless the operator was built for a
// consumer that keeps rows. Who keeps rows is a static property of the
// parent plan node, so buildWith passes it down as its borrow argument:
//
//   - readers (borrow = true for their input): the aggregate, the probe
//     side of a hash join, the streamed left side of a nested loop,
//     project, and the root BuildLendingFragment builds for an MPP
//     exchange, which copies each row it routes — each is done with a row
//     before it asks for the next;
//   - forwarders (pass their own borrow on): alias, filter, trim, union,
//     distinct, limit, and the tap of an elided MPP exchange — they hand
//     the input's row to their consumer;
//   - keepers (borrow = false for their input): the roots (Run,
//     RunContext, Materialize, Build and BuildFragment: Drain collects
//     the rows), a hash join's build side, a nested loop's right side,
//     sort and top-N.
//
// Scans, VALUES and the aggregate emit rows that stay valid regardless
// (table rows; the aggregate's one output buffer). A fragment's cut
// input emits the rows an exchange delivered, which are the machine's:
// valid until the consuming fragment's trees are done, and for good only
// if one of them took the cut for a keeper (Fragment.Lent says which) —
// the machine overwrites a lent cut's rows the next time it fills that
// exchange. The operators that build a row per Next — hash join, nested
// loop, project — take it from an outRows, which is the one place the
// two answers differ.
//
// The batch form (batch.go) holds up to a batch of its source's rows at
// once, which only a scan of a stored result or an aggregate's output —
// rows valid until the source closes — may give it. The cells a typed
// program reads it gathers into vectors of its own, copies of the cells'
// numbers, and it writes each output cell into a row its project carved
// as the row path carves it; so no rule above changes. The join →
// aggregate form holds a batch of a result scan's rows the same way, and
// reads the build rows of the joins under it through their indexes while
// they are open; it carves no joined row at all.

// outRows is where a row-building operator's output rows come from.
// The zero value keeps every row alive: rows are carved from a RowSlab.
// With borrow set there is one row, rewritten by every call.
type outRows struct {
	borrow  bool
	slab    sqltypes.RowSlab
	scratch sqltypes.Row
}

// reset drops the rows handed out so far; operators call it from Open.
// A slab carving for a table's arena (MaterializeContext) keeps doing so.
func (o *outRows) reset() { o.slab.Reset() }

// next returns the row to fill, capped at width. A slab row starts
// NULL; the borrowed row still holds the previous row's values, so the
// caller writes every cell.
func (o *outRows) next(width int) sqltypes.Row {
	if !o.borrow {
		return o.slab.Alloc(width)
	}
	if o.scratch == nil || cap(o.scratch) < width {
		o.scratch = make(sqltypes.Row, width) // non-nil at width 0: nil means end of stream
	}
	return o.scratch[:width:width]
}

// discard takes back the row the latest next returned and nobody else
// has seen (a join candidate its residual rejected).
func (o *outRows) discard(r sqltypes.Row) {
	if !o.borrow {
		o.slab.Recycle(r)
	}
}
