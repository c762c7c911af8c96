package exec

import (
	"sync"

	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Fragment describes one exchange-free piece of a plan that the MPP
// machine (internal/mpp) cut at its exchanges. The machine owns the
// exchanges and nothing else: between two of them the plan is the
// ordinary operators, built once per partition (BuildFragment) and
// drained side by side. Without a fragment buildWith builds the whole
// plan as one tree, the volcano path.
//
// Nodes are told apart by identity, so a plan must be a tree (the plan
// builder expands every reference into its own nodes).
type Fragment struct {
	// Parts is the number of partitions. A scan in partition p reads
	// that partition of its table, or, of a table partitioned any other
	// way, every Parts-th row in scan order.
	Parts int
	// Inputs are the cuts: a node listed here is not built, partition
	// p's tree reads Inputs[n][p] in its place — what an exchange
	// delivered to it.
	Inputs map[plan.Node][][]sqltypes.Row
	// Taps show every row a node hands up to the machine: its stand-in
	// for an exchange it elided.
	Taps map[plan.Node]Tap

	// kept lists the cuts some tree took for a consumer that keeps rows
	// (Lent).
	mu   sync.Mutex
	kept map[plan.Node]bool
}

// Tap is what a fragment shows the rows a node hands up. Check, where it
// is not nil, is shown each row, with the partition, before the node's
// consumer takes it; it may read the row until it returns and must not
// keep it, and its error fails the fragment. Count, where it is not nil,
// is told how many rows of the partition the consumer took, the one a
// Check failed on included — the rows the row path's consumer had read by
// then — which a batch form tells it once the consumer is done with them.
type Tap struct {
	Check func(part int, r sqltypes.Row) error
	Count func(part, n int)
}

// fragPart is buildWith's fragment argument: one partition of one.
type fragPart struct {
	*Fragment
	part int
}

// partition is the partition whose tree f builds: 0 without a fragment,
// as the volcano executor's one tree.
func (f *fragPart) partition() int {
	if f == nil {
		return 0
	}
	return f.part
}

// BuildFragment compiles partition part's tree of the fragment of n's
// plan that frag describes. The caller keeps the rows it drains; stats
// and cc are the tree's own (one goroutine runs it).
func BuildFragment(n plan.Node, rt Runtime, stats *Stats, cc *CancelChecker, frag *Fragment, part int) (Operator, error) {
	return buildWith(n, rt, stats, cc, false, &fragPart{frag, part})
}

// BuildLendingFragment is BuildFragment for a caller that reads: it is
// done with each row before it asks for the next (an exchange that
// copies what it routes), so the root is built as a reader's input and
// may hand out one row over and over (rows.go).
func BuildLendingFragment(n plan.Node, rt Runtime, stats *Stats, cc *CancelChecker, frag *Fragment, part int) (Operator, error) {
	return buildWith(n, rt, stats, cc, true, &fragPart{frag, part})
}

// Lent reports whether every tree built so far took the cut n for a
// reader: nothing holds on to Inputs[n]'s rows once the trees are done,
// and whoever owns them may overwrite them. A sort, a top-N, a join's
// build side, a nested loop's right side or a keeping root reached
// through forwarders makes it false.
func (f *Fragment) Lent(n plan.Node) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.kept[n]
}

// build is buildWith under a fragment: a cut stands in for the node, a
// tap goes on top of either.
func (f *fragPart) build(n plan.Node, rt Runtime, stats *Stats, cc *CancelChecker, borrow bool) (op Operator, err error) {
	if in, cut := f.Inputs[n]; cut {
		if !borrow {
			f.mu.Lock()
			if f.kept == nil {
				f.kept = map[plan.Node]bool{}
			}
			f.kept[n] = true
			f.mu.Unlock()
		}
		op = &rowsOp{rows: in[f.part], cancel: cc}
	} else if op, err = buildNode(n, rt, stats, cc, borrow, f); err != nil {
		return nil, err
	}
	if tap, ok := f.Taps[n]; ok {
		op = &tapOp{input: op, tap: tap, part: f.part}
	}
	return op, nil
}

// aligned reports whether t is partitioned the way the fragment is, so
// that t's partition f.part is this tree's share of it.
func (f *fragPart) aligned(t *storage.Table) bool { return len(t.Parts) == f.Parts }

// dealt returns this tree's share of a table that is not aligned:
// the rows are dealt round-robin in scan order.
func (f *fragPart) dealt(t *storage.Table) []sqltypes.Row {
	var mine []sqltypes.Row
	i := 0
	for _, part := range t.Parts {
		for _, r := range part {
			if i%f.Parts == f.part {
				mine = append(mine, r)
			}
			i++
		}
	}
	return mine
}

// tapOp forwards its input's rows, showing each to the tap first.
type tapOp struct {
	input Operator
	tap   Tap
	part  int
}

// see counts r and shows it to the tap, as the row path does for each
// row its consumer reads.
func (t *tapOp) see(r sqltypes.Row) error {
	t.count(1)
	return t.check(r)
}

func (t *tapOp) check(r sqltypes.Row) error {
	if t.tap.Check == nil {
		return nil
	}
	return t.tap.Check(t.part, r)
}

func (t *tapOp) count(n int) {
	if t.tap.Count != nil {
		t.tap.Count(t.part, n)
	}
}

func (t *tapOp) Open() error { return t.input.Open() }
func (t *tapOp) Next() (sqltypes.Row, error) {
	r, err := t.input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	if err := t.see(r); err != nil {
		return nil, err
	}
	return r, nil
}
func (t *tapOp) Close() error { return t.input.Close() }

// tableRead is a join's build input that reads a table as it stands or
// filtered: a scan, possibly under a filter, possibly under a tap.
type tableRead struct {
	scan   *scanOp
	filter *expr.Compiled // nil: no filter
	tap    *tapOp         // nil: no tap
}

// tableScan reports how op reads a table as it stands or filtered; the
// scan is nil when op does not.
func tableScan(op Operator) tableRead {
	var r tableRead
	if r.tap, _ = op.(*tapOp); r.tap != nil {
		op = r.tap.input
	}
	if f, ok := op.(*filterOp); ok {
		r.filter, op = f.cond, f.input
	}
	r.scan, _ = op.(*scanOp)
	return r
}
