package exec

import (
	"sync"

	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// Spares holds what the runs of a statement let go — hash indexes, an
// aggregate's group tables, the step program's key tables — for later
// runs to fill again instead of allocating, newest last. Every taker
// takes one when there is one, so it never holds more than were alive at
// once. A spare nobody took between two back-edges is dropped at the
// second (Sweep): what a query lets go outside its loop, or in an
// iteration whose shape the next one does not repeat, is not kept, and
// scanned by the garbage collector, for the rest of the run. What a run
// leaves is carried into the statement's next run (HandBack), which
// drops, when it ends, what it was given and did not take, so a
// statement never holds more than one run let go. The zero value is
// empty, and it is safe for concurrent use (the partitions of an MPP
// machine share one).
type Spares[T any] struct {
	mu    sync.Mutex
	items []T
	aged  int // items[:aged] were there at the last sweep or hand-back
	// items[:carried] came from the statement's previous run, and no take
	// of this run reached them
	carried int
}

// Take returns the newest spare, or the zero T when there is none.
func (s *Spares[T]) Take() (x T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.items); n > 0 {
		x = s.items[n-1]
		clear(s.items[n-1:])
		s.items = s.items[:n-1]
		s.aged = min(s.aged, n-1)
		s.carried = min(s.carried, n-1)
	}
	return x
}

// Give files x for a later taker.
func (s *Spares[T]) Give(x T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, x)
}

// Sweep drops the spares that were there at the previous sweep and are
// still not taken. The loop operator calls it at the back-edge.
func (s *Spares[T]) Sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drop(s.aged)
	s.aged, s.carried = len(s.items), 0
}

// HandBack ends a clean run of the statement: it drops what the run was
// carried and did not take, and carries the rest — what the run let go
// — into the next run.
func (s *Spares[T]) HandBack() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drop(s.carried)
	s.aged, s.carried = len(s.items), len(s.items)
}

// drop drops items[:n]; s.mu is held.
func (s *Spares[T]) drop(n int) {
	m := copy(s.items, s.items[n:])
	clear(s.items[m:])
	s.items = s.items[:m]
}

// Clear drops every spare.
func (s *Spares[T]) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.items)
	s.items, s.aged, s.carried = s.items[:0], 0, 0
}

// test is zero outside tests: the seeded mutants of the aggregate's
// lending rule — a keeping aggregate giving its table back at Close,
// which for the final query's aggregate, whose rows the run returns,
// only the statement's next run shows — and of End, the index memo's
// entries carried into the next run.
var test struct{ keepingGivesBack, carryEntries bool }

// Leftovers is what the runs of one statement carry from one to the
// next: the hash indexes they let go, and each aggregate node's run state
// (aggRun: its group-count hint, its spare group tables and
// accumulators). Only storage and advisory hints are in it: a run builds
// its memo over it (Memo), and nothing the memo computed — an index entry,
// a compiled expression — outlives the run (End). The zero value is
// empty. One run at a time may use it, and that run's memo concurrently.
type Leftovers struct {
	indexes Spares[*HashIndex]
	mu      sync.Mutex
	aggs    map[*plan.Aggregate]*aggRun
	carried *IndexCache // the last run's memo, under test.carryEntries only
}

// Memo returns the memo of a run that bound params to the statement's
// literal slots (nil: none bound): an empty index memo whose builds fill
// the indexes l holds, and an empty compile memo whose aggregates take
// their run state from l.
func (l *Leftovers) Memo(params []sqltypes.Value) (*IndexCache, *CompileCache) {
	x := newIndexCache(&l.indexes)
	if test.carryEntries {
		if l.carried != nil {
			x = l.carried
		}
		l.carried = x
	}
	return x, newCompileCache(params, l)
}

// End ends the run whose memo x and c are (Memo). Their entries go: an
// index's witness is its table's address, and DML changes a base table
// in place; a compiled expression is bound to the run's literals. After
// a clean run, l keeps the storage of x's indexes and what the run let
// go, less what it was carried and did not take (Spares.HandBack); after
// any other, l is emptied.
func (l *Leftovers) End(x *IndexCache, c *CompileCache, clean bool) {
	if !test.carryEntries {
		x.end(clean)
	}
	c.Clear()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !clean {
		l.aggs = nil
		return
	}
	for _, r := range l.aggs {
		r.spare.HandBack()
	}
}

// aggRun returns n's run state, new if no run of the statement has
// compiled n yet.
func (l *Leftovers) aggRun(n *plan.Aggregate) *aggRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.aggs[n]
	if r == nil {
		if l.aggs == nil {
			l.aggs = make(map[*plan.Aggregate]*aggRun)
		}
		r = new(aggRun)
		l.aggs[n] = r
	}
	return r
}
