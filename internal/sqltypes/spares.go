package sqltypes

import "sync"

// Spares holds what the runs of a statement let go — hash indexes, an
// aggregate's group tables, the step program's key tables, row chunks —
// for later runs to fill again instead of allocating, newest last. Every
// taker takes one when there is one, so it never holds more than were
// alive at once. What a run lets go before its first back-edge (Sweep)
// — in the steps in front of its loop and in the loop's first iteration —
// is never swept: the statement's next run fills it again, so it is
// carried into that run (HandBack). A spare a later iteration lets go
// and nobody takes by the following back-edge is dropped there: what an
// iteration whose shape the next one does not repeat let go is not kept,
// and scanned by the garbage collector, for the rest of the run. A run
// drops, at its first sweep or when it ends, what it was carried and did
// not take, so a statement never holds more than one run let go. The
// zero value is empty, and it is safe for concurrent use (the partitions
// of an MPP machine share one).
type Spares[T any] struct {
	mu    sync.Mutex
	items []T
	// items[:kept] were there at the run's first sweep, and no take
	// reached them: no later sweep drops them
	kept int
	aged int // items[:aged] were there at the last sweep or hand-back
	// items[:carried] came from the statement's previous run, and no take
	// of this run reached them
	carried int
	swept   bool // the run has passed its first back-edge
}

// Take returns the newest spare, or the zero T when there is none.
func (s *Spares[T]) Take() T {
	x, _ := s.TakeFit(nil)
	return x
}

// TakeFit removes and returns the newest spare that fits (nil: any), and
// whether there was one.
func (s *Spares[T]) TakeFit(fits func(T) bool) (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.items) - 1; i >= 0; i-- {
		if x := s.items[i]; fits == nil || fits(x) {
			n := len(s.items) - 1
			copy(s.items[i:], s.items[i+1:])
			clear(s.items[n:])
			s.items = s.items[:n]
			if i < s.kept {
				s.kept--
			}
			if i < s.aged {
				s.aged--
			}
			if i < s.carried {
				s.carried--
			}
			return x, true
		}
	}
	return *new(T), false
}

// Give files x for a later taker.
func (s *Spares[T]) Give(x T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, x)
}

// Sweep drops the spares that were there at the previous sweep and are
// still not taken, except those there at the first: the loop operator
// calls it at the back-edge. The run's first sweep drops what the run
// was carried and did not take, and keeps until the run ends what it let
// go since.
func (s *Spares[T]) Sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case test.sweepNothing:
	case s.swept || test.agePreLoop:
		s.drop(s.kept, s.aged)
	default:
		s.drop(0, s.carried)
		s.kept, s.swept = len(s.items), true
	}
	s.aged, s.carried = len(s.items), 0
}

// HandBack ends a clean run of the statement: it drops what the run was
// carried and did not take, and carries the rest — what the run let go
// — into the next run.
func (s *Spares[T]) HandBack() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drop(0, s.carried)
	s.aged, s.carried = len(s.items), len(s.items)
	s.kept, s.swept = 0, false
}

// drop drops items[i:j]; s.mu is held.
func (s *Spares[T]) drop(i, j int) {
	m := i + copy(s.items[i:], s.items[j:])
	clear(s.items[m:])
	s.items = s.items[:m]
}

// test is zero outside tests: the seeded mutants of Sweep's rule — the
// first sweep ages what the run let go before it as any other, and a
// sweep drops nothing.
var test struct{ agePreLoop, sweepNothing bool }

// Clear drops every spare.
func (s *Spares[T]) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.items)
	s.items = s.items[:0]
	s.kept, s.aged, s.carried, s.swept = 0, 0, 0, false
}

// Len returns the number of spares held.
func (s *Spares[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}
