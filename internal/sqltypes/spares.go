package sqltypes

import "sync"

// Spares holds what the runs of a statement let go — hash indexes, an
// aggregate's group tables, the step program's key tables, row chunks —
// for later runs to fill again instead of allocating, newest last. Every
// taker takes one when there is one, so it never holds more than were
// alive at once. A spare nobody took between two back-edges is dropped at
// the second (Sweep): what a query lets go outside its loop, or in an
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

// Len returns the number of spares held.
func (s *Spares[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}
