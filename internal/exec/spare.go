package exec

import "sync"

// spares holds what the runs of a query let go — hash indexes, an
// aggregate's group tables — for later runs to fill again instead of
// allocating, newest last. Every taker takes one when there is one, so
// it never holds more than were alive at once. A spare nobody took
// between two back-edges is dropped at the second (sweep): what a query
// lets go outside its loop, or in an iteration whose shape the next one
// does not repeat, is not kept, and scanned by the garbage collector,
// for the rest of the run. The zero value is empty, and it is safe for
// concurrent use (the partitions of an MPP machine share one).
type spares[T any] struct {
	mu    sync.Mutex
	items []T
	aged  int // items[:aged] were there at the last sweep
}

// take returns the newest spare, or the zero T when there is none.
func (s *spares[T]) take() (x T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.items); n > 0 {
		x = s.items[n-1]
		clear(s.items[n-1:])
		s.items = s.items[:n-1]
		s.aged = min(s.aged, n-1)
	}
	return x
}

// give files x for a later taker.
func (s *spares[T]) give(x T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items = append(s.items, x)
}

// sweep drops the spares that were there at the previous sweep and are
// still not taken. The loop operator calls it at the back-edge.
func (s *spares[T]) sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := copy(s.items, s.items[s.aged:])
	clear(s.items[n:])
	s.items = s.items[:n]
	s.aged = n
}

// clear drops every spare.
func (s *spares[T]) clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.items)
	s.items, s.aged = s.items[:0], 0
}
