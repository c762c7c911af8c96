package sqltypes

import (
	"slices"
	"sync"
	"testing"
)

// held returns the spares s holds, oldest first.
func held(s *Spares[int]) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.items)
}

// TestSparesTakeBelowTheMarks: a take that reaches below the aged or the
// carried mark moves the mark down with it, so the next Sweep or HandBack
// drops exactly the spares that were there before it and nobody took.
func TestSparesTakeBelowTheMarks(t *testing.T) {
	var s Spares[int]
	s.Give(1)
	s.Give(2)
	s.Sweep() // 1 and 2 aged
	s.Give(3)
	if x, ok := s.TakeFit(func(x int) bool { return x == 1 }); !ok || x != 1 {
		t.Fatalf("TakeFit(1) = %d, %v", x, ok)
	}
	if s.aged != 1 {
		t.Fatalf("aged = %d after taking one of the two aged spares, want 1", s.aged)
	}
	s.Sweep() // drops 2, the aged spare nobody took; 3 ages
	if got := held(&s); !slices.Equal(got, []int{3}) {
		t.Fatalf("after the sweep: %v, want [3]", got)
	}
	if x := s.Take(); x != 3 {
		t.Fatalf("Take = %d, want the aged 3", x)
	}
	if s.aged != 0 || s.Len() != 0 {
		t.Fatalf("aged = %d, Len = %d after taking the last spare", s.aged, s.Len())
	}

	// HandBack carries what a run let go; the next run takes one of them
	// from below the carried mark and lets a new one go.
	s.Give(4)
	s.Give(5)
	s.Give(6)
	s.HandBack()
	if x, ok := s.TakeFit(func(x int) bool { return x == 5 }); !ok || x != 5 {
		t.Fatalf("TakeFit(5) = %d, %v", x, ok)
	}
	if s.carried != 2 || s.aged != 2 {
		t.Fatalf("carried = %d, aged = %d after taking a carried spare, want 2 and 2", s.carried, s.aged)
	}
	s.Give(7)
	s.HandBack() // drops 4 and 6, carried and not taken
	if got := held(&s); !slices.Equal(got, []int{7}) {
		t.Fatalf("after the hand-back: %v, want [7]", got)
	}
	if x, ok := s.TakeFit(func(x int) bool { return x > 7 }); ok || x != 0 {
		t.Fatalf("TakeFit with no fit = %d, %v; want 0, false", x, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("a take with no fit changed Len to %d", s.Len())
	}
}

// TestSparesDropOnlyWhatNobodyTook: Sweep drops what was there at the
// previous sweep or hand-back, HandBack what the run was carried, and
// neither drops a spare given since; Clear drops every one. Take returns
// the newest.
func TestSparesDropOnlyWhatNobodyTook(t *testing.T) {
	var s Spares[int]
	if x := s.Take(); x != 0 {
		t.Fatalf("Take on empty = %d", x)
	}
	s.Give(1)
	s.Sweep()
	if s.Len() != 1 {
		t.Fatal("the first sweep dropped a spare given since the (absent) previous one")
	}
	s.Give(2)
	s.Sweep()
	if got := held(&s); !slices.Equal(got, []int{2}) {
		t.Fatalf("after the second sweep: %v, want [2]", got)
	}
	s.Give(3)
	s.HandBack() // nothing carried yet: keeps 2 and 3
	if got := held(&s); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("after the first hand-back: %v, want [2 3]", got)
	}
	s.Give(4)
	s.Sweep() // the next run's first back-edge: 2 and 3 were not taken
	if got := held(&s); !slices.Equal(got, []int{4}) {
		t.Fatalf("after the next run's first sweep: %v, want [4]", got)
	}
	s.Give(5)
	s.HandBack() // carried nothing: keeps 4 and 5
	if x := s.Take(); x != 5 {
		t.Fatalf("Take = %d, want the newest, 5", x)
	}
	s.Clear()
	if s.Len() != 0 || s.aged != 0 || s.carried != 0 {
		t.Fatalf("after Clear: Len = %d, aged = %d, carried = %d", s.Len(), s.aged, s.carried)
	}
	s.Give(6)
	s.HandBack()
	if s.Len() != 1 {
		t.Fatal("a hand-back after Clear dropped a spare given since")
	}
}

// TestSparesConcurrent has 8 goroutines give and take at once, as the
// partitions of an MPP machine do with an aggregate's spare tables: every
// spare given is taken at most once, and the ones left are the rest (this
// test is in the -race pass).
func TestSparesConcurrent(t *testing.T) {
	var s Spares[int]
	const workers, each = 8, 500
	taken := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				s.Give(w*each + i + 1)
				if x, ok := s.TakeFit(func(x int) bool { return x%2 == 0 }); ok {
					taken[w] = append(taken[w], x)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, x := range slices.Concat(append(taken, held(&s))...) {
		if seen[x] {
			t.Fatalf("spare %d handed out twice", x)
		}
		seen[x] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("%d distinct spares taken or held, want %d", len(seen), workers*each)
	}
}
