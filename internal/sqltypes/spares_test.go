package sqltypes

import (
	"fmt"
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

// TestSparesTakeBelowTheMarks: a take that reaches below the kept, the
// aged or the carried mark moves the mark down with it, so the next Sweep
// or HandBack drops exactly the spares that were there before it and
// nobody took, and keeps exactly the ones the run let go in front of its
// loop.
func TestSparesTakeBelowTheMarks(t *testing.T) {
	var s Spares[int]
	s.Give(1)
	s.Give(2)
	s.Sweep() // the run's first back-edge: 1 and 2 are kept for good
	s.Give(3)
	if x, ok := s.TakeFit(func(x int) bool { return x == 1 }); !ok || x != 1 {
		t.Fatalf("TakeFit(1) = %d, %v", x, ok)
	}
	if s.kept != 1 || s.aged != 1 {
		t.Fatalf("kept = %d, aged = %d after taking one of the two kept spares, want 1 and 1", s.kept, s.aged)
	}
	s.Sweep() // 3 ages
	s.Give(4)
	if x, ok := s.TakeFit(func(x int) bool { return x == 3 }); !ok || x != 3 {
		t.Fatalf("TakeFit(3) = %d, %v", x, ok)
	}
	if s.kept != 1 || s.aged != 1 {
		t.Fatalf("kept = %d, aged = %d after taking the aged spare, want 1 and 1", s.kept, s.aged)
	}
	s.Sweep() // drops nothing: 3 was taken; 4 ages
	s.Sweep() // drops 4, which an iteration let go and nobody took
	if got := held(&s); !slices.Equal(got, []int{2}) {
		t.Fatalf("after the sweeps: %v, want the kept [2]", got)
	}

	// HandBack carries what the run let go; the next run takes one of them
	// from below the carried mark and lets a new one go in front of its
	// loop, and its first sweep drops the carried spare it did not take.
	s.Give(5)
	s.HandBack()
	if s.carried != 2 || s.aged != 2 || s.kept != 0 {
		t.Fatalf("carried = %d, aged = %d, kept = %d after the hand-back, want 2, 2 and 0", s.carried, s.aged, s.kept)
	}
	if x, ok := s.TakeFit(func(x int) bool { return x == 2 }); !ok || x != 2 {
		t.Fatalf("TakeFit(2) = %d, %v", x, ok)
	}
	if s.carried != 1 || s.aged != 1 {
		t.Fatalf("carried = %d, aged = %d after taking a carried spare, want 1 and 1", s.carried, s.aged)
	}
	s.Give(6)
	s.Sweep() // drops 5, carried and not taken; keeps 6
	if got := held(&s); !slices.Equal(got, []int{6}) || s.kept != 1 {
		t.Fatalf("after the next run's first sweep: %v, kept = %d; want [6] and 1", got, s.kept)
	}
	if x, ok := s.TakeFit(func(x int) bool { return x > 6 }); ok || x != 0 {
		t.Fatalf("TakeFit with no fit = %d, %v; want 0, false", x, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("a take with no fit changed Len to %d", s.Len())
	}
}

// checkSweepRule runs a Spares through three runs of a statement and
// says what differs from the rule, "" when nothing does:
//   - the pre-loop half: what a run lets go before its first back-edge
//     stays through every sweep of the run and is handed to the next;
//   - the in-loop half: what an iteration lets go and nobody takes by the
//     following back-edge is dropped there;
//   - what a run was carried and did not take is dropped at its first
//     sweep, or when it ends if it has no loop.
func checkSweepRule() string {
	var s Spares[int]
	for _, c := range []struct {
		what string
		do   func()
		want []int
	}{
		{"a run lets 1 go in front of its loop", func() { s.Give(1); s.Sweep() }, []int{1}},
		{"iteration 1 lets 2 go", func() { s.Give(2); s.Sweep() }, []int{1, 2}},
		{"iteration 2 takes nothing", s.Sweep, []int{1}},
		{"iterations 3 to 10 take nothing", func() {
			for range 8 {
				s.Sweep()
			}
		}, []int{1}},
		{"the run lets 3 go after its loop", func() { s.Give(3); s.HandBack() }, []int{1, 3}},
		{"the next run takes 3 and lets 4 go in front of its loop", func() { s.Take(); s.Give(4); s.Sweep() }, []int{4}},
		{"its iteration lets 5 go", func() { s.Give(5); s.Sweep() }, []int{4, 5}},
		{"and the next takes 5 and gives it back", func() { s.Take(); s.Give(5); s.Sweep() }, []int{4, 5}},
		{"and the last takes nothing", func() { s.Sweep(); s.HandBack() }, []int{4}},
		{"a run with no loop lets 6 go", func() { s.Give(6); s.HandBack() }, []int{6}},
		{"the next lets 7 go and takes the newest", func() { s.Give(7); s.Take() }, []int{6}},
		{"Clear", s.Clear, nil},
		{"after Clear a run lets 8 go in front of its loop", func() { s.Give(8); s.Sweep(); s.Sweep() }, []int{8}},
	} {
		c.do()
		if got := held(&s); !slices.Equal(got, c.want) {
			return fmt.Sprintf("%s: %v, want %v", c.what, got, c.want)
		}
	}
	return ""
}

// TestSparesDropOnlyWhatNobodyTook: Sweep drops what a loop iteration let
// go and nobody took by the following back-edge, and never what the run
// let go before its first back-edge; HandBack and the run's first sweep
// drop what the run was carried and did not take; Clear drops every one.
// Take returns the newest (checkSweepRule).
func TestSparesDropOnlyWhatNobodyTook(t *testing.T) {
	if d := checkSweepRule(); d != "" {
		t.Fatal(d)
	}
}

// TestSweepMutantsFail: the two seeded mutants of Sweep's rule fail
// TestSparesDropOnlyWhatNobodyTook's check — the old rule, under which
// the run's first sweep ages what the run let go before it as any other,
// drops it at the second; a sweep that drops nothing keeps what an
// iteration let go.
func TestSweepMutantsFail(t *testing.T) {
	for _, c := range []struct {
		name string
		arm  *bool
	}{
		{"the first sweep ages pre-loop spares", &test.agePreLoop},
		{"a sweep drops nothing", &test.sweepNothing},
	} {
		*c.arm = true
		d := checkSweepRule()
		*c.arm = false
		if d == "" {
			t.Errorf("%s: the check passes, it cannot see the mutant", c.name)
		}
		t.Logf("%s: %s", c.name, d)
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
