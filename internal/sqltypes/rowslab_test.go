package sqltypes

import "testing"

// TestChunkPoolCarriesIntoNextRun: the chunks a clean run's released
// tables hand back are carved again by the statement's next run
// (HandBack), which drops at its first sweep those it did not take;
// Reset drops them all, and Bytes counts what the pool holds.
func TestChunkPoolCarriesIntoNextRun(t *testing.T) {
	var pool ChunkPool
	// carve carves a table of three two-column rows, one chunk of
	// minSlabRows rows, and returns its arena and the chunk's first cell.
	carve := func() (*Arena, *Value) {
		a := NewArena(&pool)
		var s RowSlab
		s.CarveFor(&a)
		first := s.Alloc(2)
		s.Alloc(2)
		s.Alloc(2)
		return &a, &first[0]
	}
	const chunk = minSlabRows * 2 * valueBytes

	var freed int64
	pool.Begin(&freed)
	a, cell := carve()
	a.Release(nil, 6, false)
	if freed != 6 || pool.Bytes() != chunk {
		t.Fatalf("after the release: %d cells freed, %d bytes held; want 6 and %d", freed, pool.Bytes(), chunk)
	}
	pool.HandBack()
	if pool.Bytes() != chunk {
		t.Fatalf("the clean run's end kept %d bytes, want %d", pool.Bytes(), chunk)
	}

	pool.Begin(nil)
	a, again := carve()
	if again != cell {
		t.Error("the next run carved a new chunk, not the one the last run handed back")
	}
	a.Release(nil, 6, false)
	pool.HandBack()

	pool.Begin(nil)
	pool.Sweep()
	if pool.Bytes() != 0 {
		t.Errorf("the next run's first sweep kept %d bytes it was carried and did not take", pool.Bytes())
	}
	a, cell = carve()
	a.Release(nil, 6, false)
	pool.HandBack()
	pool.Reset()
	if pool.Bytes() != 0 {
		t.Errorf("Reset kept %d bytes", pool.Bytes())
	}
	if _, fresh := carve(); fresh == cell {
		t.Error("a run after Reset carved a chunk Reset dropped")
	}
}
