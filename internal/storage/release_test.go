package storage

import (
	"fmt"
	"sync"
	"testing"

	"dbspinner/internal/sqltypes"
)

// releaseFixture is a store, a pool whose freed cells it counts, and a
// table carved from the pool, bound as "c", with its rows' text as
// carved. Poison is armed until the test ends, so a released table's
// rows read <reused>.
type releaseFixture struct {
	s     *ResultStore
	pool  sqltypes.ChunkPool
	freed int64
	t     *Table
	rows  string
}

func newReleaseFixture(tb testing.TB) *releaseFixture {
	tb.Helper()
	tb.Cleanup(sqltypes.Poison())
	f := &releaseFixture{s: NewResultStore()}
	f.pool.Begin(&f.freed)
	f.t = carved("c", &f.pool, row(1, 1), row(2, 2), row(3, 3))
	f.rows = fmt.Sprint(f.t.AllRows())
	f.s.Put("c", f.t)
	return f
}

// kept says what differs from the table being kept: cells freed, or
// rows that do not read as carved. "" when nothing does.
func (f *releaseFixture) kept() string {
	if f.freed != 0 {
		return fmt.Sprintf("%d cells freed", f.freed)
	}
	if got := fmt.Sprint(f.t.AllRows()); got != f.rows {
		return "rows read " + got
	}
	return ""
}

// released says what differs from the table having been released: all
// of its cells freed and its rows poisoned.
func (f *releaseFixture) released(rows []sqltypes.Row) string {
	if f.freed != 6 {
		return fmt.Sprintf("%d cells freed, want the table's 6", f.freed)
	}
	for _, r := range rows {
		if r[0] != sqltypes.Poisoned {
			return fmt.Sprintf("row %v was not handed back", r)
		}
	}
	return ""
}

// TestRenameOntoItsOwnSlotReleasesNothing: two names of one slot
// displace nothing, so the table they name stays bound and keeps its
// rows.
func TestRenameOntoItsOwnSlotReleasesNothing(t *testing.T) {
	f := newReleaseFixture(t)
	if err := f.s.Rename("C", "c"); err != nil {
		t.Fatal(err)
	}
	if f.s.Get("c") != f.t {
		t.Fatal("the rename unbound the table")
	}
	if d := f.kept(); d != "" {
		t.Error(d)
	}
}

// TestDisplacementReleasesOnce: Put over a slot, Rename over one and
// Drop all release the table they unbind, through one path that hands
// its cells back once; re-binding a table to the slot that holds it
// releases nothing.
func TestDisplacementReleasesOnce(t *testing.T) {
	for _, c := range []struct {
		name     string
		displace func(f *releaseFixture)
	}{
		{"put", func(f *releaseFixture) { f.s.Put("c", NewTable("d", schema2(), 1)) }},
		{"rename", func(f *releaseFixture) {
			f.s.Put("w", NewTable("w", schema2(), 1))
			if err := f.s.Rename("w", "C"); err != nil {
				t.Fatal(err)
			}
		}},
		{"drop", func(f *releaseFixture) { f.s.Drop("c") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newReleaseFixture(t)
			f.s.Put("c", f.t)
			if d := f.kept(); d != "" {
				t.Fatalf("re-binding the table to its own slot: %s", d)
			}
			rows := f.t.AllRows()
			c.displace(f)
			if d := f.released(rows); d != "" {
				t.Error(d)
			}
			f.s.Drop("c")
			if f.freed != 6 {
				t.Errorf("%d cells freed after the slot was dropped too, want 6", f.freed)
			}
			if f.t.Len() != 0 {
				t.Error("a released table still reads its rows")
			}
		})
	}
}

// checkBoundElsewhereIsKept binds the table under a second slot and
// displaces it from the first: it must keep its rows until the second
// lets it go too.
func checkBoundElsewhereIsKept(t *testing.T) string {
	f := newReleaseFixture(t)
	f.s.Put("snap", f.t)
	rows := f.t.AllRows()
	f.s.Put("c", NewTable("d", schema2(), 1))
	if d := f.kept(); d != "" {
		return "displaced from one of its two slots: " + d
	}
	f.s.Drop("snap")
	if d := f.released(rows); d != "" {
		return "dropped from its last slot: " + d
	}
	return ""
}

func TestReleaseKeepsATableBoundElsewhere(t *testing.T) {
	if d := checkBoundElsewhereIsKept(t); d != "" {
		t.Error(d)
	}
}

// TestReleaseKeepsATableBoundElsewhereCatchesMutant seeds the release
// that does not look at the other slots: the check must see it.
func TestReleaseKeepsATableBoundElsewhereCatchesMutant(t *testing.T) {
	test.ignoreAliases = true
	defer func() { test.ignoreAliases = false }()
	if checkBoundElsewhereIsKept(t) == "" {
		t.Error("a release of a table another slot binds passes the check")
	}
}

// TestPinnedTableKeepsItsRows: a table a reader pinned, or cloned,
// keeps its rows when the store releases it, and hands back nothing.
func TestPinnedTableKeepsItsRows(t *testing.T) {
	for name, keep := range map[string]func(*Table){
		"pin":   (*Table).Pin,
		"clone": func(t *Table) { t.Clone() },
	} {
		t.Run(name, func(t *testing.T) {
			f := newReleaseFixture(t)
			keep(f.t)
			f.s.Drop("c")
			if d := f.kept(); d != "" {
				t.Error(d)
			}
		})
	}
}

// TestReleasedChunksAreCarvedAgain: the next table of the run's shape is
// carved from the chunks a released table handed back, zeroed, and
// takes its partition slices. A sweep keeps what was handed back since
// the sweep before it, and the next sweep drops it.
func TestReleasedChunksAreCarvedAgain(t *testing.T) {
	f := newReleaseFixture(t)
	carveAfter := func(sweeps int) (first *sqltypes.Value, again sqltypes.Row) {
		u := carved("c", &f.pool, row(1, 1), row(2, 2), row(3, 3))
		first = &u.Parts[0][0][0]
		f.s.Put("c", u)
		f.s.Drop("c")
		for i := 0; i < sweeps; i++ {
			f.pool.Sweep()
		}
		var slab sqltypes.RowSlab
		var next Table
		slab.CarveFor(next.OwnRows(&f.pool))
		return first, slab.Alloc(2)
	}
	first, r := carveAfter(1)
	if &r[0] != first {
		t.Error("the next table is not carved from the released chunk")
	}
	if !r[0].IsNull() || !r[1].IsNull() {
		t.Errorf("a row carved again reads %v, want NULLs", r)
	}
	if p := f.pool.Part(1); cap(p) == 0 {
		t.Error("the released partition slice was not handed out again")
	}
	if first, r := carveAfter(2); &r[0] == first {
		t.Error("a chunk two sweeps left untaken was handed out")
	}
}

// checkHeldIsKept holds the table twice and has the store release it: it
// must keep its rows until the last Unhold, which hands them back.
func checkHeldIsKept(t *testing.T) string {
	f := newReleaseFixture(t)
	f.t.Hold()
	f.t.Hold()
	rows := f.t.AllRows()
	f.s.Drop("c")
	if d := f.kept(); d != "" {
		return "released while held: " + d
	}
	f.t.Unhold()
	if d := f.kept(); d != "" {
		return "one of two holds let go: " + d
	}
	f.t.Unhold()
	if d := f.released(rows); d != "" {
		return "the last hold let go: " + d
	}
	return ""
}

func TestHeldTableKeepsItsRowsUntilTheLastUnhold(t *testing.T) {
	if d := checkHeldIsKept(t); d != "" {
		t.Error(d)
	}
}

// TestHeldTableKeepsItsRowsCatchesMutant seeds the release that ignores
// holds: the check must see it.
func TestHeldTableKeepsItsRowsCatchesMutant(t *testing.T) {
	defer SeedMutant("ignore-holds")()
	if checkHeldIsKept(t) == "" {
		t.Error("a release of a table a reader holds passes the check")
	}
}

// TestPinWinsOverHold: a table a reader holds and another pinned keeps
// its rows past the last Unhold too.
func TestPinWinsOverHold(t *testing.T) {
	f := newReleaseFixture(t)
	f.t.Hold()
	f.t.Pin()
	f.s.Drop("c")
	f.t.Unhold()
	if d := f.kept(); d != "" {
		t.Error(d)
	}
}

// TestConcurrentUnholdsReleaseOnce: readers on several goroutines, as
// the partitions of an MPP machine take the run memo's holds, let go of
// a table the store released meanwhile; exactly the last one hands its
// cells back, once.
func TestConcurrentUnholdsReleaseOnce(t *testing.T) {
	f := newReleaseFixture(t)
	rows := f.t.AllRows()
	const readers = 8
	var held, done sync.WaitGroup
	held.Add(readers)
	done.Add(readers)
	release := make(chan struct{})
	for i := 0; i < readers; i++ {
		go func() {
			defer done.Done()
			f.t.Hold()
			held.Done()
			<-release
			f.t.Unhold()
		}()
	}
	held.Wait()
	f.s.Drop("c")
	if d := f.kept(); d != "" {
		t.Fatal("released while held: " + d)
	}
	close(release)
	done.Wait()
	if d := f.released(rows); d != "" {
		t.Error(d)
	}
}
