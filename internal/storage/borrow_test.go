package storage

import (
	"fmt"
	"testing"
)

// borrower binds as "in", and returns, a table that borrows the first of
// the fixture table's rows, as a checkpoint's clone borrows the table it
// copies (Clone): its partition slice is the run's, its row the lender's.
func (f *releaseFixture) borrower() *Table {
	b := NewTable("in", f.t.Schema, 1)
	b.OwnRows(&f.pool)
	b.Borrow(f.t)
	b.Parts[0] = append(f.pool.Part(1), f.t.Parts[0][0])
	f.s.Put("in", b)
	return b
}

// checkBorrowerHoldsItsLender displaces the lender while its borrower is
// bound: the lender must keep its rows, which the borrower reads, until
// the store releases the borrower, which hands them back.
func checkBorrowerHoldsItsLender(t *testing.T) string {
	f := newReleaseFixture(t)
	b := f.borrower()
	want := fmt.Sprint(b.AllRows())
	rows := f.t.AllRows()
	f.s.Put("c", NewTable("d", schema2(), 1))
	if d := f.kept(); d != "" {
		return "displaced while its borrower is bound: " + d
	}
	if got := fmt.Sprint(b.AllRows()); got != want {
		return "the borrower reads " + got
	}
	f.s.Drop("in")
	if d := f.released(rows); d != "" {
		return "its borrower released: " + d
	}
	return ""
}

func TestBorrowerHoldsItsLender(t *testing.T) {
	if d := checkBorrowerHoldsItsLender(t); d != "" {
		t.Error(d)
	}
}

// TestBorrowerHoldsItsLenderCatchesMutant seeds the borrower that lets
// go of its lender when it is created: the check must see it.
func TestBorrowerHoldsItsLenderCatchesMutant(t *testing.T) {
	defer SeedMutant("early-lender")()
	if checkBorrowerHoldsItsLender(t) == "" {
		t.Error("a borrower that does not hold its lender passes the check")
	}
}

// checkBorrowerPinReachesItsLender pins a borrower, as a reader that
// keeps its rows does, and releases it and then its lender: the lender
// must keep its rows.
func checkBorrowerPinReachesItsLender(t *testing.T) string {
	f := newReleaseFixture(t)
	b := f.borrower()
	b.Pin()
	f.s.Drop("in")
	f.s.Drop("c")
	if d := f.kept(); d != "" {
		return "a reader pinned its borrower: " + d
	}
	return ""
}

func TestBorrowerPinReachesItsLender(t *testing.T) {
	if d := checkBorrowerPinReachesItsLender(t); d != "" {
		t.Error(d)
	}
}

// TestBorrowerPinReachesItsLenderCatchesMutant seeds the Pin that stops
// at the borrower: the check must see it.
func TestBorrowerPinReachesItsLenderCatchesMutant(t *testing.T) {
	defer SeedMutant("unpinned-lender")()
	if checkBorrowerPinReachesItsLender(t) == "" {
		t.Error("a borrower's pin that does not reach its lender passes the check")
	}
}

// TestAdoptedRowsGoBackWithTheAdopter: a table that adopts the fixture
// table's rows, as a keyed merge's output adopts its working table's,
// keeps them past the fixture table's release, which hands back nothing
// but its partition slice, and hands them back itself. A table a reader
// holds or pinned is pinned instead, and keeps its rows.
func TestAdoptedRowsGoBackWithTheAdopter(t *testing.T) {
	for _, c := range []struct {
		name           string
		read, readDone func(*Table)
		moved          bool
	}{
		{"unread", func(*Table) {}, func(*Table) {}, true},
		{"held", (*Table).Hold, (*Table).Unhold, false},
		{"pinned", (*Table).Pin, func(*Table) {}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newReleaseFixture(t)
			c.read(f.t)
			rows := f.t.AllRows()
			out := NewTable("m", f.t.Schema, 1)
			out.OwnRows(&f.pool)
			out.AdoptRows(f.t)
			out.Parts[0] = append(f.pool.Part(len(rows)), rows...)
			f.s.Put("m", out)
			f.s.Drop("c")
			c.readDone(f.t)
			if f.freed != 0 {
				t.Fatalf("%d cells freed with the adopted table", f.freed)
			}
			if got := fmt.Sprint(out.AllRows()); got != f.rows {
				t.Fatalf("the adopter reads %s, want %s", got, f.rows)
			}
			f.s.Drop("m")
			switch {
			case c.moved:
				if d := f.released(rows); d != "" {
					t.Errorf("the adopter released: %s", d)
				}
			case f.freed != 0 || fmt.Sprint(rows) != f.rows:
				t.Errorf("the adopter released: %d cells freed, rows read %v", f.freed, rows)
			}
		})
	}
}
