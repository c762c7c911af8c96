package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dbspinner/internal/sqltypes"
)

func schema2() sqltypes.Schema {
	return sqltypes.Schema{{Name: "a", Type: sqltypes.Int}, {Name: "b", Type: sqltypes.Float}}
}

func row(a int64, b float64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(a), sqltypes.NewFloat(b)}
}

func TestTableBasics(t *testing.T) {
	tb := NewTable("t", schema2(), 4)
	if tb.NumParts() != 4 || tb.Len() != 0 {
		t.Fatal("empty table")
	}
	for i := 0; i < 100; i++ {
		tb.Insert(row(int64(i), float64(i)))
	}
	if tb.Len() != 100 {
		t.Errorf("Len = %d", tb.Len())
	}
	if len(tb.AllRows()) != 100 {
		t.Error("AllRows")
	}
	tb.Truncate()
	if tb.Len() != 0 {
		t.Error("Truncate")
	}
	// Zero partitions clamps to 1.
	if NewTable("x", schema2(), 0).NumParts() != 1 {
		t.Error("clamp parts")
	}
}

func TestHashDistribution(t *testing.T) {
	tb := NewTable("t", schema2(), 4)
	tb.DistCol = 0
	// Equal keys land in the same partition.
	tb.Insert(row(7, 1))
	tb.Insert(row(7, 2))
	tb.Insert(row(7, 3))
	found := -1
	for i, p := range tb.Parts {
		if len(p) > 0 {
			if found >= 0 {
				t.Fatal("equal keys split across partitions")
			}
			found = i
			if len(p) != 3 {
				t.Errorf("partition has %d rows", len(p))
			}
		}
	}
	// Int and Float keys with the same numeric value co-locate.
	tb2 := NewTable("t2", schema2(), 8)
	tb2.DistCol = 0
	tb2.Insert(sqltypes.Row{sqltypes.NewInt(42), sqltypes.NewFloat(0)})
	tb2.Insert(sqltypes.Row{sqltypes.NewFloat(42), sqltypes.NewFloat(0)})
	nonEmpty := 0
	for _, p := range tb2.Parts {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Error("42 and 42.0 should co-locate")
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	tb := NewTable("t", schema2(), 3)
	tb.DistCol = -1
	for i := 0; i < 9; i++ {
		tb.Insert(row(1, 1)) // identical rows still spread
	}
	for i, p := range tb.Parts {
		if len(p) != 3 {
			t.Errorf("partition %d has %d rows, want 3", i, len(p))
		}
	}
}

func TestHashSpreadProperty(t *testing.T) {
	// Many distinct keys should not all land in one partition.
	tb := NewTable("t", schema2(), 8)
	tb.DistCol = 0
	for i := 0; i < 1000; i++ {
		tb.Insert(row(int64(i), 0))
	}
	for i, p := range tb.Parts {
		if len(p) == 0 {
			t.Errorf("partition %d empty with 1000 keys", i)
		}
		if len(p) > 400 {
			t.Errorf("partition %d badly skewed: %d rows", i, len(p))
		}
	}
}

func TestClone(t *testing.T) {
	tb := NewTable("t", schema2(), 2)
	tb.PK = 0
	tb.Insert(row(1, 1))
	c := tb.Clone()
	c.Insert(row(2, 2))
	if tb.Len() != 1 || c.Len() != 2 {
		t.Error("clone should not share partition slices")
	}
	if c.PK != 0 {
		t.Error("clone should copy PK")
	}
}

// carved returns a table owning its rows, each carved from pool's chunks
// as exec.MaterializeContext carves them, with a copy of rows' values.
func carved(name string, pool *sqltypes.ChunkPool, rows ...sqltypes.Row) *Table {
	t := NewTable(name, schema2(), 1)
	var slab sqltypes.RowSlab
	slab.CarveFor(t.OwnRows(pool))
	for _, r := range rows {
		c := slab.Alloc(len(r))
		copy(c, r)
		t.Insert(c)
	}
	return t
}

func TestResultStore(t *testing.T) {
	s := NewResultStore()
	var pool sqltypes.ChunkPool
	var freed int64
	pool.Begin(&freed)
	a := carved("a", &pool, row(1, 1))
	s.Put("Working", a)
	if s.Get("working") != a {
		t.Error("case-insensitive get")
	}
	if s.Len() != 1 {
		t.Error("Len")
	}
	// Rename to a fresh name.
	if err := s.Rename("working", "cte"); err != nil {
		t.Fatal(err)
	}
	if s.Get("working") != nil || s.Get("CTE") != a {
		t.Error("rename moved wrong entries")
	}
	if a.Name != "cte" {
		t.Error("rename should update the table's name")
	}
	if freed != 0 {
		t.Error("no result was displaced")
	}
	// Rename over an existing entry frees it.
	b := carved("b", &pool, row(2, 2))
	s.Put("working", b)
	if err := s.Rename("working", "cte"); err != nil {
		t.Fatal(err)
	}
	if s.Get("cte") != b {
		t.Error("rename should displace old target")
	}
	if freed != 2 {
		t.Errorf("%d cells freed, want a's 2", freed)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after displacing rename", s.Len())
	}
	// Renaming a missing entry errors.
	if err := s.Rename("nope", "x"); err == nil {
		t.Error("rename of missing result should fail")
	}
	s.Drop("cte")
	if s.Len() != 0 {
		t.Error("Drop")
	}
}

func TestPartitionRoutingProperties(t *testing.T) {
	const parts = 7
	route := func(v sqltypes.Value) int {
		return sqltypes.PartitionOf(sqltypes.Row{v}, []int{0}, parts)
	}
	// Values that normalize to the same key route identically.
	f := func(i int32) bool {
		return route(sqltypes.NewInt(int64(i))) == route(sqltypes.NewFloat(float64(i)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("int/float routing agreement: %v", err)
	}
	// NULL keys always route to partition 0.
	if route(sqltypes.NullValue) != 0 {
		t.Error("NULL should route to partition 0")
	}
	// Table inserts agree with the shared routing function.
	tab := NewTable("t", sqltypes.Schema{{Name: "a", Type: sqltypes.Int}}, parts)
	tab.DistCol = 0
	for i := 0; i < 100; i++ {
		r := sqltypes.Row{sqltypes.NewInt(int64(i * 37))}
		if got, want := tab.partitionFor(r), route(r[0]); got != want {
			t.Fatalf("partitionFor(%d) = %d, Partition = %d", i*37, got, want)
		}
	}
}

// TestInsertBatchMatchesInsert: InsertBatch sizes each partition once,
// and must still lay rows out exactly as one Insert per row does — the
// same partitions, the same order within each, the same round-robin
// cursor for the next write — over random rows with NULL keys, keys of
// both numeric tags and rows too short for DistCol, at 1 to 4 partitions,
// hash- and round-robin-distributed, into empty and non-empty tables.
func TestInsertBatchMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	randomRows := func(n int, id *int64) []sqltypes.Row {
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			*id++
			var key sqltypes.Value
			switch rng.Intn(4) {
			case 0:
				key = sqltypes.NullValue
			case 1:
				key = sqltypes.NewFloat(float64(rng.Intn(20)))
			default:
				key = sqltypes.NewInt(int64(rng.Intn(20)))
			}
			rows[i] = sqltypes.Row{key, sqltypes.NewInt(*id)}
			if rng.Intn(10) == 0 {
				rows[i] = sqltypes.Row{} // too short for DistCol: round-robin
			}
		}
		return rows
	}
	for parts := 1; parts <= 4; parts++ {
		for _, dist := range []int{-1, 0} {
			for trial := 0; trial < 20; trial++ {
				one := NewTable("one", schema2(), parts)
				batch := NewTable("batch", schema2(), parts)
				one.DistCol, batch.DistCol = dist, dist
				var id int64
				for round := 0; round < 3; round++ {
					rows := randomRows(rng.Intn(60), &id)
					for _, r := range rows {
						one.Insert(r)
					}
					batch.InsertBatch(rows)
					for p := range one.Parts {
						if fmt.Sprint(one.Parts[p]) != fmt.Sprint(batch.Parts[p]) {
							t.Fatalf("parts %d, DistCol %d, trial %d, batch %d: partition %d is\n%v\nby InsertBatch, want\n%v",
								parts, dist, trial, round, p, batch.Parts[p], one.Parts[p])
						}
						for i := range one.Parts[p] {
							if len(one.Parts[p][i]) > 0 && &one.Parts[p][i][0] != &batch.Parts[p][i][0] {
								t.Fatalf("partition %d row %d is a copy, not the row inserted", p, i)
							}
						}
					}
					if one.rr != batch.rr {
						t.Fatalf("round-robin cursor %d after InsertBatch, %d after Insert", batch.rr, one.rr)
					}
				}
			}
		}
	}
}

// TestBoundTableIsFrozen: a table is writable until it is bound in a
// result store; from then on Insert, InsertBatch and Truncate panic,
// naming the slot it was last bound under. A clone is writable again.
func TestBoundTableIsFrozen(t *testing.T) {
	tb := NewTable("work", schema2(), 2)
	tb.Insert(row(1, 1))
	tb.InsertBatch([]sqltypes.Row{row(2, 2)})
	s := NewResultStore()
	s.Put("Intermediate#c", tb)

	mustPanic := func(op, slot string, f func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, op) || !strings.Contains(msg, fmt.Sprintf("%q", slot)) {
				t.Errorf("%s on a table bound as %s: recovered %q, want a panic naming both", op, slot, msg)
			}
		}()
		f()
	}
	mustPanic("Insert", "Intermediate#c", func() { tb.Insert(row(3, 3)) })
	mustPanic("InsertBatch", "Intermediate#c", func() { tb.InsertBatch(nil) })
	mustPanic("Truncate", "Intermediate#c", func() { tb.Truncate() })
	if err := s.Rename("Intermediate#c", "c"); err != nil {
		t.Fatal(err)
	}
	mustPanic("Insert", "c", func() { tb.Insert(row(3, 3)) })
	s.Drop("c")
	mustPanic("Insert", "c", func() { tb.Insert(row(3, 3)) }) // aliases may still hold it
	if tb.Len() != 2 {
		t.Errorf("the frozen table has %d rows, want 2", tb.Len())
	}

	cp := tb.Clone()
	cp.Insert(row(3, 3))
	cp.Truncate()
	if tb.Len() != 2 || cp.Len() != 0 {
		t.Errorf("after writing to the clone: %d rows in the original, %d in the clone", tb.Len(), cp.Len())
	}
}
