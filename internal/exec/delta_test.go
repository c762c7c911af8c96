package exec

import (
	"fmt"
	"testing"

	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

func TestFilterTableByKey(t *testing.T) {
	schema := sqltypes.Schema{
		{Name: "k", Type: sqltypes.Int},
		{Name: "v", Type: sqltypes.Int},
	}
	src := storage.NewTable("c", schema, 3)
	src.PK = 0
	src.DistCol = 0
	src.Parts[0] = []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(10)},
		{sqltypes.NewInt(4), sqltypes.NewInt(40)},
	}
	// A ragged row with no key column must be dropped.
	src.Parts[1] = []sqltypes.Row{
		{sqltypes.NewInt(2), sqltypes.NewInt(20)},
		{},
	}
	src.Parts[2] = []sqltypes.Row{
		{sqltypes.NewInt(3), sqltypes.NewInt(30)},
	}

	keep := sqltypes.NewKeyTable(1, 0)
	keep.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	keep.Insert(sqltypes.Row{sqltypes.NewInt(3)})
	stats := &Stats{}
	out := FilterTableByKey(src, 0, keep, "DeltaIn#c", nil, stats)

	if out.Name != "DeltaIn#c" {
		t.Errorf("name = %q", out.Name)
	}
	if out.NumParts() != 3 {
		t.Errorf("parts = %d, want 3 (layout must be preserved, no rehash)", out.NumParts())
	}
	if &out.Schema[0] != &src.Schema[0] {
		t.Error("the restriction copied the schema instead of sharing it")
	}
	if out.PK != 0 || out.DistCol != 0 {
		t.Errorf("PK/DistCol not carried over: %d/%d", out.PK, out.DistCol)
	}
	// Kept rows stay in their source partitions.
	if len(out.Parts[0]) != 1 || out.Parts[0][0][0].Int() != 1 {
		t.Errorf("part 0 = %v", out.Parts[0])
	}
	if len(out.Parts[1]) != 0 {
		t.Errorf("part 1 = %v (key 2 not in keep, ragged row dropped)", out.Parts[1])
	}
	if len(out.Parts[2]) != 1 || out.Parts[2][0][0].Int() != 3 {
		t.Errorf("part 2 = %v", out.Parts[2])
	}
	if stats.RowsScanned != 5 {
		t.Errorf("RowsScanned = %d, want 5", stats.RowsScanned)
	}
	// The source table is untouched.
	if src.Len() != 5 {
		t.Errorf("source mutated: len = %d", src.Len())
	}
}

// TestRestrictionBorrowsItsSource: a restriction borrows the rows of the
// table it restricts, so that table, its slot rebound while the
// restriction is, keeps them until the restriction is released, and for
// good once a reader that keeps the restriction's rows pinned it. Chunks
// handed back are poisoned, so rows read early would show.
func TestRestrictionBorrowsItsSource(t *testing.T) {
	defer sqltypes.Poison()()
	schema := sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}
	var pool sqltypes.ChunkPool
	src := storage.NewTable("c", schema, 2)
	src.DistCol = 0
	var slab sqltypes.RowSlab
	slab.CarveFor(src.OwnRows(&pool))
	for k := int64(1); k <= 4; k++ {
		r := slab.Alloc(2)
		r[0], r[1] = sqltypes.NewInt(k), sqltypes.NewInt(10*k)
		src.Insert(r)
	}
	store := storage.NewResultStore()
	store.Put("c", src)
	keep := sqltypes.NewKeyTable(1, 0)
	keep.Insert(sqltypes.Row{sqltypes.NewInt(1)})
	keep.Insert(sqltypes.Row{sqltypes.NewInt(3)})
	in := FilterTableByKey(src, 0, keep, "In", &pool, nil)
	store.Put("In", in)
	rows := in.AllRows()
	want := fmt.Sprint(rows)
	store.Put("c", storage.NewTable("c", schema, 2))
	if got := fmt.Sprint(in.AllRows()); got != want {
		t.Fatalf("with its source's slot rebound the restriction reads %s, want %s", got, want)
	}
	in.Pin()
	store.Drop("In")
	if got := fmt.Sprint(rows); got != want {
		t.Errorf("the rows a reader of the restriction kept read %s, want %s", got, want)
	}
}
