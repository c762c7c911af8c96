package exec

import (
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// FilterTableByKey builds a restriction of a result table to the rows
// whose key-column value appears in keep (a width-1 key table). The
// partition layout and per-partition row order are preserved — no
// rehashing — so downstream scans (including the MPP machine's aligned
// re-slicing) read the partitions exactly as the source produced them.
// Rows too short to carry the key column are dropped, matching the loop
// operator's treatment of ragged rows. The restriction shares t's schema
// and rows: it borrows them (storage.Table.Borrow), so t keeps its rows
// until the restriction is released, and for good once a reader pins
// the restriction. Its partition slices come from chunks (nil: none),
// the run's free list, and go back to it with the restriction.
func FilterTableByKey(t *storage.Table, key int, keep *sqltypes.KeyTable, name string, chunks *sqltypes.ChunkPool, stats *Stats) *storage.Table {
	out := storage.NewTable(name, t.Schema, t.NumParts())
	out.PK = t.PK
	out.DistCol = t.DistCol
	out.OwnRows(chunks)
	out.Borrow(t)
	for i, part := range t.Parts {
		if len(part) == 0 {
			continue
		}
		// Room for the whole partition and a sixteenth more, what the
		// keyed merge asks for its partitions: the restriction hands its
		// slices back before the merge runs, which takes them again.
		rows := chunks.Part(len(part) + len(part)/16)
		for _, r := range part {
			if stats != nil {
				stats.RowsScanned++
			}
			if key < len(r) && keep.Find(r[key:key+1]) >= 0 {
				rows = append(rows, r)
			}
		}
		out.Parts[i] = rows
	}
	return out
}
