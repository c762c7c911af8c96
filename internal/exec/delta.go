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
// operator's treatment of ragged rows. The restriction holds t's rows,
// so t is pinned (storage.Table.Pin).
func FilterTableByKey(t *storage.Table, key int, keep *sqltypes.KeyTable, name string, stats *Stats) *storage.Table {
	t.Pin()
	out := storage.NewTable(name, t.Schema.Clone(), t.NumParts())
	out.PK = t.PK
	out.DistCol = t.DistCol
	for i, part := range t.Parts {
		var rows []sqltypes.Row
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
