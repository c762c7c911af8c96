package exec

import (
	"slices"
	"sync"

	"dbspinner/internal/expr"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// allParts asks IndexCache.Index for one index over every partition of
// a table, in scan order (what the volcano join builds; the MPP machine
// asks per partition).
const allParts = -1

// IndexCache memoizes, for the run of one query, the hash indexes that
// joins build over tables they read directly, so a loop body indexes a
// table it does not change once instead of once per iteration.
//
// The memo key is (table address, partition, key columns, filter), and
// the address is a sufficient witness that the rows are the ones indexed:
// a table bound in the result store is frozen (storage.Table), base
// tables do not change while a statement runs, and an entry references
// its table, so the address cannot be reused while the entry lives. A
// slot whose content changes points at another table and misses. The
// filter is the compiled predicate of a Filter directly over the build
// side's read, as the run's CompileCache gives it out: one pointer per
// plan node for the whole run, so a loop-invariant filtered read is
// indexed once per run too. Without a CompileCache every request brings
// a new predicate and misses.
//
// The cache also takes back the storage of indexes nobody reads any
// more — its own entries when Sweep drops them, and the indexes joins
// built for themselves alone once they close (Recycle) — and the next
// build, memoized or not, fills that storage again instead of
// allocating: a loop that replaces a table every iteration indexes each
// new one in the memory of an index of a table it replaced before. That
// storage is the statement's (Leftovers): when a run ends its entries go
// — the next run may read a base table DML changed in place under the
// same address — and their indexes join the spares the statement's next
// run builds into.
//
// A nil *IndexCache is valid, builds every index it is asked for and
// keeps nothing. A cache is safe for concurrent use; the indexes it
// hands out are shared and read-only.
type IndexCache struct {
	mu      sync.Mutex
	entries map[*storage.Table][]*indexEntry
	spare   *Spares[*HashIndex] // indexes let go: the statement's (Leftovers)
}

type indexEntry struct {
	part   int
	cols   []int
	filter *expr.Compiled
	used   bool // asked for since the last Sweep; guarded by IndexCache.mu

	once sync.Once
	x    *HashIndex
	err  error
}

// NewIndexCache returns an empty cache that keeps its spares to itself.
func NewIndexCache() *IndexCache {
	return newIndexCache(new(Spares[*HashIndex]))
}

func newIndexCache(spare *Spares[*HashIndex]) *IndexCache {
	return &IndexCache{entries: make(map[*storage.Table][]*indexEntry), spare: spare}
}

// Index returns the hash index on keys of the rows of t's partition part
// (allParts: all of them) that pass filter (nil: every row), and whether
// this call built it. Only indexes whose keys are all bare columns are
// memoized; any other is built and not kept. An index holds t's rows, and
// may hold a partition slice of it, so t is pinned (storage.Table.Pin).
func (c *IndexCache) Index(t *storage.Table, part int, keys []*expr.Compiled, filter *expr.Compiled) (x *HashIndex, built bool, err error) {
	t.Pin()
	build := func() (*HashIndex, error) {
		x := c.spareIndex()
		rows, owned, err := indexRows(x.rowStorage(), t, part, filter)
		if err != nil {
			return nil, err
		}
		if x, err = buildHashIndex(x, rows, keys); err == nil && owned {
			x.rowBuf = rows
		}
		return x, err
	}
	var e *indexEntry
	if c != nil {
		e = c.entry(t, part, keys, filter)
	}
	if e == nil {
		x, err = build()
		return x, true, err
	}
	e.once.Do(func() {
		e.x, e.err = build()
		built = true
	})
	return e.x, built, e.err
}

// indexRows returns the rows of t's partition part (allParts: all of
// them, in scan order) that pass filter (nil: every row), and whether
// they are in buf's storage, which a gathered or filtered read fills
// from its start (nil: a new slice). Unfiltered over one partition, they
// are the partition itself. Filtered, one pass marks the rows that pass
// in a bitset and the slice is cut to their count: the build side of a
// selective filter costs a bit per row read, not the growing slice of a
// drain.
func indexRows(buf []sqltypes.Row, t *storage.Table, part int, filter *expr.Compiled) (rows []sqltypes.Row, inBuf bool, err error) {
	parts := t.Parts
	if part != allParts {
		parts = parts[part : part+1]
	}
	if filter == nil && len(parts) == 1 {
		return parts[0], false, nil
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if filter == nil {
		rows = sized(buf, n)
		for _, p := range parts {
			rows = append(rows, p...)
		}
		return rows, true, nil
	}
	pass := make([]uint64, (n+63)/64)
	i, count := 0, 0
	for _, p := range parts {
		for _, r := range p {
			ok, err := filter.Holds(r)
			if err != nil {
				return nil, false, err
			}
			if ok {
				pass[i/64] |= 1 << (i % 64)
				count++
			}
			i++
		}
	}
	rows = sized(buf, count)
	i = 0
	for _, p := range parts {
		for _, r := range p {
			if pass[i/64]&(1<<(i%64)) != 0 {
				rows = append(rows, r)
			}
			i++
		}
	}
	return rows, true, nil
}

// sized returns buf emptied, or a new slice if buf cannot hold n rows.
func sized(buf []sqltypes.Row, n int) []sqltypes.Row {
	if cap(buf) < n {
		return make([]sqltypes.Row, 0, n)
	}
	return buf[:0]
}

// entry returns the memo entry for the request, new or existing, marked
// used; nil when a key is not a bare column.
func (c *IndexCache) entry(t *storage.Table, part int, keys []*expr.Compiled, filter *expr.Compiled) *indexEntry {
	if !memoizable(keys) {
		return nil
	}
	cols := make([]int, len(keys))
	for i, k := range keys {
		cols[i] = k.Col
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[t] {
		if e.part == part && e.filter == filter && slices.Equal(e.cols, cols) {
			e.used = true
			return e
		}
	}
	e := &indexEntry{part: part, cols: cols, filter: filter, used: true}
	c.entries[t] = append(c.entries[t], e)
	return e
}

// memoizable reports whether an index on keys is kept: all of them are
// bare columns. An index on any other keys is its requester's alone.
func memoizable(keys []*expr.Compiled) bool {
	for _, k := range keys {
		if k.Col < 0 {
			return false
		}
	}
	return true
}

// Sweep drops the entries nobody asked for since the previous Sweep, and
// takes back their indexes' storage. The loop operator calls it at the
// back-edge, between steps, when no join holds an index open: so an
// index survives exactly as long as every iteration uses it, the tables
// of a finished iteration are held for at most one more, and nobody
// reads a dropped index again. Spares no build took since the previous
// Sweep go too.
func (c *IndexCache) Sweep() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spare.Sweep()
	for t, es := range c.entries {
		es = slices.DeleteFunc(es, func(e *indexEntry) bool {
			unused := !e.used
			e.used = false
			if unused && e.err == nil {
				c.Recycle(e.x)
			}
			return unused
		})
		if len(es) == 0 {
			delete(c.entries, t)
		} else {
			c.entries[t] = es
		}
	}
}

// Clear drops every entry and every index held for reuse.
func (c *IndexCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.spare.Clear()
}

// end ends the run the cache belongs to: every entry goes, since the
// next run may read a table changed in place under the same address.
// After a clean run their indexes join the spares and the spares are
// handed back (Spares.HandBack); after any other, nothing is kept.
func (c *IndexCache) end(clean bool) {
	if c == nil || !clean {
		c.Clear()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, es := range c.entries {
		for _, e := range es {
			if e.err == nil {
				c.Recycle(e.x)
			}
		}
	}
	clear(c.entries)
	c.spare.HandBack()
}

// Recycle takes back an index its one holder is done with — one that
// holder built for itself, never one the cache handed out as an entry —
// for the next build to fill again. Nobody may probe it or read its Rows
// afterwards; the rows it gathered are let go now, so that they do not
// outlive their tables. A nil cache or index is a no-op.
func (c *IndexCache) Recycle(x *HashIndex) {
	if c != nil && x != nil {
		clear(x.rowBuf)
		c.spare.Give(x)
	}
}

// spareIndex returns an index that was let go, for a build to fill
// again, or nil.
func (c *IndexCache) spareIndex() *HashIndex {
	if c == nil {
		return nil
	}
	return c.spare.Take()
}

// rowStorage returns the row slice x owns, empty, for a build to gather
// its rows into; nil for a nil x.
func (x *HashIndex) rowStorage() []sqltypes.Row {
	if x == nil {
		return nil
	}
	return x.rowBuf[:0]
}

// Len returns the number of indexes held.
func (c *IndexCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, es := range c.entries {
		n += len(es)
	}
	return n
}
