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
// The memo key is (table address, partition, key columns), and the
// address is a sufficient witness that the rows are the ones indexed:
// a table bound in the result store is frozen (storage.Table), base
// tables do not change while a statement runs, and an entry references
// its table, so the address cannot be reused while the entry lives. A
// slot whose content changes points at another table and misses.
//
// A nil *IndexCache is valid and builds every index it is asked for. A
// cache is safe for concurrent use; the indexes it hands out are shared
// and read-only.
type IndexCache struct {
	mu      sync.Mutex
	entries map[*storage.Table][]*indexEntry
}

type indexEntry struct {
	part int
	cols []int
	used bool // asked for since the last Sweep; guarded by IndexCache.mu

	once sync.Once
	x    *HashIndex
	err  error
}

// NewIndexCache returns an empty cache.
func NewIndexCache() *IndexCache {
	return &IndexCache{entries: make(map[*storage.Table][]*indexEntry)}
}

// Index returns the hash index of t's partition part (allParts: all of
// them) on keys, and whether this call built it. Only indexes whose keys
// are all bare columns are memoized; any other is built and not kept.
func (c *IndexCache) Index(t *storage.Table, part int, keys []*expr.Compiled) (x *HashIndex, built bool, err error) {
	build := func() (*HashIndex, error) {
		var rows []sqltypes.Row
		switch {
		case part != allParts:
			rows = t.Parts[part]
		case len(t.Parts) == 1:
			rows = t.Parts[0]
		default:
			rows = t.AllRows()
		}
		return BuildHashIndex(rows, keys)
	}
	var e *indexEntry
	if c != nil {
		e = c.entry(t, part, keys)
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

// entry returns the memo entry for the request, new or existing, marked
// used; nil when a key is not a bare column.
func (c *IndexCache) entry(t *storage.Table, part int, keys []*expr.Compiled) *indexEntry {
	cols := make([]int, len(keys))
	for i, k := range keys {
		if k.Col < 0 {
			return nil
		}
		cols[i] = k.Col
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[t] {
		if e.part == part && slices.Equal(e.cols, cols) {
			e.used = true
			return e
		}
	}
	e := &indexEntry{part: part, cols: cols, used: true}
	c.entries[t] = append(c.entries[t], e)
	return e
}

// Sweep drops the entries nobody asked for since the previous Sweep. The
// loop operator calls it at the back-edge, so an index survives exactly
// as long as every iteration uses it, and the tables of a finished
// iteration are held for at most one more.
func (c *IndexCache) Sweep() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for t, es := range c.entries {
		es = slices.DeleteFunc(es, func(e *indexEntry) bool {
			unused := !e.used
			e.used = false
			return unused
		})
		if len(es) == 0 {
			delete(c.entries, t)
		} else {
			c.entries[t] = es
		}
	}
}

// Clear drops every entry; the run-end cleanup calls it.
func (c *IndexCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
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
