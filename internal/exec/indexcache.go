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
// A nil *IndexCache is valid and builds every index it is asked for. A
// cache is safe for concurrent use; the indexes it hands out are shared
// and read-only.
type IndexCache struct {
	mu      sync.Mutex
	entries map[*storage.Table][]*indexEntry
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

// NewIndexCache returns an empty cache.
func NewIndexCache() *IndexCache {
	return &IndexCache{entries: make(map[*storage.Table][]*indexEntry)}
}

// Index returns the hash index on keys of the rows of t's partition part
// (allParts: all of them) that pass filter (nil: every row), and whether
// this call built it. Only indexes whose keys are all bare columns are
// memoized; any other is built and not kept.
func (c *IndexCache) Index(t *storage.Table, part int, keys []*expr.Compiled, filter *expr.Compiled) (x *HashIndex, built bool, err error) {
	build := func() (*HashIndex, error) {
		rows, err := indexRows(t, part, filter)
		if err != nil {
			return nil, err
		}
		return BuildHashIndex(rows, keys)
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
// them, in scan order) that pass filter (nil: every row). Unfiltered,
// they are the partition itself. Filtered, one pass marks the rows that
// pass in a bitset and the slice is cut to their count: the build side
// of a selective filter costs a bit per row read, not the growing slice
// of a drain.
func indexRows(t *storage.Table, part int, filter *expr.Compiled) ([]sqltypes.Row, error) {
	parts := t.Parts
	if part != allParts {
		parts = parts[part : part+1]
	}
	if filter == nil {
		if len(parts) == 1 {
			return parts[0], nil
		}
		return t.AllRows(), nil
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	pass := make([]uint64, (n+63)/64)
	i, count := 0, 0
	for _, p := range parts {
		for _, r := range p {
			ok, err := filter.Holds(r)
			if err != nil {
				return nil, err
			}
			if ok {
				pass[i/64] |= 1 << (i % 64)
				count++
			}
			i++
		}
	}
	rows := make([]sqltypes.Row, 0, count)
	i = 0
	for _, p := range parts {
		for _, r := range p {
			if pass[i/64]&(1<<(i%64)) != 0 {
				rows = append(rows, r)
			}
			i++
		}
	}
	return rows, nil
}

// entry returns the memo entry for the request, new or existing, marked
// used; nil when a key is not a bare column.
func (c *IndexCache) entry(t *storage.Table, part int, keys []*expr.Compiled, filter *expr.Compiled) *indexEntry {
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
		if e.part == part && e.filter == filter && slices.Equal(e.cols, cols) {
			e.used = true
			return e
		}
	}
	e := &indexEntry{part: part, cols: cols, filter: filter, used: true}
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
