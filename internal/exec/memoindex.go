package exec

import (
	"slices"
	"sync"

	"dbspinner/internal/expr"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// allParts asks Memo.Index for one index over every partition of a
// table, in scan order (what the volcano join builds; the MPP machine
// asks per partition).
const allParts = -1

type indexEntry struct {
	t      *storage.Table
	part   int
	cols   []int
	filter *expr.Compiled
	used   bool // asked for since the last Sweep; guarded by Memo.mu
	seq    int  // how many entries the memo made before this one (Mark)

	once sync.Once
	x    *HashIndex
	err  error
}

// Index returns the hash index on keys of the rows of t's partition part
// (allParts: all of them) that pass filter (nil: every row), and whether
// this call built it. Only indexes whose keys are all bare columns are
// memoized; any other is built and not kept. An index holds t's rows, and
// may hold a partition slice of it: its memo entry holds t until the
// entry goes (storage.Table.Hold), and an index the memo does not keep
// pins t (storage.Table.Pin).
// Every build, memoized or not, fills the storage of an index let go
// (Recycle) if the memo holds one, one large enough for the rows read
// when it holds such: a loop that replaces a table every iteration
// indexes each new one in the memory of an index of a table it replaced
// before.
func (m *Memo) Index(t *storage.Table, part int, keys []*expr.Compiled, filter *expr.Compiled) (x *HashIndex, built bool, err error) {
	build := func() (*HashIndex, error) {
		n := t.Len()
		if part != allParts {
			n = len(t.Parts[part])
		}
		x := m.spareIndex(n)
		rows, owned, err := m.indexRows(x.rowStorage(), t, part, filter)
		if err != nil {
			return nil, err
		}
		if x, err = buildHashIndex(x, rows, keys); err == nil && owned {
			x.rowBuf = rows
		}
		return x, err
	}
	var e *indexEntry
	if m != nil {
		e = m.entry(t, part, keys, filter)
	}
	if e == nil {
		t.Pin()
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
// are the partition itself. Filtered, the filter selects expr.BatchRows
// rows at a time (SelectBatch) into a selection scratch (takeSelect), and
// buf takes the rows kept, sized to their count: the build side of a
// selective filter costs no growing slice of a drain. The error is the
// first row's the filter fails on, in scan order.
func (m *Memo) indexRows(buf []sqltypes.Row, t *storage.Table, part int, filter *expr.Compiled) (rows []sqltypes.Row, inBuf bool, err error) {
	parts := t.Parts
	if part != allParts {
		parts = parts[part : part+1]
	}
	if filter == nil && len(parts) == 1 {
		return parts[0], false, nil
	}
	if filter == nil {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		rows = sized(buf, n)
		for _, p := range parts {
			rows = append(rows, p...)
		}
		return rows, true, nil
	}
	sel := m.takeSelect(part)
	kept, used := sel.kept[:0], 0 // used: how far kept's storage holds rows
	defer func() {
		clear(kept[:used])
		sel.kept = kept[:0]
		m.giveSelect(part, sel)
	}()
	for _, p := range parts {
		for len(p) > 0 {
			chunk := p[:min(len(p), expr.BatchRows)]
			p = p[len(chunk):]
			if test.skipChunkRow && len(p) > 0 {
				p = p[1:]
			}
			start := len(kept)
			kept = append(kept, chunk...)
			used = max(used, len(kept))
			held, err := filter.SelectBatch(&sel.b, kept[start:])
			if err != nil {
				return nil, false, err
			}
			kept = kept[:start+len(held)]
		}
	}
	return append(sized(buf, len(kept)), kept...), true, nil
}

// selectScratch is a filtered index build's storage: the rows it kept,
// and the vectors its filter selects a batch in. Between builds it holds
// no row.
type selectScratch struct {
	kept []sqltypes.Row
	b    expr.Batch
}

// takeSelect takes the scratch of a build over partition part (allParts:
// all of them) from the statement's leftovers, or makes one; without a
// memo (a DML statement's read, which keeps no leftovers), from
// selectPool.
func (m *Memo) takeSelect(part int) *selectScratch {
	if m == nil {
		return selectPool.Get().(*selectScratch)
	}
	if s := m.left.selects.take(part + 1); s != nil {
		return s
	}
	return new(selectScratch)
}

// giveSelect gives s back to where takeSelect took it from, as
// partition part's.
func (m *Memo) giveSelect(part int, s *selectScratch) {
	if m == nil {
		selectPool.Put(s)
		return
	}
	m.left.selects.give(part+1, s)
}

// selectPool holds the select scratch of builds without a memo.
var selectPool = sync.Pool{New: func() any { return new(selectScratch) }}

// sized returns buf emptied, or a new slice if buf cannot hold n rows.
func sized(buf []sqltypes.Row, n int) []sqltypes.Row {
	if cap(buf) < n {
		return make([]sqltypes.Row, 0, n)
	}
	return buf[:0]
}

// entry returns the memo entry for the request, new or existing, marked
// used; nil when a key is not a bare column. A new entry holds t.
func (m *Memo) entry(t *storage.Table, part int, keys []*expr.Compiled, filter *expr.Compiled) *indexEntry {
	if !memoizable(keys) {
		return nil
	}
	cols := make([]int, len(keys))
	for i, k := range keys {
		cols[i] = k.Col
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.indexes {
		if e.t == t && e.part == part && e.filter == filter && slices.Equal(e.cols, cols) {
			e.used = true
			return e
		}
	}
	e := &indexEntry{t: t, part: part, cols: cols, filter: filter, used: true, seq: m.made}
	m.made++
	m.indexes = append(m.indexes, e)
	if !test.unheldEntries {
		t.Hold()
	}
	return e
}

// drop lets go of e: its index joins the spares when recycle is set and
// its build did not fail, and it lets go of its table.
func (m *Memo) drop(e *indexEntry, recycle bool) {
	if recycle && e.err == nil {
		m.Recycle(e.x)
	}
	if !test.unheldEntries {
		e.t.Unhold()
	}
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

// Recycle takes back an index its one holder is done with — one that
// holder built for itself, never one the memo handed out as an entry —
// for the next build to fill again. Nobody may probe it or read its Rows
// afterwards; the rows it gathered are let go now, so that they do not
// outlive their tables. A nil memo or index is a no-op.
func (m *Memo) Recycle(x *HashIndex) {
	if m != nil && x != nil {
		clear(x.rowBuf)
		m.left.indexes.Give(x)
	}
}

// spareIndex returns an index that was let go, for a build of at most n
// rows to fill again, or nil: one whose storage holds n rows if there is
// one (buildHashIndex), the newest otherwise. Which spares a loop's
// builds find depends on the order Sweep and end give them back in, so
// taking the newest alone would hand a large build a small index, and
// its storage to a small one, at random.
func (m *Memo) spareIndex(n int) *HashIndex {
	if m == nil {
		return nil
	}
	if x, ok := m.left.indexes.TakeFit(func(x *HashIndex) bool { return cap(x.links) >= 3*n }); ok {
		return x
	}
	return m.left.indexes.Take()
}

// rowStorage returns the row slice x owns, empty, for a build to gather
// its rows into; nil for a nil x.
func (x *HashIndex) rowStorage() []sqltypes.Row {
	if x == nil {
		return nil
	}
	return x.rowBuf[:0]
}
