package exec

import (
	"container/heap"
	"sort"

	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// topNOp keeps the best N+Offset rows of the sorted order using a
// bounded heap instead of sorting the whole input, then emits rows
// Offset..Offset+N of the final order. Ties are broken by arrival
// order, so the output matches what the stable full sort would
// produce.
type topNOp struct {
	input  Operator
	keys   []plan.SortKey
	n      int64
	offset int64

	out []sqltypes.Row
	pos int
}

type seqRow struct {
	row sqltypes.Row
	seq int64
}

// rowHeap is a max-heap under (sort order, arrival order): the root is
// the worst retained row, evicted when a strictly better one arrives.
type rowHeap struct {
	rows []seqRow
	keys []plan.SortKey
}

func (h *rowHeap) Len() int { return len(h.rows) }

func (h *rowHeap) Less(i, j int) bool {
	// Max-heap: "less" means sorts-after.
	return seqBefore(h.keys, h.rows[j], h.rows[i])
}

func (h *rowHeap) Swap(i, j int) { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }

func (h *rowHeap) Push(x interface{}) { h.rows = append(h.rows, x.(seqRow)) }

func (h *rowHeap) Pop() interface{} {
	last := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return last
}

// sortsBefore reports whether row a strictly precedes row b under the
// keys.
func sortsBefore(keys []plan.SortKey, a, b sqltypes.Row) (before, tie bool) {
	for _, k := range keys {
		c := sqltypes.Compare(a[k.Col], b[k.Col])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0, false
		}
		return c < 0, false
	}
	return false, true
}

// seqBefore is the total order (keys, then arrival sequence).
func seqBefore(keys []plan.SortKey, a, b seqRow) bool {
	before, tie := sortsBefore(keys, a.row, b.row)
	if tie {
		return a.seq < b.seq
	}
	return before
}

func (t *topNOp) Open() error {
	if err := t.input.Open(); err != nil {
		return err
	}
	defer t.input.Close()
	keep := t.n + t.offset
	h := &rowHeap{keys: t.keys}
	seq := int64(0)
	for {
		r, err := t.input.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		sr := seqRow{row: r, seq: seq}
		seq++
		if int64(h.Len()) < keep {
			heap.Push(h, sr)
			continue
		}
		if keep > 0 && seqBefore(t.keys, sr, h.rows[0]) {
			h.rows[0] = sr
			heap.Fix(h, 0)
		}
	}
	rows := h.rows
	keys := t.keys
	sort.Slice(rows, func(i, j int) bool { return seqBefore(keys, rows[i], rows[j]) })
	if t.offset < int64(len(rows)) {
		t.out = make([]sqltypes.Row, 0, int64(len(rows))-t.offset)
		for _, sr := range rows[t.offset:] {
			t.out = append(t.out, sr.row)
		}
	} else {
		t.out = nil
	}
	t.pos = 0
	return nil
}

func (t *topNOp) Next() (sqltypes.Row, error) {
	if t.pos >= len(t.out) {
		return nil, nil
	}
	r := t.out[t.pos]
	t.pos++
	return r, nil
}

func (t *topNOp) Close() error {
	t.out = nil
	return nil
}
