package core

import (
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// keyIndex is a keyed merge's index of the table it last produced: each
// key of the table — an id of keys — to the positions carrying it. A
// key has more than one when the base term repeats it (no DISTINCT), and
// every such position is a row the merge replaces. The loop state holds
// it during a run, trusted only for indexOf (trusts); the run gives its
// storage back to the statement's RunState when it ends (releaseLoops).
type keyIndex struct {
	keys *sqltypes.KeyTable
	// head[id] is the newest position filed under key id, an index into
	// at; each position links to the one filed before it (-1: none).
	head []int32
	at   []keyPos
	// hit[id] is the merge (gen) whose working rows last named key id: a
	// working row naming a key its merge has already seen is a duplicate.
	hit []uint32
	gen uint32
	// inexact marks a table with an INT key beyond ±2^53. Key equality
	// is not transitive there (two such INTs differ, yet both equal the
	// FLOAT they round to), so whether a working row replaces a row
	// depends on which side is looked up in which, and only rebuilding
	// gives the merge's answer: such a table is never trusted.
	inexact bool
}

// keyPos is one filed position: a row of partition part, and the
// position filed before it under the same key.
type keyPos struct{ part, row, prev int32 }

// reset empties x for a table of about hint rows, over x's own storage.
func (x *keyIndex) reset(hint int) {
	if x.keys == nil {
		x.keys = sqltypes.NewKeyTable(1, hint)
	} else {
		x.keys.Reset(1, 0, hint)
	}
	x.head, x.at, x.hit = x.head[:0], x.at[:0], x.hit[:0]
	x.gen, x.inexact = 0, false
}

// file records that the row at position row of partition part carries
// key id (added: the key is new to x).
func (x *keyIndex) file(id int, added bool, part, row int) {
	if added {
		x.head = append(x.head, -1)
		x.hit = append(x.hit, x.gen)
	}
	x.at = append(x.at, keyPos{int32(part), int32(row), x.head[id]})
	x.head[id] = int32(len(x.at) - 1)
}

// fileRow files r, placed at position row of partition part, under its
// key r[key].
func (x *keyIndex) fileRow(r sqltypes.Row, key, part, row int) {
	if !exactKey(r[key]) {
		x.inexact = true
	}
	id, added := x.keys.Insert(r[key : key+1])
	x.file(id, added, part, row)
}

// nextMerge starts a patch: no key has been named by a working row yet.
func (x *keyIndex) nextMerge() {
	x.gen++
	if x.gen == 0 {
		clear(x.hit)
		x.gen = 1
	}
}

// exactKey reports whether v is a key whose equality is transitive with
// every other key's: anything but an INT beyond ±2^53 (keyIndex.inexact).
func exactKey(v sqltypes.Value) bool {
	return v.T != sqltypes.Int || (v.I >= -1<<53 && v.I <= 1<<53)
}

// trusts reports whether l's key index describes cte, the table a keyed
// merge is about to merge into: the table that merge last produced, and
// no other — not a checkpoint's clone of it, not the table a new loop or
// a new run starts from. A variable only so the tests can seed the
// mutant that trusts the index without looking at the table; nothing
// else assigns it.
var trusts = func(l *LoopState, cte *storage.Table) bool {
	return l.index != nil && l.indexOf == cte
}

// freshIndex returns l's key index emptied for about hint rows: its own
// storage, the storage a run of the statement gave back, or new.
func (l *LoopState) freshIndex(ctx *Context, hint int) *keyIndex {
	if l.index == nil {
		l.index = ctx.runState().merges.Take()
		if l.index == nil {
			l.index = new(keyIndex)
		}
	}
	l.index.reset(hint)
	return l.index
}

// giveBackIndex hands l's key index to st for the statement's next run
// and forgets it; what it filed does not outlive the run.
func (l *LoopState) giveBackIndex(st *RunState) {
	if x := l.index; x != nil {
		st.merges.Give(x)
	}
	l.index, l.indexOf = nil, nil
}
