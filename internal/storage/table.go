// Package storage provides the in-memory row store: hash-partitioned
// base tables (the shared-nothing layout of the simulated MPP engine)
// and the intermediate-result lookup table that the rename operator
// manipulates (paper §VI-A).
package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dbspinner/internal/faultinject"
	"dbspinner/internal/sqltypes"
)

// Table is an in-memory relation, split into hash partitions to model a
// shared-nothing layout. Intermediate results use the same
// representation so the rename operator can swap them for base CTE
// results without copying.
//
// A table is mutable until it is bound in a ResultStore and frozen from
// then on: Insert, InsertBatch and Truncate panic. Scans that hold its
// partition slices, aliases of it under other slots, checkpoints and the
// hash indexes of the run memo (exec.Memo) all rely on that. Base tables
// in the catalog are never frozen; they change only between statements.
//
// A table may own its rows (OwnRows), which go back to their run once
// no slot binds it and no reader holds it (Hold), unless a reader that
// keeps rows pinned it (Pin). A table whose rows are another's borrows
// them (Borrow), as a clone does: it holds that table until it is
// released itself, and a pin of it pins that table.
type Table struct {
	Name   string
	Schema sqltypes.Schema
	// PK is the primary-key column index, or -1. The merge path of
	// Algorithm 1 requires a unique row identifier; if the user
	// declared none the engine assigns the first column of the CTE.
	PK int
	// DistCol is the hash-distribution column, or -1 for round-robin.
	DistCol int
	// Parts holds the rows of each partition.
	Parts [][]sqltypes.Row

	rr int // round-robin cursor for DistCol == -1
	// frozenAs is the result-store slot the table was last bound under;
	// empty while the table may still be written.
	frozenAs string
	// arena holds the chunks the rows were carved from when the table
	// owns them (OwnRows); pinned records that a reader kept some.
	arena  sqltypes.Arena
	pinned atomic.Bool
	// holds counts the readers that hold t (Hold); pending records that
	// the store released t while one did, so the last Unhold hands its
	// rows back. hold guards both.
	hold    sync.Mutex
	holds   int
	pending bool
	// lender is the table t borrows its rows from (Borrow), nil if none.
	lender *Table
}

// NewTable creates an empty table with the given partition count
// (minimum 1).
func NewTable(name string, schema sqltypes.Schema, parts int) *Table {
	if parts < 1 {
		parts = 1
	}
	return &Table{
		Name:    name,
		Schema:  schema,
		PK:      -1,
		DistCol: -1,
		Parts:   make([][]sqltypes.Row, parts),
	}
}

// NumParts returns the partition count.
func (t *Table) NumParts() int { return len(t.Parts) }

// Len returns the total row count across partitions.
func (t *Table) Len() int {
	n := 0
	for _, p := range t.Parts {
		n += len(p)
	}
	return n
}

// partitionFor picks the destination partition of a row. Hash
// distribution routes through sqltypes.PartitionOf — the routing
// function shared with the MPP exchange operators, here on one column —
// so the static partition-property analysis (internal/distprop) can
// reason about storage layout and shuffle destinations with a single
// hash.
func (t *Table) partitionFor(r sqltypes.Row) int {
	if len(t.Parts) == 1 {
		return 0
	}
	if t.DistCol >= 0 && t.DistCol < len(r) {
		col := [1]int{t.DistCol}
		return sqltypes.PartitionOf(r, col[:], len(t.Parts))
	}
	p := t.rr
	t.rr = (t.rr + 1) % len(t.Parts)
	return p
}

// mustBeWritable panics on a write to a frozen table: only a bug writes
// to a result other readers already share.
func (t *Table) mustBeWritable(op string) {
	if t.frozenAs != "" {
		panic(fmt.Sprintf("storage: %s on table %q, frozen since it was bound as intermediate result %q", op, t.Name, t.frozenAs))
	}
}

// firstRoom is the capacity a partition that has none gets on its first
// Insert: room for this many rows at once, instead of growing through 1,
// 2, 4 and 8. A step materializes most of its tables one row at a time
// and, without a size hint, into partitions that start empty. A table
// that owns its rows takes that room from its run's free list.
const firstRoom = 16

// Insert appends one row.
func (t *Table) Insert(r sqltypes.Row) { t.Place(r) }

// Place is Insert that says where the row went: its partition, and its
// position in that partition.
func (t *Table) Place(r sqltypes.Row) (part, pos int) {
	t.mustBeWritable("Insert")
	p := t.partitionFor(r)
	if cap(t.Parts[p]) == 0 {
		t.Parts[p] = t.arena.Part(firstRoom)
	}
	t.Parts[p] = append(t.Parts[p], r)
	return p, len(t.Parts[p]) - 1
}

// PlaceBatch is Insert of every row of rows, in order, routed in one pass
// over the batch (sqltypes.PartitionsOf): the partitions and their row
// order are what one Insert per row makes. A row too short for the
// distribution column, which Insert deals round-robin, makes the batch go
// a row at a time.
func (t *Table) PlaceBatch(rows []sqltypes.Row) {
	t.mustBeWritable("Insert")
	if len(t.Parts) == 1 || t.DistCol < 0 {
		for _, r := range rows {
			t.Place(r)
		}
		return
	}
	for _, r := range rows {
		if len(r) <= t.DistCol {
			for _, r := range rows {
				t.Place(r)
			}
			return
		}
	}
	var dst [256]int32
	col := [1]int{t.DistCol}
	for len(rows) > 0 {
		n := min(len(rows), len(dst))
		sqltypes.PartitionsOf(dst[:n], rows[:n], col[:], len(t.Parts))
		for i, r := range rows[:n] {
			p := dst[i]
			if cap(t.Parts[p]) == 0 {
				t.Parts[p] = t.arena.Part(firstRoom)
			}
			t.Parts[p] = append(t.Parts[p], r)
		}
		rows = rows[n:]
	}
}

// InsertBatch appends many rows: the partitions and their row order are
// exactly what one Insert per row produces. It routes every row once,
// counting rows per partition, grows each partition once to its exact
// size, then fills it, instead of growing each by doubling.
func (t *Table) InsertBatch(rows []sqltypes.Row) {
	t.mustBeWritable("InsertBatch")
	if len(t.Parts) == 1 {
		t.Parts[0] = append(slices.Grow(t.Parts[0], len(rows)), rows...)
		return
	}
	dest := make([]int32, len(rows))
	counts := make([]int, len(t.Parts))
	for i, r := range rows {
		p := t.partitionFor(r)
		dest[i] = int32(p)
		counts[p]++
	}
	for p, n := range counts {
		t.Parts[p] = slices.Grow(t.Parts[p], n)
	}
	for i, r := range rows {
		p := dest[i]
		t.Parts[p] = append(t.Parts[p], r)
	}
}

// AllRows returns every row (all partitions concatenated). The returned
// slice is freshly allocated; the rows themselves are shared.
func (t *Table) AllRows() []sqltypes.Row {
	out := make([]sqltypes.Row, 0, t.Len())
	for _, p := range t.Parts {
		out = append(out, p...)
	}
	return out
}

// Truncate removes all rows, keeping the schema and partitioning.
func (t *Table) Truncate() {
	t.mustBeWritable("Truncate")
	for i := range t.Parts {
		t.Parts[i] = nil
	}
	t.rr = 0
}

// OwnRows makes t own the rows a slab carves into the returned arena
// (sqltypes.RowSlab.CarveFor), and the partition slices it took from
// pool (sqltypes.ChunkPool.Part): they go back to pool when t is
// released. Every row t holds must come from there, from a table it
// adopted (AdoptRows) or borrows from (Borrow), or from no arena at all.
// With a nil pool it returns nil, and t owns nothing.
func (t *Table) OwnRows(pool *sqltypes.ChunkPool) *sqltypes.Arena {
	if pool == nil {
		return nil
	}
	t.arena = sqltypes.NewArena(pool)
	return &t.arena
}

// AdoptRows makes t, which owns its rows (OwnRows) but has carved none
// yet, own the rows of from too, every one of which t keeps: from's
// chunks move to t's arena, so they go back when t is released, and
// from hands back only its partition slices. When a reader holds from,
// or t owns nothing, from is pinned instead; a from whose rows never go
// back (Recycles) is left as it is. t may not be bound yet, and nothing
// may read either table concurrently.
func (t *Table) AdoptRows(from *Table) {
	if !from.Recycles() {
		return
	}
	from.hold.Lock()
	held := from.holds > 0
	from.hold.Unlock()
	if held || !t.arena.Adopt(&from.arena) {
		from.Pin()
	}
}

// Recycles reports whether t's rows go back to their run once t is
// released: it owns them and no reader pinned it, or it borrows them from
// a table whose rows do. Only such rows need copying by a table that keeps
// them past t's release.
func (t *Table) Recycles() bool {
	if t.lender != nil {
		return t.lender.Recycles()
	}
	return t.arena.Owned() && !t.keepsRows()
}

// keepsRows reports whether a reader pinned t.
func (t *Table) keepsRows() bool { return t.pinned.Load() && !test.ignorePins }

// Borrow makes t, whose rows are some of lender's, a borrower: it holds
// lender (Hold) until the store releases t, when the borrower's own
// holds are done, and a Pin of t pins lender too, since a reader that
// keeps t's rows keeps lender's. t must not be bound yet.
func (t *Table) Borrow(lender *Table) {
	lender.Hold()
	if test.earlyLender {
		lender.Unhold()
	}
	t.lender = lender
}

// Pin records that a reader keeps rows or partition slices of t past
// its step, so t's rows are never handed back, nor those of the table t
// borrows from (Borrow). It is safe for concurrent use.
func (t *Table) Pin() {
	t.pinned.Store(true)
	if t.lender != nil && !test.unpinnedLender {
		t.lender.Pin()
	}
}

// Hold records that a reader with a known end reads rows or partition
// slices of t until its Unhold: a release of t while any reader holds it
// is deferred to the last Unhold. A reader that keeps rows for the
// table's life pins it instead. It is safe for concurrent use.
func (t *Table) Hold() {
	t.hold.Lock()
	t.holds++
	t.hold.Unlock()
	outstanding.Add(1)
}

// Unhold ends one Hold. The last one hands t's rows back if the store
// released t meanwhile, unless a reader pinned it.
func (t *Table) Unhold() {
	t.hold.Lock()
	if t.holds == 0 {
		t.hold.Unlock()
		panic(fmt.Sprintf("storage: Unhold of table %q, which nothing holds", t.Name))
	}
	t.holds--
	free := t.holds == 0 && t.pending
	if free {
		t.pending = false
	}
	t.hold.Unlock()
	outstanding.Add(-1)
	if free {
		t.handBack()
	}
}

// handBack hands the rows of t, which no slot binds and no reader holds,
// back to its run and leaves t empty; a pinned t keeps its rows. A
// borrower lets go of its lender.
func (t *Table) handBack() {
	if t.arena.Owned() {
		pinned := t.keepsRows()
		t.arena.Release(t.Parts, int64(t.Len())*int64(len(t.Schema)), pinned)
		if !pinned {
			clear(t.Parts)
		}
	}
	if t.lender != nil && !test.earlyLender {
		t.lender.Unhold()
	}
}

// outstanding counts the holds not yet let go, over every table.
var outstanding atomic.Int64

// Clone returns a deep-enough copy: new partition slices sharing the
// row values (rows are treated as immutable once stored), so it borrows
// them (Borrow): it holds t until it is released itself — by the store
// once bound, by LetGo otherwise — and a pin of the copy pins t. The copy
// owns no rows, and is writable whether or not t is frozen.
func (t *Table) Clone() *Table {
	c := &Table{Name: t.Name, Schema: t.Schema.Clone(), PK: t.PK, DistCol: t.DistCol}
	c.Parts = make([][]sqltypes.Row, len(t.Parts))
	for i, p := range t.Parts {
		c.Parts[i] = append([]sqltypes.Row(nil), p...)
	}
	if !test.unpinnedClones {
		c.Borrow(t)
	}
	return c
}

// LetGo releases t, which no slot binds and none will, as the store
// releases a table it unbinds (ResultStore.release): a checkpoint lets go
// of its clones this way.
func (t *Table) LetGo() { t.release() }

// release hands t's rows back now or, while a reader holds t, marks it
// pending, and the last Unhold hands them back.
func (t *Table) release() {
	t.hold.Lock()
	held := t.holds > 0 && !test.ignoreHolds
	t.pending = held
	t.hold.Unlock()
	if !held {
		t.handBack()
	}
}

// SetFaults arms (or, with nil, disarms) fault injection on the
// store's mutation hooks. The engine arms it around one statement and
// disarms it after, so registries never leak across queries.
func (s *ResultStore) SetFaults(r *faultinject.Registry) {
	s.faults.Store(r)
}

// inject fires the storage mutation fault point when armed. It must
// run before the lock is taken: error-mode injection panics with
// a carrier the containment layer unwraps, and unwinding past a held
// mutex would deadlock the store.
func (s *ResultStore) inject() {
	if r := s.faults.Load(); r != nil {
		r.Mutation(faultinject.PointStorage)
	}
}

// ResultStore is the execution engine's lookup table for intermediate
// results (paper §VI-A): a name to (schema, rows) map. The rename
// operator re-points a name at another result and releases whatever the
// destination name previously referenced. The store is safe for
// concurrent use.
//
// Binding freezes: a table handed to Put, or re-bound by Rename, must
// not be written again (see Table). Every step therefore builds its
// output in a fresh table and binds it last, and a slot changes content
// only by pointing at a different table — which is what lets a table's
// address stand for its content for as long as the table is reachable.
// A table Put, Rename or Drop unbinds is released (release).
type ResultStore struct {
	// mu guards the name-to-table map. A query's steps run one at a time,
	// but within a step the MPP machine's partition workers may read the
	// store concurrently.
	mu sync.RWMutex
	m  map[string]*Table
	// faults is the armed fault-injection registry (Config.
	// FaultSchedule): every mutation — put, drop, rename — fires the
	// storage point before taking the lock. An atomic pointer so the
	// disarmed path costs one load and a nil check.
	faults atomic.Pointer[faultinject.Registry]
}

// NewResultStore returns an empty store.
func NewResultStore() *ResultStore {
	return &ResultStore{m: make(map[string]*Table)}
}

// Put registers (or replaces) a named intermediate result and freezes
// the table. A table it displaces is released.
func (s *ResultStore) Put(name string, t *Table) {
	n := normalize(name)
	s.inject()
	s.mu.Lock()
	defer s.mu.Unlock()
	t.frozenAs = name
	old := s.m[n]
	s.m[n] = t
	s.release(old)
}

// Get returns the named result, or nil.
func (s *ResultStore) Get(name string) *Table {
	n := normalize(name)
	s.mu.RLock()
	t := s.m[n]
	s.mu.RUnlock()
	return t
}

// Drop removes the named result and releases it.
func (s *ResultStore) Drop(name string) {
	n := normalize(name)
	s.inject()
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.m[n]
	delete(s.m, n)
	s.release(old)
}

// Len returns the number of live results.
func (s *ResultStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Rename implements the rename operator: the entry for old is
// re-registered under new. If new already points at another result,
// that result is released (its memory freed), exactly as described in
// §VI-A; two names of one slot displace nothing. Renaming a missing
// result is an error.
func (s *ResultStore) Rename(old, new string) error {
	o, n := normalize(old), normalize(new)
	s.inject()
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.m[o]
	if !ok {
		return fmt.Errorf("rename: intermediate result %q not found", old)
	}
	t.Name = new
	t.frozenAs = new
	if o == n {
		return nil
	}
	displaced := s.m[n]
	delete(s.m, o)
	s.m[n] = t
	s.release(displaced)
	return nil
}

// release is the path of every table the store stops binding under a
// slot: one it binds under no other slot that owns its rows hands them
// back to its run (sqltypes.Arena.Release) and reads empty, unless a
// reader pinned it, and one that borrows lets go of its lender; while a
// reader holds it, when the last one lets go (Unhold). A table the store
// released is never bound again. s.mu is held.
func (s *ResultStore) release(t *Table) {
	if t == nil || !t.arena.Owned() && t.lender == nil {
		return
	}
	for _, u := range s.m {
		if u == t && !test.ignoreAliases {
			return
		}
	}
	t.release()
}

// test holds the seeded mutants of the release path and of borrowing
// (export_test.go).
var test struct {
	ignorePins, unpinnedClones, ignoreAliases, ignoreHolds bool
	earlyLender, unpinnedLender                            bool
}

// NormalizeName exposes the store's name normalization (lowercasing,
// SQL identifier semantics) so the partition-property analyses name
// slots exactly the way the store keys them.
func NormalizeName(name string) string { return normalize(name) }

// normalize lowercases name: names are case-insensitive, matching SQL
// identifier semantics. A name with no upper-case letter is its own key,
// and the others' keys are memoized: a program binds, reads and drops
// the same few names, Intermediate#cte and the like, in every iteration. The
// memo is emptied at loweredCap names, so names of statements long gone
// do not pile up.
func normalize(name string) string {
	i := 0
	for i < len(name) && (name[i] < 'A' || name[i] > 'Z') {
		i++
	}
	if i == len(name) {
		return name
	}
	loweredMu.RLock()
	key, ok := lowered[name]
	loweredMu.RUnlock()
	if ok {
		return key
	}
	b := []byte(name)
	for ; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	key = string(b)
	loweredMu.Lock()
	if len(lowered) >= loweredCap {
		clear(lowered)
	}
	lowered[name] = key
	loweredMu.Unlock()
	return key
}

const loweredCap = 1024

var (
	loweredMu sync.RWMutex
	lowered   = map[string]string{}
)
