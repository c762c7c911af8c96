package exec

import (
	"slices"
	"sync"

	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// Memo is the run memo: what the run of one query computes once and
// every executor it starts shares, and the storage those executors let
// go and fill again.
//
//   - Hash indexes (Index): the indexes joins build over tables they read
//     directly, so a loop body indexes a table it does not change once
//     instead of once per iteration. An entry lives as long as every
//     iteration asks for it (Sweep).
//   - Compiled expressions: what the executors compile from each plan
//     node — a filter's condition, a projection's items, an aggregate's
//     group keys and arguments, a join's keys and residual — once per run
//     instead of once per iteration, and one compilation for the trees an
//     MPP machine builds per partition. Plan nodes do not change once the
//     rewrite has built them, and a compiled expression keeps no state
//     (expr.Compiled), so the node alone is the key.
//   - The values the run bound to the statement's literal slots, which
//     every expression it compiles reads (expr.Env.Params): a plan
//     prepared once runs with the literals of each text that has its
//     shape.
//   - Storage (Leftovers): the indexes let go, each aggregate node's run
//     state and the free list of row chunks. It is the statement's, not
//     the run's: the next run of the statement fills what this one left.
//
// An index entry's key is (table address, partition, key columns,
// filter), and the address is a sufficient witness that the rows are the
// ones indexed: a table bound in the result store is frozen
// (storage.Table), base tables do not change while a statement runs, and
// an entry references its table, so the address cannot be reused while
// the entry lives. The entry holds its table (storage.Table.Hold) until
// Sweep drops it or the run ends, so a table the store releases hands
// its rows back only then. A slot whose content changes points at
// another table and misses. The filter is the compiled predicate of a Filter directly
// over the build side's read, which the memo gives out once per plan
// node, so a loop-invariant filtered read is indexed once per run too.
//
// An aggregate's run state (aggRun) is advisory: the group count that the
// next run presizes from, and the group tables and accumulators lending
// runs gave back. The partitions of an MPP machine overwrite the count
// and trade the spares freely; a stale or another partition's count, or
// another partition's spare, changes capacity, never rows.
//
// A nil *Memo is valid: it builds every index and compiles every
// expression it is asked for, with no bound values, and keeps nothing. A
// memo is safe for concurrent use; concurrent requests for one index or
// one node build or compile it once, and what it hands out is shared and
// read-only.
type Memo struct {
	mu       sync.Mutex
	indexes  []*indexEntry // in the order the run asked for them first
	compiled map[plan.Node]*compileEntry
	aggRuns  []*aggRun // every aggregate entry's run state, for Sweep
	params   []sqltypes.Value
	left     *Leftovers // the statement's storage
}

type compileEntry struct {
	once sync.Once
	v    any
	err  error
}

// NewMemo returns an empty memo for a run that bound params to the
// statement's literal slots (nil: none bound), over storage of its own.
func NewMemo(params []sqltypes.Value) *Memo {
	return newMemo(params, new(Leftovers))
}

func newMemo(params []sqltypes.Value, left *Leftovers) *Memo {
	return &Memo{
		compiled: make(map[plan.Node]*compileEntry),
		params:   params,
		left:     left,
	}
}

// Params returns the run's bound literal values; nil for a nil memo.
func (m *Memo) Params() []sqltypes.Value {
	if m == nil {
		return nil
	}
	return m.params
}

// Chunks returns the run's free list of row chunks; nil for a nil memo.
func (m *Memo) Chunks() *sqltypes.ChunkPool {
	if m == nil {
		return nil
	}
	return &m.left.chunks
}

// Sweep drops what the run stopped using. The loop operator calls it at
// the back-edge, between steps, when no join holds an index open.
//   - The index entries nobody asked for since the previous Sweep go,
//     their indexes' storage is taken back and they let go of their
//     tables, in the order the run asked for them first, so the spares
//     and the chunks they hand back are the same from run to run: an
//     index survives exactly as long as every iteration uses it, the
//     tables of a finished iteration are held for at most one more, and
//     nobody reads a dropped index again.
//   - The spare indexes, the aggregates' spare group tables and the row
//     chunks and partition slices a loop iteration let go and no one
//     took since the previous Sweep go; what the run let go before its
//     first back-edge stays (sqltypes.Spares.Sweep).
func (m *Memo) Sweep() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.left.indexes.Sweep()
	m.indexes = slices.DeleteFunc(m.indexes, func(e *indexEntry) bool {
		unused := !e.used
		e.used = false
		if unused {
			m.drop(e, true)
		}
		return unused
	})
	for _, r := range m.aggRuns {
		r.spare.Sweep()
	}
	m.left.chunks.Sweep()
}

// end ends the run. Every entry goes, in the order the run asked for
// them first, and lets go of its table: an index's witness is its
// table's address, and the next run may read a base table DML changed in
// place under the same address; a compiled expression is bound to this
// run's literals. After a clean run the
// entries' indexes join the spares and the spares are handed back
// (sqltypes.Spares.HandBack); after any other, no index is kept.
func (m *Memo) end(clean bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.compiled)
	m.aggRuns = nil
	if test.carryEntries {
		m.left.carried = m.indexes
		return
	}
	for _, e := range m.indexes {
		m.drop(e, clean)
	}
	m.indexes = nil
	if clean {
		m.left.indexes.HandBack()
	} else {
		m.left.indexes.Clear()
	}
}

// Len returns the number of indexes held.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.indexes)
}

// Nodes returns the number of plan nodes compiled.
func (m *Memo) Nodes() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.compiled)
}

// shared returns what compile makes of n's expressions, compiled once per
// memo: every tree built under m uses the one result. Without a memo it
// compiles.
func shared[T any](m *Memo, n plan.Node, compile func() (T, error)) (T, error) {
	if m == nil {
		return compile()
	}
	m.mu.Lock()
	e := m.compiled[n]
	if e == nil {
		e = &compileEntry{}
		m.compiled[n] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compile() })
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	return e.v.(T), nil
}

// JoinKeys is compileJoinKeys(t) out of the memo: the machine routes a
// join's inputs by the keys its trees then use.
func (m *Memo) JoinKeys(t *plan.Join) (leftKeys, rightKeys []*expr.Compiled, err error) {
	k, err := joinKeysOf(m, t)
	return k.left, k.right, err
}

// GroupKeys is groupKeyExprs(t) out of the memo: the machine routes an
// aggregate's input by the keys its trees then group by.
func (m *Memo) GroupKeys(t *plan.Aggregate) ([]*expr.Compiled, error) {
	ex, err := aggExprsOf(m, t)
	return ex.groupEx, err
}

// aggRunOf returns the run state of aggregate node n compiled under m —
// what the statement's earlier runs of n left, if any — which Sweep
// reaches; without a memo, a new one that nothing sweeps.
func (m *Memo) aggRunOf(n *plan.Aggregate) *aggRun {
	if m == nil {
		return new(aggRun)
	}
	r := m.left.aggRun(n)
	m.mu.Lock()
	m.aggRuns = append(m.aggRuns, r)
	m.mu.Unlock()
	return r
}

// test is zero outside tests: the seeded mutants of the aggregate's
// lending rule — a keeping aggregate giving its table back at Close,
// which for the final query's aggregate, whose rows the run returns,
// only the statement's next run shows — of End, the index entries
// carried into the next run, and of the entries' hold, an entry that
// does not hold its table.
var test struct{ keepingGivesBack, carryEntries, unheldEntries bool }

// Leftovers is what the runs of one statement carry from one to the
// next: the hash indexes they let go, each aggregate node's run state
// (aggRun: its group-count hint, its spare group tables and
// accumulators), and the free list of row chunks, whose chunks and
// partition slices go when a run ends. Only storage and advisory hints
// are in it: a run builds its memo over it (Begin), and nothing the memo
// computed — an index entry, a compiled expression — outlives the run
// (End). The zero value is empty. One run at a time may use it, and that
// run's memo concurrently.
type Leftovers struct {
	indexes sqltypes.Spares[*HashIndex]
	chunks  sqltypes.ChunkPool
	mu      sync.Mutex
	aggs    map[*plan.Aggregate]*aggRun
	carried []*indexEntry // the last run's entries, under test.carryEntries only
}

// Begin starts a run that bound params to the statement's literal slots
// (nil: none bound), counting the cells its released tables hand back
// into freed (nil: nowhere), and returns its memo: empty, its builds
// filling the indexes l holds, its aggregates taking their run state from
// l, and its tables carving from l's chunks.
func (l *Leftovers) Begin(params []sqltypes.Value, freed *int64) *Memo {
	l.chunks.Reset(freed)
	m := newMemo(params, l)
	if test.carryEntries {
		m.indexes = l.carried
	}
	return m
}

// End ends the run whose memo m is (Begin; nil: a run without one).
// After a clean run, l keeps the storage of m's indexes and what the run
// let go, less what it was carried and did not take
// (sqltypes.Spares.HandBack); after any other, l is emptied. The run's
// chunks and partition slices go either way.
func (l *Leftovers) End(m *Memo, clean bool) {
	m.end(clean)
	l.chunks.Reset(nil)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !clean {
		l.aggs = nil
		return
	}
	for _, r := range l.aggs {
		r.spare.HandBack()
	}
}

// aggRun returns n's run state, new if no run of the statement has
// compiled n yet.
func (l *Leftovers) aggRun(n *plan.Aggregate) *aggRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.aggs[n]
	if r == nil {
		if l.aggs == nil {
			l.aggs = make(map[*plan.Aggregate]*aggRun)
		}
		r = new(aggRun)
		l.aggs[n] = r
	}
	return r
}
