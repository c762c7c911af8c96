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
//     iteration asks for it (Sweep), and no longer than the attempt that
//     made it (Rewind).
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
//   - Storage (Leftovers): the indexes let go, the run state of each
//     aggregate, distinct and batch-run project node, and the free list
//     of row chunks. It is the statement's, not the run's: the next run of
//     the statement fills what this one left, its row chunks too.
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
// A node's run state (nodeRun) is advisory: an aggregate's group count
// that the next run presizes from, and the group tables and accumulators
// lending runs gave back (aggRun); a distinct's key table and its size
// (distinctRun); a batch-run project's vectors (batchRun). The partitions
// of an MPP machine overwrite the counts and trade the spares freely; a
// stale or another partition's count, or another partition's spare,
// changes capacity, never rows.
//
// A nil *Memo is valid: it builds every index and compiles every
// expression it is asked for, with no bound values, and keeps nothing. A
// memo is safe for concurrent use; concurrent requests for one index or
// one node build or compile it once, and what it hands out is shared and
// read-only.
type Memo struct {
	mu       sync.Mutex
	indexes  []*indexEntry // in the order the run asked for them first
	made     int           // entries made so far; the next one's seq
	compiled map[plan.Node]*compileEntry
	runs     []nodeRun // the run state of every node compiled, for Sweep
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

// Chunks returns the statement's free list of row chunks, which the run
// carves from and hands back to; nil for a nil memo.
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
//   - The spare indexes, the nodes' spares (nodeRun) and the row chunks
//     and partition slices a loop iteration let go and no one took since
//     the previous Sweep go; what the run let go before its first
//     back-edge stays (sqltypes.Spares.Sweep).
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
	for _, r := range m.runs {
		r.sweep()
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
	m.runs = nil
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

// Mark returns how many index entries the run has made so far, for
// Rewind.
func (m *Memo) Mark() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.made
}

// Rewind drops the index entries made since Mark returned mark, as Sweep
// drops the ones nobody asked for, so that each lets go of its table now.
// A checkpoint restore calls it: those entries are the abandoned
// attempt's. One over a table that attempt made is never asked for again;
// one over a table the restore keeps is built again when asked, as the
// unfaulted run built it after the capture.
func (m *Memo) Rewind(mark int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.indexes = slices.DeleteFunc(m.indexes, func(e *indexEntry) bool {
		if e.seq < mark {
			return false
		}
		m.drop(e, true)
		return true
	})
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

// nodeRun is what one plan node carries from one of its runs to the
// next, within the run of a statement and from that run to the next
// (Leftovers): aggRun, distinctRun, batchRun. All of it is advisory: it
// changes capacity and who allocates, never rows.
type nodeRun interface {
	sweep()    // a back-edge: sqltypes.Spares.Sweep of its spares
	handBack() // a clean run's end: sqltypes.Spares.HandBack
}

// runOf returns the run state of node n compiled under m — what the
// statement's earlier runs of n left, if any, else mk() — which Sweep
// reaches; without a memo, mk(), which nothing sweeps. Call it once per
// memo and node, from what shared compiles.
func runOf[R nodeRun](m *Memo, n plan.Node, mk func() R) R {
	if m == nil {
		return mk()
	}
	r := m.left.run(n, func() nodeRun { return mk() }).(R)
	m.mu.Lock()
	if m.runs == nil {
		m.runs = make([]nodeRun, 0, 8) // grown once for most plans
	}
	m.runs = append(m.runs, r)
	m.mu.Unlock()
	return r
}

// test is zero outside tests: the seeded mutants of the aggregate's
// lending rule — a keeping aggregate giving its table back at Close,
// which for the final query's aggregate, whose rows the run returns,
// only the statement's next run shows — of End, the index entries
// carried into the next run, of the entries' hold, an entry that does not
// hold its table, of the scan's pin, a fragment scan under a keeping
// consumer that does not pin the result it reads, and of the batch form,
// a batch that returns the first error it meets instead of replaying;
// and of the join → aggregate form, a group id carried across a probe
// row's boundary into its NULL-extended first tuple, a group key
// evaluated for every probe row, joins and adds that run past a probe
// key's error, a group key's error over the probe rows that fails the
// batch instead of replaying it, a typed argument's leaf that reads a
// NULL-extended side from the build's first row, a float added for a
// tuple the program bailed on, and a NULL result added as its float; of
// a filtered index build, the row after each full batch skipped; of the
// join → exchange form, a computed key taken
// once per probe row though it reads a build row, and a NULL-extended
// side whose cells keep what the exchange's buffer held; and of a tap over
// a batch source, a batch it does not show its tap.
var test struct {
	keepingGivesBack, carryEntries, unheldEntries bool
	unpinnedFragmentKeeper, noReplay              bool
	carryGroupID, groupEveryProbe, eagerJoins     bool
	keyPerProbe, keepCells, skipTap               bool
	noKeyReplay, nullSideReadsRow                 bool
	ignoreBail, addNull, skipChunkRow             bool
}

// Leftovers is what the runs of one statement carry from one to the
// next: the hash indexes they let go, each node's run state (nodeRun: an
// aggregate's group-count hint, spare group tables and accumulators, a
// distinct's key tables, a batch-run project's vectors), and the free
// list of row chunks, whose chunks and
// partition slices the released tables of the next run are carved from.
// Only storage and advisory hints are in it: a run builds its memo over
// it (Begin), and nothing the memo computed — an index entry, a compiled
// expression — outlives the run (End). The zero value is empty. One run
// at a time may use it, and that run's memo concurrently.
type Leftovers struct {
	indexes sqltypes.Spares[*HashIndex]
	selects scratchSlots[*selectScratch] // filtered index builds' (indexRows)
	chunks  sqltypes.ChunkPool
	mu      sync.Mutex
	runs    map[plan.Node]nodeRun
	carried []*indexEntry // the last run's entries, under test.carryEntries only
}

// Begin starts a run that bound params to the statement's literal slots
// (nil: none bound), counting the cells its released tables hand back
// into freed (nil: nowhere), and returns its memo: empty, its builds
// filling the indexes l holds, its aggregates taking their run state from
// l, and its tables carving from the chunks the last clean run let go.
func (l *Leftovers) Begin(params []sqltypes.Value, freed *int64) *Memo {
	l.chunks.Begin(freed)
	m := newMemo(params, l)
	if test.carryEntries {
		m.indexes = l.carried
	}
	return m
}

// End ends the run whose memo m is (Begin; nil: a run without one).
// After a clean run, l keeps the storage of m's indexes and what the run
// let go — spare indexes and group tables, row chunks and partition
// slices — less what it was carried and did not take
// (sqltypes.Spares.HandBack); after any other, l is emptied.
func (l *Leftovers) End(m *Memo, clean bool) {
	m.end(clean)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !clean {
		l.chunks.Reset()
		l.runs = nil
		return
	}
	l.chunks.HandBack()
	for _, r := range l.runs {
		r.handBack()
	}
}

// ChunkBytes returns the bytes of the row chunks and partition slices l
// carries (sqltypes.ChunkPool.Bytes).
func (l *Leftovers) ChunkBytes() int64 { return l.chunks.Bytes() }

// DropChunks drops the row chunks and partition slices l carries; its
// statement's next run allocates its tables afresh.
func (l *Leftovers) DropChunks() { l.chunks.Reset() }

// run returns n's run state, mk() if no run of the statement has
// compiled n yet.
func (l *Leftovers) run(n plan.Node, mk func() nodeRun) nodeRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.runs[n]
	if r == nil {
		if l.runs == nil {
			l.runs = make(map[plan.Node]nodeRun)
		}
		r = mk()
		l.runs[n] = r
	}
	return r
}
