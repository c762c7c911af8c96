package exec

import (
	"sync"

	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// CompileCache memoizes, for the run of one query, what the executors
// compile from each plan node's expressions — a filter's condition, a
// projection's items, an aggregate's group keys and arguments, a join's
// keys and residual — so a loop body compiles them once per run instead
// of once per iteration, and the trees an MPP machine builds per
// partition share one compilation.
//
// The memo key is the node alone: plan nodes do not change once the
// rewrite has built them, and a compiled expression keeps no state
// (expr.Compiled), so one compilation serves every tree of every
// executor, concurrently too.
//
// One entry does keep state, advisory only: an aggregate's (aggRun). It
// counts the groups the node produced the last time it ran, which the
// next run presizes its group table from, and it holds the group tables
// and accumulators the node's lending runs gave back, which the next run
// resets and fills. The partitions of an MPP machine overwrite the count
// and trade the spares freely; a stale or another partition's count, or
// another partition's spare, changes capacity, never rows; Sweep drops a
// spare no run took for a whole iteration. That state is not the cache's:
// it is the statement's (Leftovers), which the cache was built over, and
// it outlives the run — the next run of the statement starts from the
// count and the tables this one left — while the compiled expressions,
// bound to this run's literals, go with the run.
//
// The cache also carries the values the run bound to the statement's
// literal slots, which every expression it compiles reads
// (expr.Env.Params): a plan prepared once runs with the literals of each
// text that has its shape.
//
// A nil *CompileCache is valid and compiles on every request, with no
// bound values. A cache is safe for concurrent use; concurrent requests
// for one node compile it once.
type CompileCache struct {
	mu      sync.Mutex
	entries map[plan.Node]*compileEntry
	params  []sqltypes.Value
	left    *Leftovers // where the aggregates' run state lives
	aggRuns []*aggRun  // every aggregate entry's run state, for Sweep
}

type compileEntry struct {
	once sync.Once
	v    any
	err  error
}

// NewCompileCache returns an empty cache for a run that bound params to
// the statement's literal slots (nil: none bound), whose aggregates keep
// their run state to the cache.
func NewCompileCache(params []sqltypes.Value) *CompileCache {
	return newCompileCache(params, new(Leftovers))
}

func newCompileCache(params []sqltypes.Value, left *Leftovers) *CompileCache {
	return &CompileCache{entries: make(map[plan.Node]*compileEntry), params: params, left: left}
}

// Params returns the run's bound literal values; nil for a nil cache.
func (c *CompileCache) Params() []sqltypes.Value {
	if c == nil {
		return nil
	}
	return c.params
}

// shared returns what compile makes of n's expressions, compiled once per
// cache: every tree built under c uses the one result. Without a cache
// it compiles.
func shared[T any](c *CompileCache, n plan.Node, compile func() (T, error)) (T, error) {
	if c == nil {
		return compile()
	}
	c.mu.Lock()
	e := c.entries[n]
	if e == nil {
		e = &compileEntry{}
		c.entries[n] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compile() })
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	return e.v.(T), nil
}

// JoinKeys is compileJoinKeys(t) out of the cache: the machine routes a join's
// inputs by the keys its trees then use.
func (c *CompileCache) JoinKeys(t *plan.Join) (leftKeys, rightKeys []*expr.Compiled, err error) {
	k, err := joinKeysOf(c, t)
	return k.left, k.right, err
}

// GroupKeys is groupKeyExprs(t) out of the cache: the machine routes an
// aggregate's input by the keys its trees then group by.
func (c *CompileCache) GroupKeys(t *plan.Aggregate) ([]*expr.Compiled, error) {
	ex, err := aggExprsOf(c, t)
	return ex.groupEx, err
}

// aggRunOf returns the run state of aggregate node n compiled under c —
// what the statement's earlier runs of n left, if any — which Sweep
// reaches; without a cache, a new one that nothing sweeps.
func (c *CompileCache) aggRunOf(n *plan.Aggregate) *aggRun {
	if c == nil {
		return new(aggRun)
	}
	r := c.left.aggRun(n)
	c.mu.Lock()
	c.aggRuns = append(c.aggRuns, r)
	c.mu.Unlock()
	return r
}

// Sweep drops the group tables no run of their aggregate took since the
// previous Sweep; the loop operator calls it at the back-edge, beside
// IndexCache.Sweep.
func (c *CompileCache) Sweep() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.aggRuns {
		r.spare.Sweep()
	}
}

// Clear drops every entry.
func (c *CompileCache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.aggRuns = nil
}

// Len returns the number of nodes compiled.
func (c *CompileCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
