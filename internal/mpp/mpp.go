// Package mpp simulates the shared-nothing execution of the paper's
// MPPDB substrate. The machine owns the exchanges and nothing else: it
// cuts a plan where rows must change partitions — joins repartition
// both sides on the join keys, aggregations repartition on the group
// keys, order-sensitive operators gather to a single partition — and
// between two exchanges runs the ordinary operators of internal/exec,
// one tree per partition, side by side. A hash exchange is part of the
// region that produces its rows: each tree routes what it emits into the
// exchange's buffers (site.go), which a loop fills again in place. Base
// tables are already hash-partitioned in storage. Every shuffled row is
// counted, making data movement a first-class metric.
package mpp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/expr"
	"dbspinner/internal/faultinject"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Stats counts MPP-level activity.
type Stats struct {
	// RowsShuffled is the number of rows processed by exchange
	// operators: every row an exchange hashes and routes (or
	// replicates, for broadcasts) counts, whether or not it lands on
	// the partition it came from. All exchanges — hash shuffles,
	// full-row shuffles, broadcasts and gathers — account identically,
	// so an elided exchange shows up as a genuine drop in this counter.
	RowsShuffled int64
	// RowsRelocated is the subset of RowsShuffled that actually changed
	// partitions in a hash exchange. A shuffle of an already
	// co-partitioned input relocates nothing; the layout-preservation
	// tests pin that.
	RowsRelocated int64
	// Fragments is the number of parallel fragments executed: one per
	// partition for every exchange and for every exchange-free piece of
	// a plan.
	Fragments int64
	// ShufflesElided counts exchange operators skipped because the
	// static partition-property analysis proved their input already
	// co-partitioned on the exchange keys.
	ShufflesElided int64
	// RowsElided counts the input rows of elided exchanges: rows that
	// were not rehashed and routed because the analysis proved they
	// already sit at their destination.
	RowsElided int64
	// RowsRouted is the subset of RowsShuffled that hash exchanges routed
	// (no broadcast copies, no gathered rows); RowsToBusiest sums, over
	// those exchanges, the rows the fullest destination received.
	RowsRouted, RowsToBusiest int64
}

// Add adds o's counters to s.
func (s *Stats) Add(o *Stats) {
	s.RowsShuffled += o.RowsShuffled
	s.RowsRelocated += o.RowsRelocated
	s.Fragments += o.Fragments
	s.ShufflesElided += o.ShufflesElided
	s.RowsElided += o.RowsElided
	s.RowsRouted += o.RowsRouted
	s.RowsToBusiest += o.RowsToBusiest
}

// Skew is the exchange skew over parts partitions: the fullest
// destinations' share of the routed rows, times parts — 1 when every
// exchange spreads evenly, parts when one partition gets everything, 0
// when nothing was routed.
func Skew(toBusiest, routed int64, parts int) float64 {
	if routed == 0 {
		return 0
	}
	return float64(toBusiest) * float64(parts) / float64(routed)
}

// Elide annotates one plan node with the exchanges the static
// partition-property analysis (internal/distprop) proved redundant.
// Each licensed exchange carries the claimed routing columns — row
// positions in the exchange's input — whose RowKey(...).Partition
// destination every input row provably already occupies. The machine
// never derives these itself; it only consumes claims that the
// verifier has independently re-derived (fail closed: an absent entry
// means every exchange runs).
type Elide struct {
	// Left / Right license skipping the join-side shuffles; Input
	// licenses the aggregate group-by exchange (replaced by local
	// pre-aggregation plus an output-row shuffle) or the distinct
	// full-row exchange.
	Left, Right, Input bool
	// LeftCols / RightCols / InputCols are the claimed routing columns
	// of the corresponding elided exchange.
	LeftCols, RightCols, InputCols []int
}

// Machine evaluates plans over P partitions with up to P concurrent
// fragment goroutines. One goroutine drives a machine at a time; the
// counters are plain fields, summed between fan-outs.
type Machine struct {
	RT    exec.Runtime
	Parts int
	Stats *Stats
	Exec  *exec.Stats
	// Ctx, when non-nil, is polled at every partition batch (the start
	// of each parallel region) and — through per-partition
	// exec.CancelCheckers — inside the fragments' operators and the
	// exchanges' routing loops, so a canceled query stops mid-batch. A
	// nil Ctx keeps the zero-cost uncancellable path.
	Ctx context.Context
	// Elide maps plan nodes to their statically licensed exchange
	// elisions. A nil map (the default) runs every exchange.
	Elide map[plan.Node]Elide
	// CheckElide enables the dynamic cross-check: every row feeding an
	// elided exchange is re-hashed at consumption and the run fails if
	// any row is not already in its claimed partition.
	CheckElide bool
	// Faults, when non-nil, arms the partition-batch fault-injection
	// hook (internal/faultinject): each parallel region takes the
	// point serially before fanning out and fires it inside partition
	// 0's worker, keeping the hit count deterministic.
	Faults *faultinject.Registry

	// sites are the buffers of the hash exchanges, kept from one
	// evaluation to the next and, through Resume, from one run of a
	// statement to the next (site.go); made counts the ones allocated;
	// swept is set at the first Sweep.
	sites Sites
	made  int
	swept bool
	// test is zero outside tests (poison_test.go): the hook that sees every
	// site the moment it is marked free, and the seeded mutants of that
	// rule — every cut counts as lent; free before the consumer's region;
	// hand back a kept site for the statement's next run — and of Sweep's
	// (site_test.go): the first sweep ages the sites filled before it as
	// any other; a sweep drops nothing.
	test struct {
		freed                            func(*site)
		lentAll, freeEarly, handBackKept bool
		agePreLoop, sweepNothing         bool
	}
}

// onNew, set by tests only, sees every machine New makes (core's are out
// of a test's reach otherwise).
var onNew func(*Machine)

// New creates a machine over rt's tables and run memo (Runtime.Memo),
// which its partitions share: each plan node is compiled once for all of
// them, and each partition of a table a join reads directly is indexed
// once per run. Over a runtime with no memo (nil rt: no tables either)
// the machine has a memo of its own (exec.NewMemo), which lives as long
// as the machine and which its Sweep sweeps. parts must be >= 1.
func New(rt exec.Runtime, parts int, stats *Stats, execStats *exec.Stats) *Machine {
	if parts < 1 {
		parts = 1
	}
	if stats == nil {
		stats = &Stats{}
	}
	if execStats == nil {
		execStats = &exec.Stats{}
	}
	if rt == nil || rt.Memo() == nil {
		rt = ownMemo{rt, exec.NewMemo(nil)}
	}
	m := &Machine{RT: rt, Parts: parts, Stats: stats, Exec: execStats, sites: Sites{}}
	if onNew != nil {
		onNew(m)
	}
	return m
}

// ownMemo is a runtime with the run memo of the machine it was given to.
type ownMemo struct {
	exec.Runtime
	memo *exec.Memo
}

func (r ownMemo) Memo() *exec.Memo { return r.memo }

// relation is a partitioned intermediate result: what a fragment
// produced, or what an exchange made of it. from is the site whose
// buffers hold the rows (nil: they are their producer's own); a gather or
// a broadcast copies row headers only and passes it on.
type relation struct {
	parts [][]sqltypes.Row
	from  *site
}

func (r relation) gather() []sqltypes.Row { return slices.Concat(r.parts...) }

// Run executes a plan in parallel and returns the gathered rows.
func (m *Machine) Run(n plan.Node) ([]sqltypes.Row, error) {
	rel, err := m.eval(n, nil, nil)
	if err != nil {
		return nil, err
	}
	return rel.gather(), nil
}

// Materialize executes a plan in parallel into a storage table. hint,
// when it has one count per partition, presizes the slice each
// partition's fragment drains into, as exec.MaterializeContext presizes
// its partitions: advisory, it changes capacity, never rows. The slices
// come from the run's free list (exec.Memo.Chunks), and the table owns
// its rows by exec.MaterializeContext's rule (exec.CarveRows): when the
// root fragment builds every row it emits, each partition's tree carves
// them into an arena of its own, and the arenas join the table's once
// all have finished, so the trees share no arena. A pre-aggregated root
// delivers its exchange site's slices, which the table never owns.
func (m *Machine) Materialize(n plan.Node, name string, hint []int) (*storage.Table, error) {
	in := &into{hint: hint, pool: m.RT.Memo().Chunks()}
	if in.pool != nil {
		in.arenas = make([]sqltypes.Arena, m.Parts)
	}
	rel, err := m.eval(n, nil, in)
	if err != nil {
		// No table takes the rows the trees carved, and nobody can read
		// them: their chunks go back at once.
		for p := range in.arenas {
			if a := &in.arenas[p]; a.Owned() {
				a.Release(nil, 0, false)
			}
		}
		return nil, err
	}
	t := storage.NewTable(name, plan.Schema(n), m.Parts)
	var arena *sqltypes.Arena
	for p := range in.arenas {
		if a := &in.arenas[p]; a.Owned() {
			if arena == nil {
				arena = t.OwnRows(in.pool)
			}
			arena.Adopt(a)
		}
	}
	// Keep the fragment partitioning: the next step's scans read the
	// partitions as they were produced (no extra shuffle). The write-out
	// is one fragment per partition, counted like Run's parallel
	// regions even though the in-memory adoption is a slice swap (of a
	// site's slices when n pre-aggregates: nobody's input, never freed).
	copy(t.Parts, rel.parts)
	m.Stats.Fragments += int64(m.Parts)
	return t, nil
}

// into is what Materialize asks of the run of its root fragment: the
// drained slices presized from hint and taken from pool, and, when
// arenas has one per partition, the rows each tree builds carved into its
// partition's arena, which then owns a pool (exec.CarveRows).
type into struct {
	hint   []int
	pool   *sqltypes.ChunkPool
	arenas []sqltypes.Arena
}

// carve makes partition p's tree op carve the rows it builds into p's
// arena, if it builds every row it emits (exec.CarveRows).
func (in *into) carve(p int, op exec.Operator) {
	if in.arenas == nil {
		return
	}
	exec.CarveRows(op, func() *sqltypes.Arena {
		in.arenas[p] = sqltypes.NewArena(in.pool)
		return &in.arenas[p]
	})
}

// --- cutting a plan into fragments ---------------------------------------

// fragment is one exchange-free piece of a plan: the cuts and taps exec
// builds its trees with, and the counters of its taps.
type fragment struct {
	exec.Fragment
	elided [][]partCount       // per tap: the rows each partition showed it
	sites  map[plan.Node]*site // the cuts whose rows a site holds
	// into, set on Materialize's root fragment, presizes the slices the
	// partitions' rows drain into and carves the rows (nil: neither).
	into *into
}

// partCount is one partition's counter, a cache line wide so that the
// partitions do not write to the same one.
type partCount struct {
	n int64
	_ [56]byte
}

func (m *Machine) newFragment() *fragment {
	return &fragment{Fragment: exec.Fragment{Parts: m.Parts, Inputs: map[plan.Node][][]sqltypes.Row{}}}
}

// reads makes rel what f's trees read in c's place.
func (f *fragment) reads(c plan.Node, rel relation) {
	f.Inputs[c] = rel.parts
	if rel.from != nil {
		if f.sites == nil {
			f.sites = map[plan.Node]*site{}
		}
		f.sites[c] = rel.from
	}
}

// exchange is what a gather or a broadcast makes of a relation on a cut
// edge; a hash exchange is a router, part of the run below the edge.
type exchange func(relation) relation

// eval evaluates n into a relation: it cuts the plan below n at its
// exchanges, evaluates what is below each cut, and runs the piece on
// top, the fragment rooted at n, once per partition, routing its rows by
// to (nil: they stay where they are produced) or, when they stay, as in
// asks (nil: into slices of their own; see run).
func (m *Machine) eval(n plan.Node, to router, in *into) (relation, error) {
	f := m.newFragment()
	if err := m.cut(n, f); err != nil {
		return relation{}, err
	}
	agg, ok := n.(*plan.Aggregate)
	if !ok || !m.preAggregates(agg) {
		f.into = in
		return m.run(n, f, single(n), to)
	}
	// One row per group and partition moves instead of the input: to
	// where the input exchange would have sent the group, RowKey over
	// the leading group columns being the values EvalKey computes from
	// the group expressions, through the same Partition function.
	// Destination, per-destination order (source-major, groups in
	// first-seen order within each source) and float accumulation order
	// all match the exchanged path, so results are byte-identical.
	out, err := m.run(n, f, false, m.shuffleCols(identityCols(len(agg.GroupBy))))
	if err != nil || to == nil {
		return out, err
	}
	// The regrouped rows feed a routed cut themselves: the same loop runs
	// over a fragment whose root is the cut, into a second site (siteKey),
	// and frees the first only when it is done.
	f = m.newFragment()
	f.reads(n, out)
	return m.run(n, f, false, to)
}

// single reports whether n's rows exist once rather than once per
// partition: its fragment runs in partition 0 only.
func single(n plan.Node) bool {
	switch t := n.(type) {
	case *plan.OneRow, *plan.ValuesNode:
		return true
	case *plan.Aggregate:
		return len(t.GroupBy) == 0
	}
	return false
}

// preAggregates reports whether the analysis licensed aggregating t's
// input where it is: every group's rows already sit in one partition,
// so each partition aggregates exactly and the groups are exchanged
// instead of the input.
func (m *Machine) preAggregates(t *plan.Aggregate) bool {
	return len(t.GroupBy) > 0 && m.Elide[plan.Node(t)].Input
}

// cut decides where the exchanges below n go — and nothing else — and
// evaluates what is below them into f's inputs. n itself belongs to f.
func (m *Machine) cut(n plan.Node, f *fragment) error {
	el := m.Elide[n]
	switch t := n.(type) {
	case *plan.Scan, *plan.NamedResult, *plan.EmptyNode, *plan.OneRow, *plan.ValuesNode:
		return nil
	case *plan.Alias, *plan.Filter, *plan.Project, *plan.Trim:
		return m.below(f, n.Children()[0])
	case *plan.Union:
		if err := m.below(f, t.Left); err != nil {
			return err
		}
		return m.below(f, t.Right)
	case *plan.Join:
		leftKeys, rightKeys, err := m.RT.Memo().JoinKeys(t)
		if err != nil {
			return err
		}
		if t.Type == ast.CrossJoin || len(leftKeys) == 0 {
			// No equality to partition by: the right side is replicated
			// to every partition, the left side stays put. (exec refuses
			// an outer join of this kind when the fragment is built.)
			if err := m.below(f, t.Left); err != nil {
				return err
			}
			return m.exchanged(f, t.Right, nil, m.broadcast)
		}
		// Repartition both sides on the join keys, then join partition-wise.
		if err := m.input(f, t.Left, m.shuffle(leftKeys), el.Left, el.LeftCols, "join left"); err != nil {
			return err
		}
		return m.input(f, t.Right, m.shuffle(rightKeys), el.Right, el.RightCols, "join right")
	case *plan.Aggregate:
		if len(t.GroupBy) == 0 {
			return m.exchanged(f, t.Input, nil, m.gather(false)) // one output row: aggregate in one place
		}
		var keys []*expr.Compiled
		if !el.Input {
			var err error
			if keys, err = m.RT.Memo().GroupKeys(t); err != nil {
				return err
			}
		}
		return m.input(f, t.Input, m.shuffle(keys), el.Input, el.InputCols, "aggregate input")
	case *plan.Distinct:
		// Repartition on the full row so duplicates co-locate, through the
		// same Partition function every other placement path uses, so the
		// partition-property analysis can equate the distinct exchange's
		// layout with storage and shuffle layouts.
		width := len(t.Input.Columns())
		return m.input(f, t.Input, m.shuffleCols(identityCols(width)), el.Input, el.InputCols, "distinct input")
	case *plan.TopN:
		// Distributed top-k: each partition keeps its best N+Offset rows,
		// only those are gathered (counted as movement), and n picks the
		// answer among them.
		lf := m.newFragment()
		if err := m.below(lf, t.Input); err != nil {
			return err
		}
		n, offset := t.Bound(m.RT.Memo().Params())
		local, err := m.run(&plan.TopN{Input: t.Input, Keys: t.Keys, Counts: plan.Counts{N: n + offset}}, lf, false, nil)
		if err != nil {
			return err
		}
		f.reads(t.Input, m.gather(true)(local))
		return nil
	case *plan.Sort:
		return m.exchanged(f, t.Input, nil, m.gather(true))
	case *plan.Limit:
		return m.exchanged(f, t.Input, nil, m.gather(false))
	}
	return fmt.Errorf("mpp: unsupported plan node %T", n)
}

// below continues f into c, an input that reaches its consumer without
// an exchange — unless c can only be the root of a fragment, which then
// ends f here.
func (m *Machine) below(f *fragment, c plan.Node) error {
	if agg, ok := c.(*plan.Aggregate); single(c) || ok && m.preAggregates(agg) {
		return m.exchanged(f, c, nil, nil)
	}
	return m.cut(c, f)
}

// exchanged cuts f at c: c is evaluated on its own, routing its rows by
// to (nil: not at all), and f reads what ex (nil: nothing) makes of them.
func (m *Machine) exchanged(f *fragment, c plan.Node, to router, ex exchange) error {
	rel, err := m.eval(c, to, nil)
	if err != nil {
		return err
	}
	if ex != nil {
		rel = ex(rel)
	}
	f.reads(c, rel)
	return nil
}

// input places the hash exchange to between c and its consumer in f,
// unless the analysis proved that c's rows already sit where it would
// send them, routing on cols: the exchange would reproduce its input
// verbatim (per-source concatenation of rows that all stay put), so the
// rows flow on inside f, byte-identically. They pass a tap instead, the
// runtime check of the partition-property analysis — behavior never
// depends on it: it counts them and, under CheckElide, re-hashes each one
// and reports an unsound claim as an error.
func (m *Machine) input(f *fragment, c plan.Node, to router, elided bool, cols []int, what string) error {
	if !elided {
		return m.exchanged(f, c, to, nil)
	}
	m.Stats.ShufflesElided++
	seen := make([]partCount, m.Parts)
	f.elided = append(f.elided, seen)
	if f.Taps == nil {
		f.Taps = map[plan.Node]exec.Tap{}
	}
	f.Taps[c] = func(p int, r sqltypes.Row) error {
		seen[p].n++
		if m.CheckElide {
			if dst := sqltypes.PartitionOf(r, cols, m.Parts); dst != p {
				return fmt.Errorf("mpp: elided %s exchange is unsound: row in partition %d routes to %d on cols %v", what, p, dst, cols)
			}
		}
		return nil
	}
	return m.below(f, c)
}

// run builds the fragment rooted at root once per partition — in
// partition 0 only when one is set — and drains the trees side by side:
// each into its slice of the relation (as f.into asks) or,
// under a router, straight into the exchange's site, in the region that
// produced the rows (the root then lends them: the site copies what it
// routes). Each tree counts into its own exec.Stats; they are summed
// once all have finished. When they have without an error, f's trees
// are done with the rows of f's cuts, and those nobody kept may be
// overwritten.
func (m *Machine) run(root plan.Node, f *fragment, one bool, to router) (relation, error) {
	out := relation{parts: make([][]sqltypes.Row, m.Parts)}
	build := exec.BuildFragment
	if to != nil {
		_, again := f.Inputs[root]
		out.from, build = m.site(siteKey{root, again}), exec.BuildLendingFragment
	}
	if m.test.freeEarly {
		m.release(f)
	}
	stats := make([]*exec.Stats, m.Parts)
	err := m.parallel(func(p int, cc *exec.CancelChecker) error {
		if one && p != 0 {
			return nil
		}
		if err := cc.Check(); err != nil {
			return err
		}
		stats[p] = &exec.Stats{}
		op, err := build(root, m.RT, stats[p], cc, &f.Fragment, p)
		if err != nil {
			return err
		}
		if to != nil {
			return out.from.fill(p, op, to(), cc)
		}
		var rows []sqltypes.Row
		if in := f.into; in != nil {
			if len(in.hint) == m.Parts {
				rows = in.pool.Part(in.hint[p])
			}
			in.carve(p, op)
		}
		out.parts[p], err = exec.DrainInto(rows, op)
		return err
	})
	for _, s := range stats {
		if s != nil {
			m.Exec.Add(s)
		}
	}
	for _, seen := range f.elided {
		for _, c := range seen {
			m.Stats.RowsElided += c.n
		}
	}
	if err != nil {
		return relation{}, err
	}
	m.release(f)
	if to != nil {
		out.parts = out.from.deliver(m.Stats)
	}
	return out, nil
}

// --- the parallel region --------------------------------------------------

// checkpoint polls the machine's context; it is the cooperative
// cancellation point every parallel region consults before fanning
// out. A nil Ctx never fires.
func (m *Machine) checkpoint() error {
	if m.Ctx == nil {
		return nil
	}
	return m.Ctx.Err()
}

// isContextErr reports whether err stems from a fired context. (A
// local copy of the core-layer helper: mpp sits below core and cannot
// import it.)
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// parallel runs fn once per partition index, concurrently. Each
// worker receives a per-partition CancelChecker (possibly nil) to poll
// in its row loops. The first partition to fail cancels its siblings,
// which then stop at their next poll instead of running the batch to
// completion; the error returned is the first failure in time — except
// that a sibling's induced cancellation error never masks the real
// error that triggered it.
func (m *Machine) parallel(fn func(p int, cc *exec.CancelChecker) error) error {
	if err := m.checkpoint(); err != nil {
		return err
	}
	// The partition-batch fault hook: taken serially before the
	// fan-out (deterministic hit count) and fired inside partition 0's
	// worker, under the same containment real panics get.
	batchFault := m.Faults.Take(faultinject.PointPartition)
	outer := m.Ctx
	if outer == nil {
		outer = context.Background()
	}
	pctx, cancel := context.WithCancel(outer)
	defer cancel()

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for p := 0; p < m.Parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if pctx.Err() != nil {
				return // a sibling already failed; skip the batch
			}
			// Contain converts a worker panic into a *faultinject.
			// PanicError carrying the partition; the core layer promotes
			// it with iteration and step provenance. No panic escapes the
			// goroutine, so no query can take down the process.
			err := faultinject.Contain(p, func() error {
				if p == 0 {
					if ferr := faultinject.Trigger(batchFault); ferr != nil {
						return ferr
					}
				}
				return fn(p, exec.NewCancelChecker(pctx))
			})
			if err == nil {
				return
			}
			mu.Lock()
			if first == nil || (isContextErr(first) && !isContextErr(err)) {
				first = err
			}
			mu.Unlock()
			cancel()
		}(p)
	}
	wg.Wait()
	m.Stats.Fragments += int64(m.Parts)
	if first != nil {
		return first
	}
	// Workers skipped by an external cancellation record no error;
	// report the outer context's verdict so the caller still fails.
	if m.Ctx != nil {
		return m.Ctx.Err()
	}
	return nil
}

// --- exchanges ------------------------------------------------------------

// router makes the routing function of a hash exchange — the partition
// each row goes to — once per fragment tree, so it may own scratch state.
type router func() func(sqltypes.Row) (int, error)

// shuffle routes rows so that those with equal key values land in the
// same partition. NULL keys go to partition 0 (they never match in
// joins but must survive for outer joins) — the same destination
// sqltypes.PartitionOf assigns them, so the exchange and the storage
// layer agree on one routing function.
func (m *Machine) shuffle(keys []*expr.Compiled) router {
	// Keys that are all bare columns route on the row itself, at their
	// positions; a row too short for one takes EvalKey, which fails as
	// evaluating it does. Other keys route on the values EvalKey puts in
	// the scratch row, at positions 0..len(keys)-1.
	cols, width, inRow := make([]int, len(keys)), 0, true
	for i, k := range keys {
		cols[i], width = k.Col, max(width, k.Col+1)
		inRow = inRow && k.Col >= 0
	}
	if !inRow {
		for i := range cols {
			cols[i] = i
		}
	}
	return func() func(sqltypes.Row) (int, error) {
		vals := make(sqltypes.Row, len(keys)) // per-tree key scratch
		return func(r sqltypes.Row) (int, error) {
			if inRow && len(r) >= width {
				return sqltypes.PartitionOf(r, cols, m.Parts), nil
			}
			null, err := exec.EvalKey(keys, r, vals)
			if err != nil {
				return 0, err
			}
			if null {
				// EvalKey stops at the first NULL, so route explicitly;
				// Partition sends NULL-bearing keys to 0 too.
				return 0, nil
			}
			return sqltypes.PartitionOf(vals, cols, m.Parts), nil
		}
	}
}

// shuffleCols routes each row by the values at the given column
// positions — the direct-column variant of shuffle used by the
// pre-aggregated groups and the full-row distinct exchange, where the
// routing values are already materialized in the row.
func (m *Machine) shuffleCols(cols []int) router {
	route := func(r sqltypes.Row) (int, error) {
		return sqltypes.PartitionOf(r, cols, m.Parts), nil
	}
	return func() func(sqltypes.Row) (int, error) { return route }
}

func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// broadcast replicates a relation to every partition (the copies
// count as movement).
func (m *Machine) broadcast(in relation) relation {
	rows := in.gather()
	m.Stats.RowsShuffled += int64(len(rows)) * int64(m.Parts-1)
	out := relation{parts: make([][]sqltypes.Row, m.Parts), from: in.from}
	for p := range out.parts {
		out.parts[p] = rows
	}
	return out
}

// gather moves a relation to partition 0, in partition order. Sorts and
// top-N count the rows as movement; the gathers in front of a LIMIT and
// of a scalar aggregate never have.
func (m *Machine) gather(counted bool) exchange {
	return func(in relation) relation {
		out := relation{parts: make([][]sqltypes.Row, m.Parts), from: in.from}
		out.parts[0] = in.gather()
		if counted {
			m.Stats.RowsShuffled += int64(len(out.parts[0]))
		}
		return out
	}
}
