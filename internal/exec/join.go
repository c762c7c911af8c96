package exec

import (
	"fmt"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// buildJoin compiles a join node. Equi-conjuncts of the ON condition
// become hash keys; remaining conjuncts are evaluated as a residual
// predicate on each candidate pair. Joins without any equi-key fall
// back to a nested loop.
func buildJoin(t *plan.Join, rt Runtime, stats *Stats, cc *CancelChecker, borrow bool, frag *fragPart) (Operator, error) {
	// The side a join streams is read one row at a time; the other side
	// is drained and kept: the right input, except that a right-outer
	// hash join builds on its left.
	keepLeft := t.Type == ast.RightJoin
	left, err := buildWith(t.Left, rt, stats, cc, !keepLeft, frag)
	if err != nil {
		return nil, err
	}
	right, err := buildWith(t.Right, rt, stats, cc, keepLeft, frag)
	if err != nil {
		return nil, err
	}
	out := outRows{borrow: borrow}
	lw, rw := len(t.Left.Columns()), len(t.Right.Columns())
	buildOp := right
	if keepLeft {
		buildOp = left
	}
	build := tableScan(buildOp)

	keys, err := joinKeysOf(rt.Memo(), t)
	if err != nil {
		return nil, err
	}
	leftKeys, rightKeys, residual := keys.left, keys.right, keys.residual

	switch t.Type {
	case ast.CrossJoin:
		return &nestedLoopOp{left: left, right: right, residual: residual, stats: stats, cancel: cc, out: out}, nil
	case ast.InnerJoin, ast.LeftJoin, ast.RightJoin, ast.FullJoin:
		if len(leftKeys) == 0 {
			if t.Type == ast.InnerJoin {
				return &nestedLoopOp{left: left, right: right, residual: residual, stats: stats, cancel: cc, out: out}, nil
			}
			return nil, fmt.Errorf("outer join requires at least one equality condition between the two sides")
		}
		return &hashJoinOp{
			typ: t.Type, left: left, right: right,
			leftKeys: leftKeys, rightKeys: rightKeys,
			residual: residual, leftWidth: lw, rightWidth: rw,
			buildRead: build, memo: rt.Memo(), run: keys.run, part: frag.partition(),
			stats: stats, cancel: cc, out: out,
		}, nil
	}
	return nil, fmt.Errorf("unsupported join type %v", t.Type)
}

// splitEquiKey recognizes conjuncts of the form leftExpr = rightExpr
// where each side compiles against one input (in either order). It
// returns the key expressions of the left and right inputs, as the check
// compiled them.
func splitEquiKey(e ast.Expr, leftEnv, rightEnv *expr.Env) (lk, rk *expr.Compiled, ok bool) {
	b, isBin := e.(*ast.BinaryExpr)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	if ast.HasAggregate(b.L) || ast.HasAggregate(b.R) {
		return nil, nil, false
	}
	for _, x := range [2][2]ast.Expr{{b.L, b.R}, {b.R, b.L}} {
		if lk, err := expr.Compile(x[0], leftEnv); err == nil {
			if rk, err := expr.Compile(x[1], rightEnv); err == nil {
				return lk, rk, true
			}
		}
	}
	return nil, nil, false
}

// compileJoinKeys compiles a join node's equi-key expressions and
// residual predicate under a run's bound literal values. Conjuncts that
// do not split into one-side = other-side form become the residual. The
// key expressions are also what the MPP machine routes each side's rows
// by, and what distprop reasons about.
func compileJoinKeys(t *plan.Join, params []sqltypes.Value) (leftKeys, rightKeys []*expr.Compiled, residual *expr.Compiled, err error) {
	if t.On == nil {
		return nil, nil, nil, nil
	}
	leftEnv := planEnv(t.Left, params)
	rightEnv := planEnv(t.Right, params)
	var resids []ast.Expr
	for _, conj := range ast.SplitConjuncts(t.On) {
		lk, rk, ok := splitEquiKey(conj, leftEnv, rightEnv)
		if !ok {
			resids = append(resids, conj)
			continue
		}
		leftKeys = append(leftKeys, lk)
		rightKeys = append(rightKeys, rk)
	}
	if rem := ast.JoinConjuncts(resids); rem != nil {
		residual, err = expr.Compile(rem, planEnv(t, params))
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return leftKeys, rightKeys, residual, nil
}

// joinKeys is what compileJoinKeys returns, plus the node's run state
// where it is an inner or left join with no residual, which the join →
// exchange form may run (batch.go).
type joinKeys struct {
	left, right []*expr.Compiled
	residual    *expr.Compiled
	run         *joinRun
}

// joinKeysOf is compileJoinKeys, once per c.
func joinKeysOf(m *Memo, t *plan.Join) (joinKeys, error) {
	return shared(m, t, func() (k joinKeys, err error) {
		k.left, k.right, k.residual, err = compileJoinKeys(t, m.Params())
		if err == nil && k.residual == nil && len(k.left) > 0 && (t.Type == ast.InnerJoin || t.Type == ast.LeftJoin) {
			k.run = runOf(m, t, func() *joinRun { return new(joinRun) })
		}
		return k, err
	})
}

// HashIndex is the build side of an equi-join: the build rows, chained
// per distinct key in insertion order. Keys live in a sqltypes.KeyTable;
// head is indexed by key id, next by build-row position, so a probe
// walks head[id], next[...], ... and meets its matches in the order the
// build side produced them. Rows with a NULL key component are
// kept (outer joins emit them) but chained nowhere: NULL never matches.
// An index is read-only once built, so any number of probers may share
// it (Memo.Index); each brings its own key scratch.
type HashIndex struct {
	Rows []sqltypes.Row

	keys *sqltypes.KeyTable
	head []int32
	next []int32

	// What a later build may fill again once this index is let go
	// (Memo.Recycle): links backs head, next and the build's
	// per-key tail, and rowBuf is the row slice the index owns — Rows
	// itself when the rows were drained, gathered or filtered into it,
	// never a table's own partition, which Rows may be instead.
	links  []int32
	rowBuf []sqltypes.Row
}

// BuildHashIndex indexes rows by the values of the key expressions.
func BuildHashIndex(rows []sqltypes.Row, keyEx []*expr.Compiled) (*HashIndex, error) {
	return buildHashIndex(nil, rows, keyEx)
}

// buildHashIndex is BuildHashIndex into the storage of x, an index that
// was let go (nil: none), which it returns filled.
func buildHashIndex(x *HashIndex, rows []sqltypes.Row, keyEx []*expr.Compiled) (*HashIndex, error) {
	if x == nil {
		x = &HashIndex{keys: new(sqltypes.KeyTable)}
	}
	// There are at most as many keys as rows, so head and tail are sized
	// once; head is cut to the key count at the end.
	n := len(rows)
	if cap(x.links) < 3*n {
		x.links = make([]int32, 3*n)
	}
	links := x.links[:3*n]
	x.Rows, x.next, x.head = rows, links[:n:n], links[n:2*n]
	tail := links[2*n:] // per key id: the last row of its chain so far
	x.keys.Reset(len(keyEx), 0, n)
	buf := make([]sqltypes.Value, len(keyEx))
	for i, r := range rows {
		x.next[i] = -1
		null, err := EvalKey(keyEx, r, buf)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		id, added := x.keys.Insert(buf)
		if added {
			x.head[id] = int32(i)
		} else {
			x.next[tail[id]] = int32(i)
		}
		tail[id] = int32(i)
	}
	x.head = x.head[:x.keys.Len():x.keys.Len()]
	return x, nil
}

// First returns the position in Rows of the first build row whose key
// equals the probe row's, or -1 (also for a NULL probe key). buf is the
// caller's key scratch, len(keyEx) long.
func (x *HashIndex) First(probe sqltypes.Row, keyEx []*expr.Compiled, buf []sqltypes.Value) (int32, error) {
	null, err := EvalKey(keyEx, probe, buf)
	if err != nil || null {
		return -1, err
	}
	return x.find(buf), nil
}

// find returns the position in Rows of the first build row whose key is
// key, which holds no NULL, or -1.
func (x *HashIndex) find(key []sqltypes.Value) int32 {
	id := x.keys.Find(key)
	if id < 0 {
		return -1
	}
	return x.head[id]
}

// Next returns the match after build row i, or -1.
func (x *HashIndex) Next(i int32) int32 { return x.next[i] }

// EvalKey evaluates the key expressions over r into buf (len(buf) must
// be len(keys)), reporting whether a component was NULL; evaluation
// stops at the first NULL, buf is then partly written. A bare-column key
// is read in place (see evalInto).
func EvalKey(keys []*expr.Compiled, r sqltypes.Row, buf []sqltypes.Value) (null bool, err error) {
	for i, k := range keys {
		var v sqltypes.Value
		if c := k.Col; c >= 0 && c < len(r) {
			v = r[c]
		} else if v, err = k.Eval(r); err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		buf[i] = v
	}
	return false, nil
}

// hashJoinOp implements inner, left-outer, right-outer and full-outer
// hash joins. The build side is the right input except for right-outer
// joins, where the left input is built and the right side streamed.
type hashJoinOp struct {
	typ                   ast.JoinType
	left, right           Operator
	leftKeys, rightKeys   []*expr.Compiled
	residual              *expr.Compiled
	leftWidth, rightWidth int
	stats                 *Stats
	cancel                *CancelChecker
	// When the build input reads a table as it stands or filtered
	// (tableScan), the index comes from the run's memo instead of from
	// draining the input.
	buildRead tableRead
	// memo is the run's, which takes back an index the join built for
	// itself alone (own) when it closes.
	memo *Memo
	// run is the node's run state, nil but for an inner or left join with
	// no residual (joinKeys); part is the partition whose tree it is.
	run  *joinRun
	part int

	build            *HashIndex
	own              bool
	matched          []bool // per build row; full-outer only
	probe            Operator
	probeKeys        []*expr.Compiled
	probeBuf         []sqltypes.Value // probe-key scratch
	probeRow         sqltypes.Row
	match            int32 // next candidate build row for probeRow, -1 when exhausted
	emittedForProbe  bool
	leftoverIdx      int
	drainingLeftover bool
	out              outRows
}

// buildIsLeft reports whether the left input is the build side.
func (h *hashJoinOp) buildIsLeft() bool { return h.typ == ast.RightJoin }

func (h *hashJoinOp) Open() error {
	var buildOp Operator
	var buildKeys []*expr.Compiled
	if h.buildIsLeft() {
		buildOp, buildKeys = h.left, h.leftKeys
		h.probe, h.probeKeys = h.right, h.rightKeys
	} else {
		buildOp, buildKeys = h.right, h.rightKeys
		h.probe, h.probeKeys = h.left, h.leftKeys
	}

	memoized, err := h.indexTable(buildKeys)
	if err == nil && !memoized {
		// A drained build side is indexed in the storage of an index some
		// join let go, if the run's memo holds one; its size is not known
		// before the drain, so any spare fits.
		x := h.memo.spareIndex(0)
		var rows []sqltypes.Row
		if rows, err = DrainInto(x.rowStorage(), buildOp); err == nil {
			if h.build, err = buildHashIndex(x, rows, buildKeys); err == nil {
				h.build.rowBuf, h.own = rows, true
			}
			h.stats.RowsIndexed += int64(len(rows))
		}
	}
	if err != nil {
		return err
	}
	h.matched = nil
	if h.typ == ast.FullJoin {
		h.matched = make([]bool, len(h.build.Rows))
	}
	if len(h.probeBuf) != len(h.probeKeys) {
		h.probeBuf = make([]sqltypes.Value, len(h.probeKeys))
	}
	h.probeRow = nil
	h.match = -1
	h.leftoverIdx = 0
	h.drainingLeftover = false
	h.out.reset()
	return h.probe.Open()
}

// indexTable takes the index of the table the build side reads — all of
// it, or the fragment's partition, filtered if the read is — from the
// run's memo, and reports whether it could: there is no such table, or a
// fragment's share of it is not one of its partitions, and then the build
// input is drained. Only a call that builds the index reads the table,
// and only that call counts the read; a tap sees the indexed rows either
// way.
func (h *hashJoinOp) indexTable(keys []*expr.Compiled) (memoized bool, err error) {
	s := h.buildRead.scan
	if s == nil {
		return false, nil
	}
	t, err := s.table()
	if err != nil {
		return false, err
	}
	read := t.Parts
	part := allParts
	if s.frag != nil {
		if !s.frag.aligned(t) {
			return false, nil
		}
		part = s.frag.part
		read = read[part : part+1]
	}
	var built bool
	if h.build, built, err = s.rt.Memo().Index(t, part, keys, h.buildRead.filter); err != nil {
		return false, err
	}
	h.own = built && !memoizable(keys)
	if built {
		h.stats.RowsIndexed += int64(len(h.build.Rows))
		for _, p := range read {
			h.stats.RowsScanned += int64(len(p))
			if !s.base {
				for _, r := range p {
					h.stats.ResultCellsRead += int64(len(r))
				}
			}
		}
	}
	if tap := h.buildRead.tap; tap != nil {
		for _, r := range h.build.Rows {
			if err := tap.see(r); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// joined builds the output row of a probe/build pair in left-then-right
// column order; a nil side is NULL-extended.
func (h *hashJoinOp) joined(probe, build sqltypes.Row) sqltypes.Row {
	left, right := probe, build
	if h.buildIsLeft() {
		left, right = build, probe
	}
	out := h.out.next(h.leftWidth + h.rightWidth)
	fillSide(out[:h.leftWidth], left)
	fillSide(out[h.leftWidth:], right)
	return out
}

// fillSide writes one input's columns of a join output row: src's
// values, then NULLs — all NULLs for the missing side of an outer join.
func fillSide(dst, src sqltypes.Row) { clear(dst[copy(dst, src):]) }

// outerProbe reports whether unmatched probe rows are emitted
// null-extended.
func (h *hashJoinOp) outerProbe() bool {
	return h.typ == ast.LeftJoin || h.typ == ast.RightJoin || h.typ == ast.FullJoin
}

func (h *hashJoinOp) Next() (sqltypes.Row, error) {
	for {
		if h.drainingLeftover {
			// Full-outer: emit unmatched build rows null-extended.
			for h.leftoverIdx < len(h.build.Rows) {
				i := h.leftoverIdx
				h.leftoverIdx++
				if h.matched[i] {
					continue
				}
				h.stats.RowsJoined++
				return h.joined(nil, h.build.Rows[i]), nil
			}
			return nil, nil
		}

		// Continue emitting matches for the current probe row.
		for h.match >= 0 {
			if err := h.cancel.Tick(); err != nil {
				return nil, err
			}
			bi := h.match
			h.match = h.build.Next(bi)
			out := h.joined(h.probeRow, h.build.Rows[bi])
			if h.residual != nil {
				ok, err := h.residual.Holds(out)
				if err != nil {
					return nil, err
				}
				if !ok {
					h.out.discard(out)
					continue
				}
			}
			if h.matched != nil {
				h.matched[bi] = true
			}
			h.emittedForProbe = true
			h.stats.RowsJoined++
			return out, nil
		}

		// The previous probe row is exhausted; emit its null-extended
		// form if it matched nothing and the join is outer.
		if h.probeRow != nil && !h.emittedForProbe && h.outerProbe() {
			out := h.joined(h.probeRow, nil)
			h.probeRow = nil
			h.stats.RowsJoined++
			return out, nil
		}

		// Advance to the next probe row.
		r, err := h.probe.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			if h.typ == ast.FullJoin {
				h.drainingLeftover = true
				continue
			}
			return nil, nil
		}
		h.probeRow = r
		h.emittedForProbe = false
		if h.match, err = h.build.First(r, h.probeKeys, h.probeBuf); err != nil {
			return nil, err
		}
	}
}

func (h *hashJoinOp) Close() error {
	if h.own {
		// No probe reads the index after Close, and its output rows are
		// copies: the index's storage can go to the next build.
		h.memo.Recycle(h.build)
	}
	h.build, h.own = nil, false
	h.matched = nil
	return h.probe.Close()
}

// nestedLoopOp implements cross joins and inner joins without
// equi-keys. The right side is materialized; the left side streams.
type nestedLoopOp struct {
	left, right Operator
	residual    *expr.Compiled
	stats       *Stats
	cancel      *CancelChecker

	rightRows []sqltypes.Row
	leftRow   sqltypes.Row
	rightIdx  int
	out       outRows
}

func (n *nestedLoopOp) Open() error {
	rows, err := Drain(n.right)
	if err != nil {
		return err
	}
	n.rightRows = rows
	n.leftRow = nil
	n.rightIdx = 0
	n.out.reset()
	return n.left.Open()
}

func (n *nestedLoopOp) Next() (sqltypes.Row, error) {
	for {
		if n.leftRow == nil {
			r, err := n.left.Next()
			if err != nil || r == nil {
				return nil, err
			}
			n.leftRow = r
			n.rightIdx = 0
		}
		for n.rightIdx < len(n.rightRows) {
			if err := n.cancel.Tick(); err != nil {
				return nil, err
			}
			rr := n.rightRows[n.rightIdx]
			n.rightIdx++
			out := n.out.next(len(n.leftRow) + len(rr))
			copy(out, n.leftRow)
			copy(out[len(n.leftRow):], rr)
			if n.residual != nil {
				ok, err := n.residual.Holds(out)
				if err != nil {
					return nil, err
				}
				if !ok {
					n.out.discard(out)
					continue
				}
			}
			n.stats.RowsJoined++
			return out, nil
		}
		n.leftRow = nil
	}
}

func (n *nestedLoopOp) Close() error {
	n.rightRows = nil
	return n.left.Close()
}
