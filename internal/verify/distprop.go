package verify

// Partition-property re-derivation: an independent implementation of
// the static analysis in internal/distprop, checking every recorded
// DistClaim and every licensed shuffle elision of a compiled program.
// The producer infers properties with expression-compiler-based key
// resolution and a union-find equivalence relation; this checker walks
// the same plans with its own inference, its own AST key splitter
// (schema-based resolution, no expression compiler) and its own
// equivalence tracking, so a bug in the producer's inference cannot
// hide in an identical re-run. It shares with the producer only the
// traversal of the step CFG (core.Forward) and the slot meet
// (distprop.MeetSlots); its transfer function is its own, and
// bad-jump checks the loop wiring that traversal follows. Fail closed
// throughout: anything this pass cannot prove is Unknown, any claim
// stronger than the re-derived property is reported, and any elision
// the re-derivation does not license is reported.

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
	"dbspinner/internal/distprop"
	"dbspinner/internal/plan"
	"dbspinner/internal/storage"
)

const (
	// ClassUnsoundDistProp: a recorded distribution-property claim
	// (core.Program.DistProps) is stronger than what the independent
	// re-derivation of the partition-property analysis can prove — a
	// consumer trusting it (shuffle elision, EXPLAIN) would assume row
	// placement the machine does not guarantee.
	ClassUnsoundDistProp = "unsound-partition-claim"
	// ClassMissingExchange: the program licenses the machine to skip an
	// exchange (core.Program.Elisions) that the independent
	// re-derivation does not prove redundant — running it would consume
	// rows from partitions they provably need not be in.
	ClassMissingExchange = "missing-exchange"
)

// checkDistProps re-derives the partition-property analysis and
// compares it against the program's recorded claims and elisions.
// Programs that never ran the analysis (hand-built) record neither and
// are skipped.
func checkDistProps(prog *core.Program) []Diagnostic {
	if prog.DistProps == nil && prog.Elisions == nil {
		return nil
	}
	d := &distChecker{prog: prog}
	d.td, _ = prog.Lookup.(distprop.TableDist)
	d.run()
	return d.diags
}

type distChecker struct {
	prog  *core.Program
	td    distprop.TableDist
	diags []Diagnostic
	// licensed collects this checker's own elision verdicts, keyed by
	// plan-node identity and exchange: a recorded elision must match
	// one of these exactly.
	licensed map[vExchKey]*vVerdict
}

type vExchKey struct {
	node plan.Node
	exch distprop.Exchange
}

type vVerdict struct {
	cols []int
	ok   bool
}

func (d *distChecker) addDiag(step int, class, format string, args ...any) {
	d.diags = append(d.diags, Diagnostic{Step: step, Class: class, Message: fmt.Sprintf(format, args...)})
}

func (d *distChecker) run() {
	entry := core.Forward(d.prog.Steps, vState{}, func(i int, in vState) vState {
		return core.VisitStep[vStep](d.prog.Steps[i], vCases{d: d, in: in}).out
	}, distprop.MeetSlots[vState])

	// Only now, with the entry states stable, does inference record its
	// elision verdicts.
	d.licensed = make(map[vExchKey]*vVerdict)
	derived := make(map[int]vStep) // step (1-based; 0 = final) -> re-derived bound slot
	for i, s := range d.prog.Steps {
		if r := core.VisitStep[vStep](s, vCases{d: d, in: entry[i]}); r.slot != "" {
			derived[i+1] = r
		}
	}
	if d.prog.Final != nil {
		derived[0] = vStep{res: d.infer(entry[len(d.prog.Steps)], d.prog.Final)}
	}

	for _, c := range d.prog.DistProps {
		if c.Prop.Kind == distprop.KindUnknown {
			continue // claiming nothing is always sound
		}
		dr, have := derived[c.Step]
		if !have {
			d.addDiag(c.Step, ClassUnsoundDistProp,
				"property %s claimed for a step that binds no result", c.Prop)
			continue
		}
		if c.Step != 0 && normSlot(c.Slot) != normSlot(dr.slot) {
			d.addDiag(c.Step, ClassUnsoundDistProp,
				"claim names slot %q but the step binds %q", c.Slot, dr.slot)
			continue
		}
		if !dr.res.satisfies(c.Prop) {
			d.addDiag(c.Step, ClassUnsoundDistProp,
				"claimed %s, re-derivation proves only %s", c.Prop, dr.res.prop)
		}
	}

	shuffles := d.prog.Parallel && d.prog.Parts > 1
	for _, el := range d.prog.Elisions {
		if !shuffles {
			d.addDiag(el.Step, ClassMissingExchange,
				"%s elided but the program does not shuffle (parallel=%v parts=%d)",
				el.Exch, d.prog.Parallel, d.prog.Parts)
			continue
		}
		v := d.licensed[vExchKey{node: el.Node, exch: el.Exch}]
		if v == nil || !v.ok {
			d.addDiag(el.Step, ClassMissingExchange,
				"%s elided on cols %v but the re-derivation does not prove the input co-partitioned", el.Exch, el.Cols)
			continue
		}
		if !slices.Equal(v.cols, el.Cols) {
			d.addDiag(el.Step, ClassMissingExchange,
				"%s elided on cols %v but the re-derivation licenses only cols %v", el.Exch, el.Cols, v.cols)
		}
	}
}

// note records this checker's verdict for one exchange, with the same
// conflict rule the producer uses: a node reached through more than one
// inference context stays licensed only if every context agrees.
func (d *distChecker) note(n plan.Node, ex distprop.Exchange, cols []int, ok bool) {
	if d.licensed == nil {
		return
	}
	key := vExchKey{node: n, exch: ex}
	if v, seen := d.licensed[key]; seen {
		if !ok || !slices.Equal(v.cols, cols) {
			v.ok = false
		}
		return
	}
	d.licensed[key] = &vVerdict{cols: append([]int(nil), cols...), ok: ok}
}

func normSlot(name string) string { return storage.NormalizeName(name) }

// vState maps normalized slot names to re-derived properties; absent
// means Unknown.
type vState map[string]distprop.Property

func (s vState) bind(slot string, p distprop.Property) {
	if p.Kind == distprop.KindUnknown {
		delete(s, normSlot(slot))
	} else {
		s[normSlot(slot)] = p
	}
}

// vStep is what one step does to the re-derived slot properties: the
// state after it, and the slot it binds (empty for a step that binds
// none) with the result re-derived for it.
type vStep struct {
	out  vState
	slot string
	res  vRes
}

// vCases is this checker's own transfer function, one case per step
// kind, applied to the entry state in.
type vCases struct {
	d  *distChecker
	in vState
}

func (c vCases) bind(slot string, res vRes) vStep {
	out := maps.Clone(c.in)
	out.bind(slot, res.prop)
	return vStep{out: out, slot: slot, res: res}
}

func (c vCases) Materialize(t *core.MaterializeStep) vStep {
	return c.bind(t.Into, c.d.infer(c.in, t.Plan))
}

func (c vCases) Rename(t *core.RenameStep) vStep {
	prop := c.in[normSlot(t.From)]
	out := maps.Clone(c.in)
	delete(out, normSlot(t.From))
	out.bind(t.To, prop)
	return vStep{out: out, slot: t.To, res: vRes{prop: prop}}
}

func (c vCases) CopyBack(t *core.CopyBackStep) vStep {
	r := c.bind(t.To, vRes{prop: distprop.Hash(0)})
	delete(r.out, normSlot(t.From))
	return r
}

func (c vCases) Merge(t *core.MergeStep) vStep {
	r := c.bind(t.Into, vRes{prop: distprop.Hash(0)})
	if t.Delta != "" {
		r.out.bind(t.Delta, distprop.Hash(0))
	}
	return r
}

func (c vCases) Truncate(t *core.TruncateStep) vStep {
	out := maps.Clone(c.in)
	delete(out, normSlot(t.Name))
	return vStep{out: out}
}

func (c vCases) InitLoop(*core.InitLoopStep) vStep     { return vStep{out: c.in} }
func (c vCases) UpdateLoop(*core.UpdateLoopStep) vStep { return vStep{out: c.in} }
func (c vCases) Loop(*core.LoopStep) vStep             { return vStep{out: c.in} }

// vRes is a re-derived property plus the column-equality knowledge
// gathered alongside it. eq is nil for results whose columns carry no
// equalities (identity relation).
type vRes struct {
	prop distprop.Property
	eq   *vEq
}

// satisfies reports whether the re-derived result guarantees p,
// comparing hash columns position-wise modulo re-derived equalities.
func (r vRes) satisfies(p distprop.Property) bool {
	switch p.Kind {
	case distprop.KindUnknown:
		return true
	case distprop.KindSingleton:
		return r.prop.Kind == distprop.KindSingleton
	}
	if r.prop.Kind != distprop.KindHash || len(r.prop.Cols) != len(p.Cols) {
		return false
	}
	for i := range p.Cols {
		if !r.eq.equal(r.prop.Cols[i], p.Cols[i]) {
			return false
		}
	}
	return true
}

// infer is this checker's own inference over plan nodes.
func (d *distChecker) infer(st vState, n plan.Node) vRes {
	return plan.Visit[vRes](n, vInfer{d: d, st: st})
}

// vInfer is this checker's inference rule for each plan node kind,
// under the slot properties st.
type vInfer struct {
	d  *distChecker
	st vState
}

func (v vInfer) Scan(t *plan.Scan) vRes {
	if td := v.d.td; td != nil {
		if dc, parts, ok := td.TableDistribution(t.Table); ok && dc >= 0 && parts == v.d.prog.Parts {
			return vRes{prop: distprop.Hash(dc)}
		}
	}
	return vRes{}
}

func (v vInfer) NamedResult(t *plan.NamedResult) vRes {
	return vRes{prop: v.st[normSlot(t.Name)]}
}

func (v vInfer) OneRow(*plan.OneRow) vRes { return vRes{prop: distprop.Singleton()} }

func (v vInfer) Filter(t *plan.Filter) vRes { return v.d.infer(v.st, t.Input) }

func (v vInfer) Project(t *plan.Project) vRes {
	in := v.d.infer(v.st, t.Input)
	images := make(map[int][]int)
	for i, it := range t.Items {
		if c := schemaCol(it.Expr, t.Input.Columns()); c >= 0 {
			images[c] = append(images[c], i)
		}
	}
	return vRes{prop: projectProp(in.prop, images), eq: in.eq.project(images)}
}

func (v vInfer) Alias(t *plan.Alias) vRes { return v.d.infer(v.st, t.Input) }

func (v vInfer) Join(t *plan.Join) vRes { return v.d.inferJoin(v.st, t) }

func (v vInfer) Aggregate(t *plan.Aggregate) vRes { return v.d.inferAggregate(v.st, t) }

func (v vInfer) Union(t *plan.Union) vRes {
	l := v.d.infer(v.st, t.Left)
	r := v.d.infer(v.st, t.Right)
	for _, cand := range []distprop.Property{l.prop, r.prop} {
		if l.satisfies(cand) && r.satisfies(cand) {
			return vRes{prop: cand}
		}
	}
	return vRes{}
}

func (v vInfer) Distinct(t *plan.Distinct) vRes {
	in := v.d.infer(v.st, t.Input)
	all := make([]int, len(t.Input.Columns()))
	for i := range all {
		all[i] = i
	}
	v.d.note(t, distprop.DistinctInput, all, in.satisfies(distprop.Hash(all...)))
	return vRes{prop: distprop.Hash(all...), eq: in.eq}
}

func (v vInfer) Sort(t *plan.Sort) vRes   { return v.singleton(t.Input) }
func (v vInfer) Limit(t *plan.Limit) vRes { return v.singleton(t.Input) }
func (v vInfer) TopN(t *plan.TopN) vRes   { return v.singleton(t.Input) }

func (v vInfer) singleton(input plan.Node) vRes {
	return vRes{prop: distprop.Singleton(), eq: v.d.infer(v.st, input).eq}
}

func (v vInfer) Trim(t *plan.Trim) vRes {
	in := v.d.infer(v.st, t.Input)
	images := make(map[int][]int)
	for c := 0; c < t.Keep && c < len(t.Input.Columns()); c++ {
		images[c] = []int{c}
	}
	return vRes{prop: projectProp(in.prop, images), eq: in.eq.project(images)}
}

func (v vInfer) Values(*plan.ValuesNode) vRes { return vRes{prop: distprop.Singleton()} }
func (v vInfer) Empty(*plan.EmptyNode) vRes   { return vRes{prop: distprop.Singleton()} }

func (d *distChecker) inferAggregate(st vState, t *plan.Aggregate) vRes {
	in := d.infer(st, t.Input)
	k := len(t.GroupBy)
	if k == 0 {
		return vRes{prop: distprop.Singleton()}
	}
	inCols := t.Input.Columns()
	gcols := make([]int, k)
	images := make(map[int][]int)
	for j, g := range t.GroupBy {
		gcols[j] = schemaCol(g, inCols)
		if gcols[j] >= 0 {
			images[gcols[j]] = append(images[gcols[j]], j)
		}
	}
	// Elidable iff every routing column of the input is definitely
	// equal to some bare group column (order-free subset rule): equal
	// group tuples then imply co-located rows, so local exact
	// aggregation plus the output-row exchange reproduces the global
	// aggregation byte for byte.
	licensed := in.prop.Kind == distprop.KindHash
	for _, c := range in.prop.Cols {
		if !licensed {
			break
		}
		found := false
		for _, g := range gcols {
			if g >= 0 && in.eq.equal(c, g) {
				found = true
				break
			}
		}
		licensed = found
	}
	d.note(t, distprop.AggregateInput, in.prop.Cols, licensed)
	outCols := make([]int, k)
	for i := range outCols {
		outCols[i] = i
	}
	return vRes{prop: distprop.Hash(outCols...), eq: in.eq.project(images)}
}

func (d *distChecker) inferJoin(st vState, t *plan.Join) vRes {
	l := d.infer(st, t.Left)
	r := d.infer(st, t.Right)
	lw := len(t.Left.Columns())
	pairs := d.joinPairs(t)

	eq := joinEq(l.eq, r.eq, lw,
		t.Type == ast.RightJoin || t.Type == ast.FullJoin,
		t.Type == ast.LeftJoin || t.Type == ast.FullJoin)
	switch t.Type {
	case ast.InnerJoin:
		for _, p := range pairs {
			if p.l >= 0 && p.r >= 0 {
				eq.merge(p.l, lw+p.r)
			}
			if p.l >= 0 {
				eq.solidify(p.l)
			}
			if p.r >= 0 {
				eq.solidify(lw + p.r)
			}
		}
	case ast.LeftJoin:
		for _, p := range pairs {
			if p.l >= 0 && p.r >= 0 {
				eq.conditional(p.l, lw+p.r, lw+p.r)
			}
		}
	case ast.RightJoin:
		for _, p := range pairs {
			if p.l >= 0 && p.r >= 0 {
				eq.conditional(p.l, lw+p.r, p.l)
			}
		}
	}

	if t.Type == ast.CrossJoin || len(pairs) == 0 {
		if t.Type == ast.CrossJoin || t.Type == ast.InnerJoin {
			return vRes{prop: l.prop, eq: eq}
		}
		return vRes{prop: distprop.Unknown(), eq: eq}
	}

	lcols, lok := pairSide(pairs, false)
	rcols, rok := pairSide(pairs, true)
	d.note(t, distprop.JoinLeft, lcols, lok && l.satisfies(distprop.Hash(lcols...)))
	d.note(t, distprop.JoinRight, rcols, rok && r.satisfies(distprop.Hash(rcols...)))

	out := distprop.Unknown()
	switch t.Type {
	case ast.InnerJoin:
		if lok {
			out = distprop.Hash(lcols...)
		} else if rok {
			out = distprop.Hash(shiftCols(rcols, lw)...)
		}
	case ast.LeftJoin:
		if lok {
			out = distprop.Hash(lcols...)
		}
	case ast.RightJoin:
		if rok {
			out = distprop.Hash(shiftCols(rcols, lw)...)
		}
	}
	return vRes{prop: out, eq: eq}
}

func shiftCols(cols []int, by int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = c + by
	}
	return out
}

type vPair struct{ l, r int }

func pairSide(pairs []vPair, right bool) ([]int, bool) {
	out := make([]int, len(pairs))
	for i, p := range pairs {
		c := p.l
		if right {
			c = p.r
		}
		if c < 0 {
			return nil, false
		}
		out[i] = c
	}
	return out, true
}

// joinPairs re-derives the executor's equi-key list with schema-based
// resolution: a conjunct `x = y` is a key when each side's column
// references all resolve against one input (trying left/right, then
// swapped, in the executor's order); the bare-column position is kept
// where the side is a single plain reference. Anything this resolver
// cannot place is treated as residual — diverging from the executor
// here only makes the checker stricter.
func (d *distChecker) joinPairs(t *plan.Join) []vPair {
	if t.On == nil {
		return nil
	}
	lcols, rcols := t.Left.Columns(), t.Right.Columns()
	var pairs []vPair
	for _, c := range ast.SplitConjuncts(t.On) {
		b, isBin := c.(*ast.BinaryExpr)
		if !isBin || b.Op != "=" || ast.HasAggregate(b.L) || ast.HasAggregate(b.R) {
			continue
		}
		var le, re ast.Expr
		switch {
		case sideResolves(b.L, lcols) && sideResolves(b.R, rcols):
			le, re = b.L, b.R
		case sideResolves(b.R, lcols) && sideResolves(b.L, rcols):
			le, re = b.R, b.L
		default:
			continue
		}
		pairs = append(pairs, vPair{l: schemaCol(le, lcols), r: schemaCol(re, rcols)})
	}
	return pairs
}

// sideResolves reports whether every column reference in e resolves
// unambiguously against the given schema.
func sideResolves(e ast.Expr, cols []plan.ColInfo) bool {
	ok := true
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if cr, isRef := x.(*ast.ColumnRef); isRef {
			if resolveRef(cr, cols) < 0 {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// schemaCol resolves a bare column reference to its position in the
// schema, -1 for anything else (computed expressions, unresolvable or
// ambiguous references).
func schemaCol(e ast.Expr, cols []plan.ColInfo) int {
	cr, isRef := e.(*ast.ColumnRef)
	if !isRef {
		return -1
	}
	return resolveRef(cr, cols)
}

// resolveRef finds the unique schema position matching a reference the
// way the expression compiler does: qualifier (when present) and name,
// case-insensitively; ambiguity resolves to nothing.
func resolveRef(cr *ast.ColumnRef, cols []plan.ColInfo) int {
	found := -1
	for i, c := range cols {
		if !strings.EqualFold(cr.Name, c.Name) {
			continue
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, c.Table) {
			continue
		}
		if found >= 0 {
			return -1
		}
		found = i
	}
	return found
}

func projectProp(p distprop.Property, images map[int][]int) distprop.Property {
	switch p.Kind {
	case distprop.KindSingleton:
		return p
	case distprop.KindHash:
		out := make([]int, len(p.Cols))
		for i, c := range p.Cols {
			img := images[c]
			if len(img) == 0 {
				return distprop.Unknown()
			}
			out[i] = img[0]
		}
		return distprop.Hash(out...)
	}
	return distprop.Unknown()
}

// vEq tracks definite per-row column equality (NULLs compare equal)
// with map-based union-find, plus two refinements mirroring the
// executor's join semantics: columns known non-NULL on every row
// ("solid"), and conditional equalities from outer-join keys that hold
// unless a guard column is NULL — promoted to definite equalities once
// the guard solidifies. nil is the identity relation.
type vEq struct {
	parent map[int]int
	solid  map[int]bool
	conds  []vCond
}

type vCond struct{ a, b, guard int }

func newVEq() *vEq {
	return &vEq{parent: map[int]int{}, solid: map[int]bool{}}
}

func (e *vEq) root(x int) int {
	if e == nil {
		return x
	}
	r, ok := e.parent[x]
	if !ok || r == x {
		return x
	}
	top := e.root(r)
	e.parent[x] = top
	return top
}

func (e *vEq) equal(a, b int) bool {
	if a == b {
		return true
	}
	if e == nil || a < 0 || b < 0 {
		return false
	}
	return e.root(a) == e.root(b)
}

func (e *vEq) merge(a, b int) {
	ra, rb := e.root(a), e.root(b)
	if ra == rb {
		return
	}
	e.parent[ra] = rb
	if e.solid[ra] {
		e.solidify(rb)
	}
}

func (e *vEq) conditional(a, b, guard int) {
	if e.solid[e.root(guard)] {
		e.merge(a, b)
		return
	}
	e.conds = append(e.conds, vCond{a: a, b: b, guard: guard})
}

// solidify marks a column's class non-NULL and promotes every
// conditional equality whose guard just became solid, cascading.
func (e *vEq) solidify(x int) {
	r := e.root(x)
	if e.solid[r] {
		return
	}
	e.solid[r] = true
	for again := true; again; {
		again = false
		kept := e.conds[:0]
		for _, c := range e.conds {
			if e.solid[e.root(c.guard)] {
				e.merge(c.a, c.b)
				again = true
				continue
			}
			kept = append(kept, c)
		}
		e.conds = kept
	}
}

// project rewrites the relation through a projection: images maps each
// input column to the output positions that copy it verbatim.
func (e *vEq) project(images map[int][]int) *vEq {
	if e == nil {
		// Identity in, identity out — but duplicated copies of one
		// input column are equal in the output.
		e = newVEq()
	}
	out := newVEq()
	// Representative output column per input-equivalence class.
	rep := map[int]int{}
	solidClass := map[int]bool{}
	condByIn := e.conds
	for in, outs := range images {
		if len(outs) == 0 {
			continue
		}
		r := e.root(in)
		first, have := rep[r]
		if !have {
			rep[r] = outs[0]
			first = outs[0]
			if e.solid[r] {
				solidClass[r] = true
			}
		}
		for _, o := range outs {
			out.merge(first, o)
		}
	}
	for r, first := range rep {
		if solidClass[r] {
			out.solidify(first)
		}
	}
	// Conditional equalities survive when all three columns have images.
	for _, c := range condByIn {
		ra, rb, rg := e.root(c.a), e.root(c.b), e.root(c.guard)
		pa, oka := rep[ra]
		pb, okb := rep[rb]
		pg, okg := rep[rg]
		if oka && okb && okg {
			out.conditional(pa, pb, pg)
		}
	}
	return out
}

// joinEq concatenates two sides' relations into the join's output
// frame. Equalities and conditionals survive unconditionally (they are
// vacuous or NULL-equal on NULL-extended rows); non-NULL facts survive
// only from sides the join cannot NULL-extend.
func joinEq(l, r *vEq, lw int, lNullable, rNullable bool) *vEq {
	out := newVEq()
	copySide := func(e *vEq, off int, nullable bool) {
		if e == nil {
			return
		}
		for x := range e.parent {
			out.merge(x+off, e.root(x)+off)
		}
		for _, c := range e.conds {
			out.conditional(c.a+off, c.b+off, c.guard+off)
		}
		if !nullable {
			for x, s := range e.solid {
				if s {
					out.solidify(x + off)
				}
			}
		}
	}
	copySide(l, 0, lNullable)
	copySide(r, lw, rNullable)
	return out
}
