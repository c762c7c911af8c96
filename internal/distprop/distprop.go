// Package distprop implements the static partition-property analysis:
// it infers, for every plan node, the distribution property the node's
// output relation is guaranteed to satisfy on the simulated MPP
// machine, bottom-up from the storage layout of base tables through
// projections, filters, joins, aggregations and exchanges.
//
// The property vocabulary is a three-point lattice per relation:
//
//	Unknown    ⊑  Hash(cols)   "every row r lives in partition
//	                            RowKey(r, cols).Partition(parts)"
//	Unknown    ⊑  Singleton    "every row lives in partition 0"
//
// Hash is order-sensitive — Hash(a,b) and Hash(b,a) route differently —
// so properties are compared position-wise, modulo definite column
// equivalence (columns proven value-equal on every row, e.g. the two
// sides of an inner equi-join key).
//
// The analysis licenses shuffle elision: when a join side, an
// aggregate input or a distinct input is already distributed on
// columns matching the exchange keys, the exchange provably routes
// every row to the partition it is already in, so the MPP machine may
// skip it (or, for aggregates, pre-aggregate locally and exchange only
// the one-row-per-group outputs) with byte-identical results. Every
// claim is re-derived independently by internal/verify before the
// machine trusts it, and the mpp layer can re-hash rows at consumption
// as a dynamic cross-check.
//
// The package is pure: it reads plans, never executes them, and its
// only knowledge of storage is the TableDist interface.
package distprop

import (
	"fmt"
	"maps"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/storage"
)

// Kind enumerates the points of the distribution-property lattice.
type Kind int

const (
	// KindUnknown is the lattice bottom: nothing is known about row
	// placement (round-robin layouts land here).
	KindUnknown Kind = iota
	// KindSingleton means every row lives in partition 0.
	KindSingleton
	// KindHash means every row r lives in partition
	// sqltypes.PartitionOf(r, Cols, parts), which is
	// RowKey(r, Cols).Partition(parts) — the machine's one routing
	// function, shared with storage DistCol inserts, both shuffle
	// exchanges and the keyed merge (NULL-bearing keys route to
	// partition 0 in all of them).
	KindHash
)

// Property is the distribution property of one relation.
type Property struct {
	Kind Kind
	// Cols are the routing column positions for KindHash, in routing
	// order.
	Cols []int
}

// Unknown returns the lattice bottom.
func Unknown() Property { return Property{Kind: KindUnknown} }

// Singleton returns the all-rows-in-partition-0 property.
func Singleton() Property { return Property{Kind: KindSingleton} }

// Hash returns the hash-distributed-on-cols property.
func Hash(cols ...int) Property { return Property{Kind: KindHash, Cols: cols} }

// Equal reports structural equality (position-wise column match).
func (p Property) Equal(q Property) bool {
	if p.Kind != q.Kind || len(p.Cols) != len(q.Cols) {
		return false
	}
	for i := range p.Cols {
		if p.Cols[i] != q.Cols[i] {
			return false
		}
	}
	return true
}

// Meet returns the greatest property implied by both inputs: equal
// properties meet to themselves, anything else to Unknown. (Callers
// holding equivalence information can do better; see Analysis.)
func Meet(p, q Property) Property {
	if p.Equal(q) {
		return p
	}
	return Unknown()
}

// MeetSlots is the meet of two states that map result slots to the
// properties their tables satisfy, a slot absent meaning Unknown: each
// slot keeps the property both states guarantee. It reports whether
// the meet differs from acc, and returns acc itself when it does not.
// It modifies neither map.
func MeetSlots[M ~map[string]Property](acc, in M) (M, bool) {
	var out M
	for k, a := range acc {
		m := Unknown()
		if b, ok := in[k]; ok {
			m = Meet(a, b)
		}
		if m.Equal(a) {
			continue
		}
		if out == nil {
			out = maps.Clone(acc)
		}
		if m.Kind == KindUnknown {
			delete(out, k)
		} else {
			out[k] = m
		}
	}
	if out == nil {
		return acc, false
	}
	return out, true
}

// String renders the property: "hash(0,2)", "singleton", "unknown".
func (p Property) String() string {
	switch p.Kind {
	case KindSingleton:
		return "singleton"
	case KindHash:
		parts := make([]string, len(p.Cols))
		for i, c := range p.Cols {
			parts[i] = fmt.Sprintf("%d", c)
		}
		return "hash(" + strings.Join(parts, ",") + ")"
	}
	return "unknown"
}

// Describe renders the property with column names substituted for
// positions, for EXPLAIN output: "hash(node)".
func (p Property) Describe(cols []plan.ColInfo) string {
	if p.Kind != KindHash {
		return p.String()
	}
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		if c >= 0 && c < len(cols) && cols[c].Name != "" {
			parts[i] = cols[c].Name
		} else {
			parts[i] = fmt.Sprintf("%d", c)
		}
	}
	return "hash(" + strings.Join(parts, ",") + ")"
}

// TableDist reports the storage distribution of a base table: the
// hash-distribution column (or -1 for round-robin) and the partition
// count. exec.StoreRuntime implements it over the catalog.
type TableDist interface {
	TableDistribution(name string) (distCol, parts int, ok bool)
}

// Exchange identifies one elidable exchange of a plan node.
type Exchange int

const (
	// JoinLeft and JoinRight are the two key shuffles of an equi-join.
	JoinLeft Exchange = iota
	JoinRight
	// AggregateInput is the group-key shuffle feeding a grouped
	// aggregate.
	AggregateInput
	// DistinctInput is the full-row shuffle feeding a Distinct.
	DistinctInput
)

// String names the exchange for diagnostics and EXPLAIN.
func (e Exchange) String() string {
	switch e {
	case JoinLeft:
		return "join left"
	case JoinRight:
		return "join right"
	case AggregateInput:
		return "aggregate input"
	case DistinctInput:
		return "distinct input"
	}
	return fmt.Sprintf("exchange(%d)", int(e))
}

// Decision records the analysis verdict for one exchange: Licensed
// means the exchange is provably redundant and may be elided; Cols are
// the claimed routing columns of the exchange's input (what a dynamic
// check re-hashes). Every exchange the analysis encounters produces a
// Decision, licensed or not, so callers can detect conflicting
// verdicts for plan nodes shared between inferences.
type Decision struct {
	Node     plan.Node
	Exch     Exchange
	Cols     []int
	Licensed bool
}

// Analysis carries the context of one property inference: the machine
// partition count, the storage layout oracle, and the properties of
// named result slots established by earlier steps of a step program.
type Analysis struct {
	// Parts is the MPP machine's partition count. Base-table layouts
	// with a different partition count are re-sliced by the scan and
	// contribute nothing.
	Parts int
	// Tables resolves base-table storage layouts; nil means no layout
	// knowledge (every scan is Unknown).
	Tables TableDist
	// Slots maps normalized result-slot names to the property their
	// stored table satisfies. Missing slots are Unknown.
	Slots map[string]Property
	// OnExchange, when non-nil, receives a Decision for every
	// elidable exchange encountered during Infer.
	OnExchange func(Decision)
}

// SlotProp returns the property recorded for a named result slot.
func (a *Analysis) SlotProp(name string) (Property, bool) {
	p, ok := a.Slots[storage.NormalizeName(name)]
	return p, ok
}

// Infer computes the distribution property of a plan node's output,
// reporting exchange decisions through OnExchange along the way.
func (a *Analysis) Infer(n plan.Node) Property {
	return a.infer(n).prop
}

// result couples a property with the column-equivalence knowledge
// gathered while deriving it.
type result struct {
	prop Property
	eq   *eqRel
}

func (a *Analysis) infer(n plan.Node) result {
	return plan.Visit[result](n, inferCases{a})
}

// inferCases is the analysis's inference rule for each plan node kind.
type inferCases struct{ *Analysis }

func (a inferCases) NamedResult(t *plan.NamedResult) result {
	eq := newEqRel(len(t.Cols))
	if p, ok := a.SlotProp(t.Name); ok {
		return result{prop: p, eq: eq}
	}
	return result{prop: Unknown(), eq: eq}
}

// OneRow is a single row in fragment 0.
func (a inferCases) OneRow(*plan.OneRow) result {
	return result{prop: Singleton(), eq: newEqRel(0)}
}

// Filter never moves rows.
func (a inferCases) Filter(t *plan.Filter) result { return a.infer(t.Input) }

// Alias changes name resolution only.
func (a inferCases) Alias(t *plan.Alias) result { return a.infer(t.Input) }

// Sort, Limit and TopN are order-sensitive: they gather to fragment 0,
// keeping column identities.
func (a inferCases) Sort(t *plan.Sort) result   { return a.gather(t.Input) }
func (a inferCases) Limit(t *plan.Limit) result { return a.gather(t.Input) }
func (a inferCases) TopN(t *plan.TopN) result   { return a.gather(t.Input) }

func (a inferCases) gather(input plan.Node) result {
	return result{prop: Singleton(), eq: a.infer(input).eq}
}

// Values produces its literal rows in fragment 0.
func (a inferCases) Values(t *plan.ValuesNode) result {
	return result{prop: Singleton(), eq: newEqRel(len(t.Cols))}
}

// Empty has no rows: every property holds vacuously, and Singleton is
// the most broadly useful.
func (a inferCases) Empty(t *plan.EmptyNode) result {
	return result{prop: Singleton(), eq: newEqRel(len(t.Cols))}
}

func (a inferCases) Scan(t *plan.Scan) result {
	eq := newEqRel(len(t.Cols))
	if a.Tables != nil {
		dc, parts, ok := a.Tables.TableDistribution(t.Table)
		// The scan adopts the stored layout only when the partition
		// counts agree; otherwise it re-slices round-robin.
		if ok && dc >= 0 && parts == a.Parts {
			return result{prop: Hash(dc), eq: eq}
		}
	}
	return result{prop: Unknown(), eq: eq}
}

func (a inferCases) Project(t *plan.Project) result {
	in := a.infer(t.Input)
	inW := len(t.Input.Columns())
	env := nodeEnv(t.Input)
	// images[c] lists the output positions that copy input column c
	// verbatim (bare column references only — any computation breaks
	// the routing-value identity).
	images := make([][]int, inW)
	for i, it := range t.Items {
		if c := bareCol(it.Expr, env); c >= 0 {
			images[c] = append(images[c], i)
		}
	}
	return result{prop: remapProp(in.prop, images), eq: in.eq.remap(images, len(t.Items))}
}

func (a inferCases) Trim(t *plan.Trim) result {
	in := a.infer(t.Input)
	inW := len(t.Input.Columns())
	images := make([][]int, inW)
	for c := 0; c < t.Keep && c < inW; c++ {
		images[c] = []int{c}
	}
	return result{prop: remapProp(in.prop, images), eq: in.eq.remap(images, t.Keep)}
}

func (a inferCases) Union(t *plan.Union) result {
	l := a.infer(t.Left)
	r := a.infer(t.Right)
	w := len(t.Left.Columns())
	// UnionAll concatenates partition-wise, so the output satisfies
	// exactly the properties both inputs satisfy. Column equivalences
	// would have to hold in both branches; drop them (sound).
	out := result{prop: Unknown(), eq: newEqRel(w)}
	for _, cand := range []Property{l.prop, r.prop} {
		if satisfies(l, cand) && satisfies(r, cand) {
			out.prop = cand
			break
		}
	}
	return out
}

func (a inferCases) Distinct(t *plan.Distinct) result {
	in := a.infer(t.Input)
	w := len(t.Input.Columns())
	all := make([]int, w)
	for i := range all {
		all[i] = i
	}
	// The full-row exchange is the identity when the input already
	// sits at its full-row RowKey destination — exactly Hash over
	// all columns in order.
	a.decide(t, DistinctInput, all, satisfies(in, Hash(all...)))
	// Elided or not, the output is distributed on the full row.
	return result{prop: Hash(all...), eq: in.eq}
}

func (a inferCases) Aggregate(t *plan.Aggregate) result {
	in := a.infer(t.Input)
	k := len(t.GroupBy)
	outW := k + len(t.Aggs)
	if k == 0 {
		// Scalar aggregates gather to fragment 0.
		return result{prop: Singleton(), eq: newEqRel(outW)}
	}
	env := nodeEnv(t.Input)
	inW := len(t.Input.Columns())
	images := make([][]int, inW)
	gcols := make([]int, k)
	for j, g := range t.GroupBy {
		gcols[j] = bareCol(g, env)
		if gcols[j] >= 0 {
			images[gcols[j]] = append(images[gcols[j]], j)
		}
	}
	// The group-key exchange is elidable iff the input is hash
	// distributed on columns each definitely equivalent to a bare
	// group column: equal group tuples then imply equal routing
	// tuples, so every group's rows already share a partition and can
	// be aggregated exactly in place (the machine still exchanges the
	// one-row-per-group outputs to their group-key destinations, so
	// placement is unchanged). Order-free subset rule: the routing
	// columns need not enumerate every group column, nor match their
	// order.
	licensed := in.prop.Kind == KindHash
	if licensed {
		for _, c := range in.prop.Cols {
			ok := false
			for _, g := range gcols {
				if g >= 0 && in.eq.same(c, g) {
					ok = true
					break
				}
			}
			if !ok {
				licensed = false
				break
			}
		}
	}
	a.decide(t, AggregateInput, in.prop.Cols, licensed)
	// Both paths leave the output routed by the full group tuple —
	// the leading k output columns in order.
	outCols := make([]int, k)
	for i := range outCols {
		outCols[i] = i
	}
	return result{prop: Hash(outCols...), eq: in.eq.remap(images, outW)}
}

func (a inferCases) Join(t *plan.Join) result {
	l := a.infer(t.Left)
	r := a.infer(t.Right)
	lw := len(t.Left.Columns())
	rw := len(t.Right.Columns())
	pairs := a.joinKeyCols(t)

	lNullable := t.Type == ast.RightJoin || t.Type == ast.FullJoin
	rNullable := t.Type == ast.LeftJoin || t.Type == ast.FullJoin
	eq := combineEq(l.eq, r.eq, lw, rw, lNullable, rNullable)
	switch t.Type {
	case ast.InnerJoin:
		// Inner equi-keys equate their columns on every output row,
		// and the hash join skips NULL keys on both sides, so each
		// bare key column is also non-NULL — which upgrades pending
		// outer-join caveats on it.
		for _, p := range pairs {
			if p.lcol >= 0 && p.rcol >= 0 {
				eq.union(p.lcol, lw+p.rcol)
			}
			if p.lcol >= 0 {
				eq.markNonNull(p.lcol)
			}
			if p.rcol >= 0 {
				eq.markNonNull(lw + p.rcol)
			}
		}
	case ast.LeftJoin:
		// L.k = R.k holds unless the right side is NULL-extended:
		// equal-unless-cond-NULL, upgradeable by a later inner join.
		for _, p := range pairs {
			if p.lcol >= 0 && p.rcol >= 0 {
				eq.addCaveat(p.lcol, lw+p.rcol, lw+p.rcol)
			}
		}
	case ast.RightJoin:
		for _, p := range pairs {
			if p.lcol >= 0 && p.rcol >= 0 {
				eq.addCaveat(p.lcol, lw+p.rcol, p.lcol)
			}
		}
	}

	if t.Type == ast.CrossJoin || len(pairs) == 0 {
		// Broadcast join: the right side is replicated, the left stays
		// put, so the left property survives (inner/cross only — the
		// machine rejects keyless outer joins).
		if t.Type == ast.CrossJoin || t.Type == ast.InnerJoin {
			return result{prop: l.prop, eq: eq}
		}
		return result{prop: Unknown(), eq: eq}
	}

	// Equi path: each side's exchange is elidable independently, and
	// only by exact identity — every key a bare column, and the side
	// already hash-distributed on exactly those columns in key order
	// (modulo the side's own definite equivalences). Then the shuffle
	// would route every row (NULL keys included: both route to
	// partition 0) to the partition it is already in.
	lcols, lok := sideCols(pairs, false)
	rcols, rok := sideCols(pairs, true)
	a.decide(t, JoinLeft, lcols, lok && satisfies(l, Hash(lcols...)))
	a.decide(t, JoinRight, rcols, rok && satisfies(r, Hash(rcols...)))

	// Output placement: rows land at their key destination. Matched
	// rows carry equal key values on both sides; NULL-extended rows
	// sit at the surviving side's key destination, which their NULL
	// side can never express — so each join type trusts only the
	// side(s) whose key columns are live on every output row.
	out := Unknown()
	switch t.Type {
	case ast.InnerJoin:
		if lok {
			out = Hash(lcols...)
		} else if rok {
			out = Hash(offsetCols(rcols, lw)...)
		}
	case ast.LeftJoin:
		if lok {
			out = Hash(lcols...)
		}
	case ast.RightJoin:
		if rok {
			out = Hash(offsetCols(rcols, lw)...)
		}
	}
	return result{prop: out, eq: eq}
}

// satisfies reports whether a derived result guarantees property p,
// comparing hash columns position-wise modulo the result's definite
// column equivalences.
func satisfies(r result, p Property) bool {
	switch p.Kind {
	case KindSingleton:
		return r.prop.Kind == KindSingleton
	case KindHash:
		if r.prop.Kind != KindHash || len(r.prop.Cols) != len(p.Cols) {
			return false
		}
		for i := range p.Cols {
			if !r.eq.same(r.prop.Cols[i], p.Cols[i]) {
				return false
			}
		}
		return true
	}
	return true // Unknown is implied by anything
}

func (a *Analysis) decide(n plan.Node, ex Exchange, cols []int, licensed bool) {
	if a.OnExchange != nil {
		a.OnExchange(Decision{Node: n, Exch: ex, Cols: cols, Licensed: licensed})
	}
}

// remapProp rewrites a property through a projection: every routing
// column must survive as a verbatim copy; images[c] lists the output
// positions copying input column c.
func remapProp(p Property, images [][]int) Property {
	switch p.Kind {
	case KindSingleton:
		return p
	case KindHash:
		out := make([]int, len(p.Cols))
		for i, c := range p.Cols {
			if c < 0 || c >= len(images) || len(images[c]) == 0 {
				return Unknown()
			}
			out[i] = images[c][0]
		}
		return Hash(out...)
	}
	return Unknown()
}

func offsetCols(cols []int, by int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = c + by
	}
	return out
}

// keyPair is one equi-join conjunct with its bare column positions
// (-1 when the key expression is not a bare column reference).
type keyPair struct {
	lcol, rcol int
}

// sideCols extracts one side's key columns in conjunct order,
// reporting whether every key on that side is a bare column.
func sideCols(pairs []keyPair, right bool) ([]int, bool) {
	out := make([]int, len(pairs))
	for i, p := range pairs {
		c := p.lcol
		if right {
			c = p.rcol
		}
		if c < 0 {
			return nil, false
		}
		out[i] = c
	}
	return out, true
}

// joinKeyCols mirrors the executor's equi-key extraction
// (exec's compileJoinKeys): conjuncts of the ON clause, in order, split into
// (left expr, right expr) pairs when one side compiles against each
// input; everything else is residual. Each pair is reduced to bare
// column positions where possible.
func (a *Analysis) joinKeyCols(t *plan.Join) []keyPair {
	if t.On == nil {
		return nil
	}
	lenv := nodeEnv(t.Left)
	renv := nodeEnv(t.Right)
	var pairs []keyPair
	for _, c := range ast.SplitConjuncts(t.On) {
		le, re, ok := splitEqui(c, lenv, renv)
		if !ok {
			continue
		}
		pairs = append(pairs, keyPair{lcol: bareCol(le, lenv), rcol: bareCol(re, renv)})
	}
	return pairs
}

// splitEqui mirrors exec.splitEquiKey: an equality whose sides compile
// against opposite inputs is a hash key; aggregates disqualify.
func splitEqui(e ast.Expr, lenv, renv *expr.Env) (ast.Expr, ast.Expr, bool) {
	b, ok := e.(*ast.BinaryExpr)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	if ast.HasAggregate(b.L) || ast.HasAggregate(b.R) {
		return nil, nil, false
	}
	resolves := func(x ast.Expr, env *expr.Env) bool {
		_, err := expr.Compile(x, env)
		return err == nil
	}
	if resolves(b.L, lenv) && resolves(b.R, renv) {
		return b.L, b.R, true
	}
	if resolves(b.R, lenv) && resolves(b.L, renv) {
		return b.R, b.L, true
	}
	return nil, nil, false
}

// bareCol returns the column position a bare column reference resolves
// to in the environment, or -1.
func bareCol(e ast.Expr, env *expr.Env) int {
	cr, ok := e.(*ast.ColumnRef)
	if !ok {
		return -1
	}
	b, err := env.Resolve(cr.Table, cr.Name)
	if err != nil {
		return -1
	}
	return b.Index
}

// nodeEnv builds the expression environment of a node's output, the
// same way the executors do.
func nodeEnv(n plan.Node) *expr.Env {
	e := &expr.Env{}
	for i, c := range n.Columns() {
		e.Cols = append(e.Cols, expr.Binding{
			Table: strings.ToLower(c.Table),
			Name:  strings.ToLower(c.Name),
			Index: i,
			Type:  c.Type,
		})
	}
	return e
}
