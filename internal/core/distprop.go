package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"dbspinner/internal/distprop"
	"dbspinner/internal/mpp"
	"dbspinner/internal/plan"
	"dbspinner/internal/storage"
)

// This file drives the static partition-property analysis
// (internal/distprop) over a rewritten step program: a dataflow
// fixpoint over the step control-flow graph (Forward, which follows the
// loop back-edge) computes, for every step, the distribution property each
// live result slot is guaranteed to satisfy on entry; a second pass
// then records per-step claims for EXPLAIN/verification and licenses
// shuffle elisions. Properties cross the back-edge only when they
// survive the meet at the loop head — i.e. when they are provably
// iteration-invariant — so a layout established in iteration i is
// never trusted in iteration i+1 unless every path re-establishes it.

// DistClaim is the recorded distribution property of one step's bound
// result slot (or of the final query, Step == 0).
type DistClaim struct {
	// Step is the 1-based step index; 0 marks the final-query entry.
	Step int
	// Slot is the result slot the step binds; empty for control steps
	// that bind nothing (loop bookkeeping, truncate).
	Slot string
	// Prop is the claimed property of the bound slot (or of Qf's
	// output relation for the final entry).
	Prop distprop.Property
	// Desc is the human rendering for EXPLAIN ("hash(node)").
	Desc string
}

// ElisionRecord is one exchange the analysis licensed the machine to
// skip.
type ElisionRecord struct {
	// Step is the 1-based index of the step whose plan contains the
	// exchange; 0 marks the final query.
	Step int
	// Node is the consuming plan node, Exch the elided exchange and
	// Cols the claimed routing columns of its input.
	Node plan.Node
	Exch distprop.Exchange
	Cols []int
	// Desc is the human rendering for EXPLAIN.
	Desc string
}

// distState maps normalized result-slot names to their guaranteed
// distribution property. Absent means Unknown; Unknown-valued entries
// are never stored, so map equality is canonical.
type distState map[string]distprop.Property

func (s distState) set(slot string, p distprop.Property) {
	key := storage.NormalizeName(slot)
	if p.Kind == distprop.KindUnknown {
		delete(s, key)
		return
	}
	s[key] = p
}

// DeriveDistProps records the distribution property of every step for
// a program whose rewrite did not derive it: one the machine does not
// run, or runs over one partition or without shuffle elision, where
// nothing but EXPLAIN reads the claims. It licenses no elision. A
// program that records claims already is left as it is, so the verifier
// checks what the rewrite (or anything after it) recorded.
func (p *Program) DeriveDistProps() {
	if p.DistProps == nil {
		p.deriveDistProps(false)
	}
}

// deriveDistProps runs the analysis and attaches its results to the
// program: DistProps always, Elisions and the machine elide map only
// when license is set (shuffle elision on a parallel multi-partition
// run).
func (p *Program) deriveDistProps(license bool) {
	td, _ := p.Lookup.(distprop.TableDist)
	infer := func(st distState, n plan.Node) distprop.Property {
		return (&distprop.Analysis{Parts: p.Parts, Tables: td, Slots: st}).Infer(n)
	}
	// Elisions are licensed only once the entry states are stable.
	entry := Forward(p.Steps, distState{}, func(i int, in distState) distState {
		return VisitStep[distStep](p.Steps[i], distCases{in: in, infer: infer}).out
	}, distprop.MeetSlots[distState])

	type exchKey struct {
		node plan.Node
		exch distprop.Exchange
	}
	type exchVerdict struct {
		rec      ElisionRecord
		licensed bool
	}
	verdicts := make(map[exchKey]*exchVerdict)
	collect := func(step int) func(distprop.Decision) {
		return func(d distprop.Decision) {
			key := exchKey{node: d.Node, exch: d.Exch}
			v, seen := verdicts[key]
			if !seen {
				verdicts[key] = &exchVerdict{
					rec: ElisionRecord{
						Step: step,
						Node: d.Node,
						Exch: d.Exch,
						Cols: append([]int(nil), d.Cols...),
						Desc: describeExchange(d),
					},
					licensed: d.Licensed,
				}
				return
			}
			// A node inferred in more than one context (e.g. a plan
			// subtree shared between the full and restricted delta
			// plans) elides only if every context licenses the same
			// claim.
			if !d.Licensed || !slices.Equal(v.rec.Cols, d.Cols) {
				v.licensed = false
			}
		}
	}
	inferAt := func(step int) func(distState, plan.Node) distprop.Property {
		if !license {
			return infer
		}
		return func(st distState, n plan.Node) distprop.Property {
			a := &distprop.Analysis{Parts: p.Parts, Tables: td, Slots: st, OnExchange: collect(step)}
			return a.Infer(n)
		}
	}

	claims := make([]DistClaim, 0, len(p.Steps)+1)
	for i, s := range p.Steps {
		r := VisitStep[distStep](s, distCases{in: entry[i], infer: inferAt(i + 1)})
		c := DistClaim{Step: i + 1, Slot: r.slot, Prop: r.prop, Desc: "no result bound"}
		if r.slot != "" {
			c.Desc = r.prop.Describe(r.cols)
		}
		claims = append(claims, c)
	}
	if p.Final != nil {
		prop := inferAt(0)(entry[len(p.Steps)], p.Final)
		claims = append(claims, DistClaim{Step: 0, Prop: prop, Desc: prop.Describe(p.Final.Columns())})
	}
	p.DistProps = claims

	if !license {
		return
	}
	elide := make(map[plan.Node]mpp.Elide)
	for _, v := range verdicts {
		if !v.licensed {
			continue
		}
		p.Elisions = append(p.Elisions, v.rec)
		e := elide[v.rec.Node]
		switch v.rec.Exch {
		case distprop.JoinLeft:
			e.Left, e.LeftCols = true, v.rec.Cols
		case distprop.JoinRight:
			e.Right, e.RightCols = true, v.rec.Cols
		case distprop.AggregateInput, distprop.DistinctInput:
			e.Input, e.InputCols = true, v.rec.Cols
		}
		elide[v.rec.Node] = e
	}
	if len(elide) > 0 {
		p.elide = elide
	}
	// Stable EXPLAIN/verification order: by step with the final query
	// last, then by exchange kind, then by description.
	slices.SortStableFunc(p.Elisions, func(a, b ElisionRecord) int {
		return cmp.Or(
			cmp.Compare(finalLast(a.Step), finalLast(b.Step)),
			cmp.Compare(a.Exch, b.Exch),
			strings.Compare(a.Desc, b.Desc))
	})
}

// finalLast orders step indexes with the final query (0) after every
// step.
func finalLast(step int) int {
	if step == 0 {
		return math.MaxInt
	}
	return step
}

// distStep is what one step does to the slot properties: the state
// after it, and the slot it binds (empty for a step that binds none)
// with the property claimed for it. cols name the property's columns
// for EXPLAIN.
type distStep struct {
	out  distState
	slot string
	prop distprop.Property
	cols []plan.ColInfo
}

// distCases is the analysis's transfer function, one case per step
// kind, applied to the entry state in.
type distCases struct {
	in    distState
	infer func(distState, plan.Node) distprop.Property
}

func (c distCases) bind(slot string, prop distprop.Property, cols []plan.ColInfo) distStep {
	out := maps.Clone(c.in)
	out.set(slot, prop)
	return distStep{out: out, slot: slot, prop: prop, cols: cols}
}

func (c distCases) Materialize(t *MaterializeStep) distStep {
	return c.bind(t.Into, c.infer(c.in, t.Plan), t.Plan.Columns())
}

func (c distCases) DeltaMaterialize(t *DeltaMaterializeStep) distStep {
	return c.restricted(&t.Restriction)
}

func (c distCases) MaintainAgg(t *MaintainAggStep) distStep {
	return c.restricted(&t.Restriction)
}

func (c distCases) restricted(r *Restriction) distStep {
	return c.bind(r.Into, r.distProp(c.in, c.infer), r.Plan.Columns())
}

func (c distCases) Rename(t *RenameStep) distStep {
	from := storage.NormalizeName(t.From)
	r := c.bind(t.To, c.in[from], nil)
	delete(r.out, from)
	return r
}

// CopyBack leaves a fresh copy, hash-distributed on column 0 (the fresh
// table's DistCol), and drops the source working table.
func (c distCases) CopyBack(t *CopyBackStep) distStep {
	r := c.bind(t.To, distprop.Hash(0), nil)
	delete(r.out, storage.NormalizeName(t.From))
	return r
}

// Merge builds the merged table, and a recursive round's delta table,
// with DistCol 0.
func (c distCases) Merge(t *MergeStep) distStep {
	r := c.bind(t.Into, distprop.Hash(0), nil)
	if t.Delta != "" {
		r.out.set(t.Delta, distprop.Hash(0))
	}
	return r
}

func (c distCases) Truncate(t *TruncateStep) distStep {
	out := maps.Clone(c.in)
	delete(out, storage.NormalizeName(t.Name))
	return distStep{out: out}
}

// The loop bookkeeping binds no slot. A LoopStep's back-edge and its
// fall-through see the same state; the meet at BodyStart is what keeps
// only iteration-invariant properties across the back-edge.
func (c distCases) InitLoop(*InitLoopStep) distStep     { return distStep{out: c.in} }
func (c distCases) UpdateLoop(*UpdateLoopStep) distStep { return distStep{out: c.in} }
func (c distCases) Loop(*LoopStep) distStep             { return distStep{out: c.in} }

// distProp is the property a restricted step's working table is
// guaranteed to have: Ri's, with In taking the CTE slot's property — In
// is the CTE table or a partition-preserving filter of it
// (exec.FilterTableByKey). The maintenance step splices into a fresh
// DistCol-0 table, so the property under-approximates at worst.
func (r *Restriction) distProp(st distState, infer func(distState, plan.Node) distprop.Property) distprop.Property {
	rst := maps.Clone(st)
	if cte, ok := st[storage.NormalizeName(r.CTE)]; ok {
		rst.set(r.In, cte)
	}
	return infer(rst, r.Plan)
}

func describeExchange(d distprop.Decision) string {
	cols := d.Node.Columns()
	// For join sides, column positions refer to the side's input frame.
	if j, ok := d.Node.(*plan.Join); ok {
		switch d.Exch {
		case distprop.JoinLeft:
			cols = j.Left.Columns()
		case distprop.JoinRight:
			cols = j.Right.Columns()
		}
	}
	if a, ok := d.Node.(*plan.Aggregate); ok && d.Exch == distprop.AggregateInput {
		cols = a.Input.Columns()
	}
	if di, ok := d.Node.(*plan.Distinct); ok && d.Exch == distprop.DistinctInput {
		cols = di.Input.Columns()
	}
	names := make([]string, len(d.Cols))
	for i, c := range d.Cols {
		if c >= 0 && c < len(cols) && cols[c].Name != "" {
			names[i] = cols[c].Name
		} else {
			names[i] = fmt.Sprintf("%d", c)
		}
	}
	return fmt.Sprintf("%s co-partitioned on (%s)", d.Exch, strings.Join(names, ","))
}
