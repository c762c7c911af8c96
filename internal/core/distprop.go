package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/distprop"
	"dbspinner/internal/mpp"
	"dbspinner/internal/plan"
	"dbspinner/internal/storage"
)

// This file drives the static partition-property analysis
// (internal/distprop) over a rewritten step program: a dataflow
// fixpoint over the step control-flow graph (including the loop
// back-edge) computes, for every step, the distribution property each
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

func (s distState) clone() distState {
	out := make(distState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s distState) set(slot string, p distprop.Property) {
	key := storage.NormalizeName(slot)
	if p.Kind == distprop.KindUnknown {
		delete(s, key)
		return
	}
	s[key] = p
}

// meetInto merges src into dst (dst may be nil, meaning "not yet
// reached"), returning the merged state and whether it changed.
// Slot-wise meet: a property survives only if both states guarantee
// it.
func meetInto(dst, src distState) (distState, bool) {
	if dst == nil {
		return src.clone(), true
	}
	changed := false
	for k, dv := range dst {
		sv, ok := src[k]
		if !ok {
			delete(dst, k)
			changed = true
			continue
		}
		if m := distprop.Meet(dv, sv); !m.Equal(dv) {
			if m.Kind == distprop.KindUnknown {
				delete(dst, k)
			} else {
				dst[k] = m
			}
			changed = true
		}
	}
	return dst, changed
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
	entry := p.distFixpoint(td)
	if entry == nil {
		// A step kind the transfer function does not know: fail closed,
		// claim nothing, elide nothing.
		return
	}

	type exchKey struct {
		node plan.Node
		exch distprop.Exchange
	}
	type exchVerdict struct {
		rec      ElisionRecord
		licensed bool
	}
	verdicts := make(map[exchKey]*exchVerdict)
	collect := func(step int, node plan.Node) func(distprop.Decision) {
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
			if !d.Licensed || !sameCols(v.rec.Cols, d.Cols) {
				v.licensed = false
			}
		}
	}

	infer := func(step int, st distState, n plan.Node) distprop.Property {
		a := &distprop.Analysis{Parts: p.Parts, Tables: td, Slots: st}
		if license {
			a.OnExchange = collect(step, n)
		}
		return a.Infer(n)
	}

	restricted := func(step int, st distState, r *Restriction) DistClaim {
		prop := r.distProp(st, func(st distState, n plan.Node) distprop.Property { return infer(step, st, n) })
		return DistClaim{Step: step, Slot: r.Into, Prop: prop, Desc: prop.Describe(r.Full.Columns())}
	}

	var claims []DistClaim
	for i, s := range p.Steps {
		st := entry[i]
		if st == nil {
			// Unreachable step (defensive): claim nothing for it.
			claims = append(claims, DistClaim{Step: i + 1, Desc: "unreachable"})
			continue
		}
		step := i + 1
		switch t := s.(type) {
		case *MaterializeStep:
			prop := infer(step, st, t.Plan)
			claims = append(claims, DistClaim{Step: step, Slot: t.Into, Prop: prop, Desc: prop.Describe(t.Plan.Columns())})
		case *DeltaMaterializeStep:
			claims = append(claims, restricted(step, st, &t.Restriction))
		case *MaintainAggStep:
			claims = append(claims, restricted(step, st, &t.Restriction))
		case *RenameStep:
			prop := st[storage.NormalizeName(t.From)]
			claims = append(claims, DistClaim{Step: step, Slot: t.To, Prop: prop, Desc: prop.String()})
		case *CopyBackStep:
			prop := distprop.Hash(0)
			claims = append(claims, DistClaim{Step: step, Slot: t.To, Prop: prop, Desc: prop.String()})
		case *MergeStep:
			prop := distprop.Hash(0)
			claims = append(claims, DistClaim{Step: step, Slot: t.Into, Prop: prop, Desc: prop.String()})
		case *TruncateStep, *InitLoopStep, *UpdateLoopStep, *LoopStep:
			// Truncation and loop bookkeeping bind no result slot.
			claims = append(claims, DistClaim{Step: step, Desc: "no result bound"})
		default:
			claims = append(claims, DistClaim{Step: step, Desc: "no result bound"})
		}
	}
	if p.Final != nil && entry[len(p.Steps)] != nil {
		prop := infer(0, entry[len(p.Steps)], p.Final)
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
	// Stable EXPLAIN/verification order: by step, then exchange kind.
	sortElisions(p.Elisions)
}

// distProp is the property a restricted step's working table is
// guaranteed to have: only what both constituent plans guarantee — the
// full plan (first iteration, fallback) and the restricted plan, whose
// input In is a partition-preserving filter of the CTE table
// (exec.FilterTableByKey) and inherits the CTE slot's property. The
// maintenance step splices into a fresh DistCol-0 table, so the meet
// under-approximates at worst.
func (r *Restriction) distProp(st distState, infer func(distState, plan.Node) distprop.Property) distprop.Property {
	rst := st.clone()
	if cte, ok := st[storage.NormalizeName(r.CTE)]; ok {
		rst.set(r.In, cte)
	}
	return distprop.Meet(infer(st, r.Full), infer(rst, r.Restricted))
}

func sortElisions(recs []ElisionRecord) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && elisionLess(recs[j], recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

func elisionLess(a, b ElisionRecord) bool {
	as, bs := a.Step, b.Step
	if as == 0 {
		as = int(^uint(0) >> 1) // final sorts last
	}
	if bs == 0 {
		bs = int(^uint(0) >> 1)
	}
	if as != bs {
		return as < bs
	}
	if a.Exch != b.Exch {
		return a.Exch < b.Exch
	}
	return a.Desc < b.Desc
}

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// distFixpoint propagates slot properties over the step CFG to a
// fixpoint and returns the entry state of every step plus, at index
// len(Steps), the program exit state (what the final query sees). A
// nil return means a step kind the transfer function does not handle
// (fail closed).
func (p *Program) distFixpoint(td distprop.TableDist) []distState {
	n := len(p.Steps)
	entry := make([]distState, n+1)
	entry[0] = distState{}
	if n == 0 {
		return entry
	}
	work := []int{0}
	for iter := 0; len(work) > 0; iter++ {
		if iter > 10000 {
			return nil // defensive: the lattice is finite, but fail closed
		}
		i := work[0]
		work = work[1:]
		if i >= n {
			continue
		}
		out, succs, ok := p.distTransfer(td, i, entry[i])
		if !ok {
			return nil
		}
		for _, succ := range succs {
			if succ < 0 || succ > n {
				continue
			}
			merged, changed := meetInto(entry[succ], out)
			entry[succ] = merged
			if changed && succ < n {
				work = append(work, succ)
			}
		}
	}
	if entry[n] == nil {
		entry[n] = distState{}
	}
	return entry
}

// distTransfer is the per-step transfer function of the fixpoint. It
// must handle every step kind the rewrite can emit; an unknown kind
// aborts the whole analysis (ok == false). Elisions are NOT licensed
// here — only once the entry states are stable.
func (p *Program) distTransfer(td distprop.TableDist, i int, st distState) (out distState, succs []int, ok bool) {
	infer := func(st distState, n plan.Node) distprop.Property {
		return (&distprop.Analysis{Parts: p.Parts, Tables: td, Slots: st}).Infer(n)
	}
	switch t := p.Steps[i].(type) {
	case *MaterializeStep:
		out = st.clone()
		out.set(t.Into, infer(st, t.Plan))
	case *DeltaMaterializeStep:
		out = st.clone()
		out.set(t.Into, t.Restriction.distProp(st, infer))
	case *MaintainAggStep:
		out = st.clone()
		out.set(t.Into, t.Restriction.distProp(st, infer))
	case *RenameStep:
		out = st.clone()
		from := storage.NormalizeName(t.From)
		if prop, have := out[from]; have {
			out.set(t.To, prop)
		} else {
			out.set(t.To, distprop.Unknown())
		}
		delete(out, from)
	case *CopyBackStep:
		// The fresh copy is hash-distributed on column 0 (the fresh
		// table's DistCol); the source working table is dropped.
		out = st.clone()
		out.set(t.To, distprop.Hash(0))
		delete(out, storage.NormalizeName(t.From))
	case *MergeStep:
		// The merged table (and the delta, when materialized) are
		// built with DistCol 0.
		out = st.clone()
		out.set(t.Into, distprop.Hash(0))
		if t.Delta != "" {
			out.set(t.Delta, distprop.Hash(0))
		}
	case *TruncateStep:
		out = st.clone()
		delete(out, storage.NormalizeName(t.Name))
	case *InitLoopStep, *UpdateLoopStep:
		out = st
	case *LoopStep:
		// Both the back-edge and the fall-through observe the same
		// state; the meet at BodyStart is what enforces the
		// iteration-invariance rule.
		return st, []int{t.BodyStart, i + 1}, true
	default:
		return nil, nil, false
	}
	return out, []int{i + 1}, true
}
