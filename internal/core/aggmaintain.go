package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/aggprop"
	"dbspinner/internal/ast"
	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// Incremental aggregate maintenance (Options.IncrementalAgg) is the
// DBSP insight grafted onto the step program: when the aggprop
// analysis proves every aggregate of Ri decomposable and the two side
// conditions hold (group-key stability, retraction visibility), the
// per-group aggregate results survive the back-edge in the result
// store and only the groups the frontier touched are re-folded. The
// maintenance is group-granular rather than value-granular on
// purpose: patching a float SUM accumulator with acc-old+new would
// change the accumulation order and drift from the full plan's bits,
// so an affected group is recomputed from its full input through the
// restricted plan while an unaffected group reuses its cached output
// row verbatim. Combined with the content-addressed materialization
// layout (exec.Materialize hash-routes on column 0) and the
// first-encounter group order of the aggregate operator, the
// maintained output is byte-identical to the full plan's — row order
// and float accumulation order included. DESIGN.md §5f states the
// ordering contract; TestIncAggOrderingContract pins it.
//
// The step is licensed on the volcano executor only: MPP fragments
// adopt partition-local aggregate output layouts that a cache cannot
// reproduce bit-for-bit, so parallel runs keep the full plan (fail
// closed, results identical either way).

// AggClaim records the aggprop verdict for one iterative CTE, and the
// step (1-based) of the MaintainAggStep it licensed — 0 when the
// analysis did not license maintenance (or another mode took
// priority) and the full plan runs.
type AggClaim struct {
	CTE     string
	Step    int
	Verdict aggprop.Verdict
}

// buildMaintainStep runs the aggprop analysis on the original
// iterative AST, records the claim for EXPLAIN and the verifier, and
// — when the analysis licenses maintenance — compiles the restricted
// plan (the post-common iterStmt with the outer reference reading
// AggIn#cte) and returns the step. A nil return keeps the full plan.
func (r *rewriter) buildMaintainStep(cte *ast.CTE, schema sqltypes.Schema, iterStmt *ast.SelectStmt,
	full plan.Node, b *plan.Builder, workName string, key int) *MaintainAggStep {

	verdict := aggprop.AnalyzeCTE(cte, schema, r.lookup)
	if len(verdict.Calls) == 0 {
		return nil // no aggregates: nothing to maintain, nothing to explain
	}
	claim := AggClaim{CTE: cte.Name, Verdict: verdict}
	r.prog.AggClaims = append(r.prog.AggClaims, claim)
	idx := len(r.prog.AggClaims) - 1
	if !verdict.Licensed {
		return nil
	}
	aggIn := "AggIn#" + cte.Name
	r.lookup.add(aggIn, schema)
	sub, ok := substituteOuterRef(iterStmt, cte.Name, verdict.OuterAlias, aggIn)
	if !ok {
		r.prog.AggClaims[idx].Verdict.Licensed = false
		r.prog.AggClaims[idx].Verdict.Diags = append(r.prog.AggClaims[idx].Verdict.Diags,
			"outer-reference substitution failed on the rewritten iterative part")
		return nil
	}
	rp, err := b.Build(sub)
	if err != nil || len(rp.Columns()) != len(schema) {
		r.prog.AggClaims[idx].Verdict.Licensed = false
		r.prog.AggClaims[idx].Verdict.Diags = append(r.prog.AggClaims[idx].Verdict.Diags,
			"restricted plan failed to compile")
		return nil
	}
	rp, err = renameTo(rp, schema)
	if err != nil {
		r.prog.AggClaims[idx].Verdict.Licensed = false
		return nil
	}
	props := make([]DeltaProp, len(verdict.Props))
	for i, p := range verdict.Props {
		props[i] = DeltaProp{Table: p.Table, From: p.From, To: p.To}
	}
	return &MaintainAggStep{
		Into: workName, Full: full, Restricted: rp,
		AggIn: aggIn, Acc: "Agg#" + cte.Name, Snap: "AggSnap#" + cte.Name,
		CTE: cte.Name, Props: props, Key: key, Parts: r.opts.Parts,
		Check: r.opts.CheckIncrementalAgg,
	}
}

// MaintainAggStep materializes the working table for one iteration by
// maintaining the previous iteration's aggregate output instead of
// re-running the full Ri plan. Across the back-edge it keeps two
// result-store slots: Acc, the cached output table of the previous
// iteration, and Snap, the CTE table that output was computed from.
// Per iteration it diffs the current CTE against Snap, closes the
// changed keys under the propagation rules (the same equijoin images
// DeltaMaterializeStep uses), re-folds exactly the affected groups
// through the restricted plan, and splices cached rows in for every
// unaffected group — in CTE scan order, which the ordering contract
// proves is the full plan's output order. Anything the diff cannot
// certify (duplicate keys, unexpected restricted output) falls back
// to the full plan for that iteration; results are byte-identical
// either way. Both slots are tracked on the run context, so the
// run-end cleanup — normal, error and cancellation paths alike —
// drops them and no accumulator state leaks into a retried query.
type MaintainAggStep struct {
	Into       string    // working table
	Full       plan.Node // Ri over the full CTE (first iteration, fallback)
	Restricted plan.Node // Ri with the outer reference reading AggIn
	AggIn      string    // transient restricted-input result name
	Acc        string    // cached previous output (Agg#cte)
	Snap       string    // previous CTE snapshot (AggSnap#cte)
	CTE        string    // main CTE result
	Props      []DeltaProp
	Key        int // CTE key column
	Parts      int
	// Check arms the dynamic cross-check (Config.CheckIncrementalAgg):
	// a deterministic sample of the groups served from the cache is
	// recomputed from scratch each iteration and any divergence fails
	// the query.
	Check bool
}

// checkSampleStride picks every n-th cache-served group for the
// dynamic cross-check. Deterministic (no clock, no randomness) so a
// divergence reproduces.
const checkSampleStride = 7

// Run implements Step.
func (m *MaintainAggStep) Run(ctx *Context, self int) (int, error) {
	if err := ctx.Checkpoint(self); err != nil {
		return 0, err
	}
	cteTable := ctx.RT.Results.Get(m.CTE)
	if cteTable == nil {
		return 0, fmt.Errorf("aggregate maintenance %s: result %q not found", m.Into, m.CTE)
	}
	full := int64(cteTable.Len())
	acc := ctx.RT.Results.Get(m.Acc)
	snap := ctx.RT.Results.Get(m.Snap)

	var out *storage.Table
	var input int64
	// A degraded context (the retry driver's graceful-degradation
	// ladder) forces the full plan: incremental maintenance is one of
	// the subsystems the ladder disables, and the full path is
	// byte-identical by the maintenance contract. The accumulator
	// refresh below still runs, so the cache stays coherent.
	if ctx.degraded() {
		acc, snap = nil, nil
	}
	if acc != nil && snap != nil {
		t, in, ok, err := m.maintain(ctx, cteTable, acc, snap)
		if err != nil {
			return 0, err
		}
		if ok {
			out, input = t, in
		}
	}
	if out == nil {
		// First iteration, or a dynamic fallback: full plan.
		t, err := exec.MaterializeContext(ctx.Ctx, m.Full, ctx.RT, &ctx.Stats.Exec, m.Into, m.Parts)
		if err != nil {
			return 0, err
		}
		out, input = t, full
	}
	ctx.RT.Results.Put(m.Into, out)
	ctx.track(m.Into)
	// The accumulator state for the next iteration: the output just
	// produced and the CTE table it was computed from. Plain aliases —
	// result tables are never mutated in place, and the rename/merge
	// ahead only re-points names — tracked so the run-end cleanup
	// drops them on every exit path.
	ctx.RT.Results.Put(m.Acc, out)
	ctx.track(m.Acc)
	ctx.RT.Results.Put(m.Snap, cteTable)
	ctx.track(m.Snap)
	ctx.Stats.MaterializedCells += int64(out.Len()) * int64(len(out.Schema))
	ctx.Stats.UpdatedRows += int64(out.Len())
	ctx.Stats.AggFullRows += full
	ctx.Stats.AggInputRows += input
	return self + 1, nil
}

// maintain attempts the incremental path. ok=false (with nil error)
// means a certification failed and the caller must fall back to the
// full plan for this iteration.
func (m *MaintainAggStep) maintain(ctx *Context, cteTable, acc, snap *storage.Table) (*storage.Table, int64, bool, error) {
	// Diff the current CTE against the snapshot the cached output was
	// computed from. Group-key stability makes "which groups changed"
	// exactly "which keys changed": new keys, keys whose row differs,
	// and keys that disappeared (their rows may feed other groups
	// through the inner references, so they propagate too).
	//
	// One key table holds both sides: the snapshot's keys take ids
	// 0..len(old)-1, keys only the current CTE has take the ids after.
	// old[id] is the snapshot row of key id, cur[id] its current row
	// (nil: the key disappeared).
	keys := sqltypes.NewKeyTable(1, snap.Len())
	var old []sqltypes.Row
	for _, part := range snap.Parts {
		for _, r := range part {
			if m.Key >= len(r) {
				return nil, 0, false, nil
			}
			if id, added := keys.Insert(r[m.Key : m.Key+1]); added {
				old = append(old, r)
			} else {
				old[id] = r
			}
		}
	}
	cur := make([]sqltypes.Row, len(old))
	changed := sqltypes.NewKeyTable(1, 0)
	for _, part := range cteTable.Parts {
		for _, r := range part {
			if m.Key >= len(r) {
				return nil, 0, false, nil
			}
			key := r[m.Key : m.Key+1]
			id, added := keys.Insert(key)
			switch {
			case added:
				cur = append(cur, r)
				changed.Insert(key)
			case cur[id] != nil:
				return nil, 0, false, nil // duplicate keys: groups not key-identified
			default:
				cur[id] = r
				if !old[id].Equal(r) {
					changed.Insert(key)
				}
			}
		}
	}
	for id, r := range old {
		if cur[id] == nil {
			changed.Insert(r[m.Key : m.Key+1])
		}
	}

	affected, err := affectedKeys(ctx, changed, m.Props, "aggregate-maintenance")
	if err != nil {
		return nil, 0, false, err
	}

	din := exec.FilterTableByKey(cteTable, m.Key, affected, m.AggIn, &ctx.Stats.Exec)
	ctx.RT.Results.Put(m.AggIn, din)
	defer ctx.RT.Results.Drop(m.AggIn)
	rows, err := exec.RunContext(ctx.Ctx, m.Restricted, ctx.RT, &ctx.Stats.Exec)
	if err != nil {
		return nil, 0, false, err
	}
	refolded := newRowIndex(m.Key, len(rows))
	for _, r := range rows {
		if m.Key >= len(r) {
			return nil, 0, false, nil
		}
		if affected.Find(r[m.Key:m.Key+1]) < 0 || !refolded.put(r) {
			return nil, 0, false, nil // restricted plan escaped its frontier
		}
	}
	// The cache is consulted (splice and cross-check alike) only for
	// keys outside the affected set, so only those rows are indexed; an
	// affected key's cached row is merely checked for being the only one.
	cached := newRowIndex(m.Key, max(acc.Len()-affected.Len(), 0))
	seenAffected := make([]bool, affected.Len())
	for _, part := range acc.Parts {
		for _, r := range part {
			if m.Key >= len(r) {
				return nil, 0, false, nil
			}
			if id := affected.Find(r[m.Key : m.Key+1]); id >= 0 {
				if seenAffected[id] {
					return nil, 0, false, nil
				}
				seenAffected[id] = true
			} else if !cached.put(r) {
				return nil, 0, false, nil
			}
		}
	}

	// Splice in CTE scan order: the ordering contract (group-key
	// stability + left-probe joins + first-encounter aggregation +
	// content-addressed materialization) makes this the full plan's
	// output order. A key absent from both indexes was filtered out by
	// Ri's WHERE clause — absent then, absent now.
	out := storage.NewTable(m.Into, cteTable.Schema.Clone(), m.Parts)
	out.DistCol = 0
	for _, part := range cteTable.Parts {
		for _, r := range part {
			if affected.Find(r[m.Key:m.Key+1]) >= 0 {
				if nr, ok := refolded.get(r); ok {
					out.Insert(nr)
				}
			} else if cr, ok := cached.get(r); ok {
				out.Insert(cr)
			}
		}
	}
	if m.Check {
		if err := m.crossCheck(ctx, cteTable, affected, cached); err != nil {
			return nil, 0, false, err
		}
	}
	return out, int64(din.Len()), true, nil
}

// affectedKeys is changed ∪ propagate(changed), the closure both
// incremental evaluators (aggregate maintenance, delta iteration)
// restrict Ri to: for each rule, base rows whose From column holds a
// changed key mark their To column's value affected. Over-approximation
// is safe; missing a key is not, which is what the analyses guarantee
// against. what names the caller in errors.
func affectedKeys(ctx *Context, changed *sqltypes.KeyTable, props []DeltaProp, what string) (*sqltypes.KeyTable, error) {
	affected := sqltypes.NewKeyTable(1, 2*changed.Len())
	for id := 0; id < changed.Len(); id++ {
		affected.Insert(changed.Key(id))
	}
	for _, p := range props {
		bt, err := ctx.RT.BaseTable(p.Table)
		if err != nil {
			return nil, fmt.Errorf("%s propagation over %s: %w", what, p.Table, err)
		}
		for _, part := range bt.Parts {
			for _, r := range part {
				ctx.Stats.Exec.RowsScanned++
				if p.From >= len(r) || p.To >= len(r) {
					continue
				}
				if changed.Find(r[p.From:p.From+1]) >= 0 {
					affected.Insert(r[p.To : p.To+1])
				}
			}
		}
	}
	return affected, nil
}

// crossCheck recomputes a deterministic sample of the cache-served
// groups from scratch and fails the query if any diverges from the
// row about to be emitted (or from its absence).
func (m *MaintainAggStep) crossCheck(ctx *Context, cteTable *storage.Table, affected *sqltypes.KeyTable, cached *rowIndex) error {
	var sampleRows []sqltypes.Row
	i := 0
	for _, part := range cteTable.Parts {
		for _, r := range part {
			if affected.Find(r[m.Key:m.Key+1]) >= 0 {
				continue
			}
			if i%checkSampleStride == 0 {
				sampleRows = append(sampleRows, r)
			}
			i++
		}
	}
	if len(sampleRows) == 0 {
		return nil
	}
	din := storage.NewTable(m.AggIn, cteTable.Schema.Clone(), m.Parts)
	din.DistCol = 0
	din.PK = cteTable.PK
	for _, r := range sampleRows {
		din.Insert(r)
	}
	ctx.RT.Results.Put(m.AggIn, din)
	rows, err := exec.RunContext(ctx.Ctx, m.Restricted, ctx.RT, &ctx.Stats.Exec)
	if err != nil {
		return err
	}
	recomputed := newRowIndex(m.Key, len(rows))
	for _, r := range rows {
		recomputed.put(r)
	}
	for _, r := range sampleRows {
		want, haveWant := recomputed.get(r)
		got, haveGot := cached.get(r)
		if haveWant != haveGot || (haveWant && !want.Equal(got)) {
			return fmt.Errorf("incremental-aggregate cross-check failed on %s: cached group %v diverges from scratch recomputation", m.CTE, r[m.Key])
		}
	}
	return nil
}

// Explain implements Step.
func (m *MaintainAggStep) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Maintain aggregates of %s into %s (cached groups %s over snapshot %s; re-fold only keys the frontier touched",
		m.CTE, m.Into, m.Acc, m.Snap)
	for _, p := range m.Props {
		fmt.Fprintf(&b, "; propagate via %s[%d->%d]", p.Table, p.From, p.To)
	}
	b.WriteString("; full plan on the first iteration) with:\n")
	b.WriteString(strings.TrimRight(indent(plan.ExplainTree(m.Restricted), "  "), "\n"))
	return b.String()
}
