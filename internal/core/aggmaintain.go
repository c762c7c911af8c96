package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/exec"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// MaintainAggStep materializes the working table for one iteration by
// maintaining the previous iteration's aggregate output instead of
// re-running the full Ri plan. On the rename path the CTE an iteration
// starts from is the previous iteration's output (renamed, or copied
// back row for row), so the CTE itself is the cache; across the
// back-edge the step keeps only the CTE table that output was computed
// from, its snapshot, on its loop's per-run state (loopRun.aggSnap).
// Per iteration it finds the keys whose row differs from the snapshot —
// a lockstep walk that can only say "too many", then the keyed diff that
// certifies the set — and closes them under the propagation rules (the
// same equijoin images DeltaMaterializeStep uses). When the affected
// keys are at most half the CTE (Restriction.restrict) it re-folds
// exactly those groups through Ri over their CTE rows and keeps the
// CTE's row for every other group — in CTE scan order, which the
// ordering contract proves is the order of Ri over the whole CTE. A
// denser frontier, and anything the diff or the splice cannot certify
// (duplicate keys, unexpected restricted output), has Ri read the whole
// CTE for that iteration; results are byte-identical either way. The
// loop state goes with the run on every exit path — normal, error and
// cancellation alike (releaseLoops) — so no snapshot leaks into a
// retried query.
type MaintainAggStep struct {
	Restriction
	Loop *LoopState
	// Check arms the dynamic cross-check (Options.Paranoid):
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
func (m *MaintainAggStep) Run(ctx *Context) error {
	f, err := m.restrict(ctx, "aggregate maintenance", func(cte *storage.Table) (*sqltypes.KeyTable, string) {
		if m.Loop == nil || m.Loop.aggSnap == nil {
			return nil, riFirst
		}
		return m.diff(ctx, cte, m.Loop.aggSnap)
	})
	if err != nil {
		return err
	}
	defer ctx.RT.Results.Drop(m.In)
	// The splice reads the affected keys until the step ends.
	defer ctx.letGo(f.affected)
	var out *storage.Table
	if f.affected != nil {
		if out, err = m.splice(ctx, f); err != nil {
			return err
		}
		if out == nil {
			// The splice could not certify what Ri returned over the
			// affected rows: Ri reads the whole CTE instead.
			ctx.noteRi(riUncertified)
			f.in = f.cte
			ctx.RT.Results.Put(m.In, f.in)
		}
	}
	if out == nil {
		if out, err = ctx.materialize(m.Plan, m.Into); err != nil {
			return err
		}
	}
	m.publish(ctx, out)
	// The next iteration diffs the CTE the rename is about to make of
	// out against the table out was computed from, which the loop holds
	// past the rename that displaces it.
	if m.Loop != nil {
		m.Loop.keepSnap(f.cte)
	}
	ctx.Stats.AggFullRows += int64(f.cte.Len())
	ctx.Stats.AggInputRows += int64(f.in.Len())
	return nil
}

// diff returns the keys whose row differs between the current CTE and
// the snapshot the cached output was computed from, or nil and the
// reason Ri must read the whole CTE this iteration. The lockstep walk
// goes first because it is cheap and can only say "dense", which selects
// the input that needs no certificate; every set of changed keys — the
// only answer that lets a cached row stand in for a recomputed one —
// comes from the keyed diff and its duplicate-key certification.
func (m *MaintainAggStep) diff(ctx *Context, cte, snap *storage.Table) (*sqltypes.KeyTable, string) {
	if lockstepDense(cte, snap, keyCol) {
		return nil, riDense
	}
	if changed := keyedDiff(ctx, cte, snap, keyCol); changed != nil {
		return changed, ""
	}
	return nil, riUncertified
}

// lockstepDense reports whether the CTE differs from the snapshot in
// more rows than a restricted iteration may feed, without hashing
// either. Both tables come out of the same plan, so they normally hold
// the same key at the same position of the same partition: walk them
// side by side, count the positions whose rows differ, and answer true
// the moment the count is dense. Where the tables stop lining up — a
// different partition count, a position whose keys differ under the key
// table's own equality, a partition the snapshot has fewer rows of — or
// when they line up to the end below the bound, the answer is false,
// which decides nothing: the keyed diff runs. A duplicate key counted
// twice can only push the answer towards reading the whole CTE.
func lockstepDense(cte, snap *storage.Table, key int) bool {
	if len(cte.Parts) != len(snap.Parts) {
		return false
	}
	differ, of := 0, cte.Len()
	for p, part := range cte.Parts {
		old := snap.Parts[p]
		for i, r := range part {
			if i >= len(old) || key >= len(r) || key >= len(old[i]) || !sqltypes.KeyEqual(r[key], old[i][key]) {
				return false
			}
			if !old[i].Equal(r) {
				if differ++; dense(differ, of) {
					return true
				}
			}
		}
	}
	return false
}

// keyedDiff is the certified diff: new keys, keys whose row changed,
// and keys that disappeared (their rows may feed other groups through
// the inner references, so they propagate too). Group-key stability
// makes "which groups changed" exactly this set. nil means the tables
// are not key-identified (short rows, duplicate keys) and Ri must read
// the whole CTE. Both tables are the run's (ctx.keyTable); the
// caller lets go of the one it gets. A variable only so the tests can
// seed the mutant that skips the certification; nothing else assigns it.
var keyedDiff = func(ctx *Context, cteTable, snap *storage.Table, key int) *sqltypes.KeyTable {
	// One key table holds both sides: the snapshot's keys take ids
	// 0..len(old)-1, keys only the current CTE has take the ids after.
	// old[id] is the snapshot row of key id, cur[id] its current row
	// (nil: the key disappeared).
	keys := ctx.keyTable(1, snap.Len())
	defer ctx.letGo(keys)
	old := make([]sqltypes.Row, 0, snap.Len())
	for _, part := range snap.Parts {
		for _, r := range part {
			if key >= len(r) {
				return nil
			}
			if id, added := keys.Insert(r[key : key+1]); added {
				old = append(old, r)
			} else {
				old[id] = r
			}
		}
	}
	cur := make([]sqltypes.Row, len(old))
	changed := ctx.keyTable(1, 0)
	for _, part := range cteTable.Parts {
		for _, r := range part {
			if key >= len(r) {
				ctx.letGo(changed)
				return nil
			}
			k := r[key : key+1]
			id, added := keys.Insert(k)
			switch {
			case added:
				cur = append(cur, r)
				changed.Insert(k)
			case cur[id] != nil:
				ctx.letGo(changed)
				return nil // duplicate keys: groups not key-identified
			default:
				cur[id] = r
				if !old[id].Equal(r) {
					changed.Insert(k)
				}
			}
		}
	}
	for id, r := range old {
		if cur[id] == nil {
			changed.Insert(r[key : key+1])
		}
	}
	return changed
}

// splice re-folds the affected groups through Ri over their CTE rows
// (In) and keeps the CTE's row, the cached one, for every other group.
// The keyed diff has certified that the CTE carries each key once. A nil
// table (with nil error) means Ri escaped its frontier and the caller
// must have it read the whole CTE for this iteration.
func (m *MaintainAggStep) splice(ctx *Context, f frontier) (*storage.Table, error) {
	cteTable, affected := f.cte, f.affected
	rows, err := exec.RunContext(ctx.Ctx, m.Plan, ctx.RT, &ctx.Stats.ExecStats)
	if err != nil {
		return nil, err
	}
	refolded := ctx.rowIndex(keyCol, len(rows))
	defer ctx.letGo(refolded.keys)
	for _, r := range rows {
		if keyCol >= len(r) {
			return nil, nil
		}
		if affected.Find(r[keyCol:keyCol+1]) < 0 || !refolded.put(r) {
			return nil, nil // Ri escaped its frontier
		}
	}

	// Splice in CTE scan order: the ordering contract (group-key
	// stability + left-probe joins + first-encounter aggregation +
	// content-addressed materialization) makes this the order of Ri over
	// the whole CTE. An affected key Ri did not return was filtered out
	// by it. out keeps the CTE's rows for its life, so the CTE is pinned.
	cteTable.Pin()
	out := storage.NewTable(m.Into, cteTable.Schema.Clone(), ctx.parts)
	out.DistCol = 0
	for _, part := range cteTable.Parts {
		for _, r := range part {
			if affected.Find(r[keyCol:keyCol+1]) < 0 {
				out.Insert(r)
			} else if nr, ok := refolded.get(r); ok {
				out.Insert(nr)
			}
		}
	}
	if m.Check {
		if err := m.crossCheck(ctx, cteTable, affected); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// crossCheck recomputes a deterministic sample of the cache-served
// groups from scratch and fails the query if any diverges from the
// CTE row about to be emitted for it (or the recomputation drops it).
func (m *MaintainAggStep) crossCheck(ctx *Context, cteTable *storage.Table, affected *sqltypes.KeyTable) error {
	var sampleRows []sqltypes.Row
	i := 0
	for _, part := range cteTable.Parts {
		for _, r := range part {
			if affected.Find(r[keyCol:keyCol+1]) >= 0 {
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
	din := storage.NewTable(m.In, cteTable.Schema.Clone(), ctx.parts)
	din.DistCol = 0
	din.PK = cteTable.PK
	for _, r := range sampleRows {
		din.Insert(r)
	}
	ctx.RT.Results.Put(m.In, din)
	rows, err := exec.RunContext(ctx.Ctx, m.Plan, ctx.RT, &ctx.Stats.ExecStats)
	if err != nil {
		return err
	}
	recomputed := ctx.rowIndex(keyCol, len(rows))
	defer ctx.letGo(recomputed.keys)
	for _, r := range rows {
		recomputed.put(r)
	}
	for _, r := range sampleRows {
		if want, ok := recomputed.get(r); !ok || !want.Equal(r) {
			return fmt.Errorf("incremental-aggregate cross-check failed on %s: cached group %v diverges from scratch recomputation", m.CTE, r[keyCol])
		}
	}
	return nil
}

// Explain implements Step.
func (m *MaintainAggStep) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Maintain aggregates of %s into %s (diff %s against its snapshot; re-fold only keys the frontier touched",
		m.CTE, m.Into, m.CTE)
	return m.explain(&b)
}
