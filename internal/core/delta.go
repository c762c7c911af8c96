package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// DeltaMaterializeStep materializes the working table for one
// iteration on the merge path. On the first iteration (and whenever no
// keyed merge of its loop has published a change set) Ri reads the
// whole CTE; afterwards its outer scan reads only the rows of the keys
// the previous merge changed plus their images under the propagation
// rules, as long as those are at most half the CTE
// (Restriction.restrict). The paired MergeStep carries every key the
// working table does not mention forward unchanged, which is what makes
// leaving them out sound. A loop with no keyed merge never publishes
// one, so there Ri reads the whole CTE every iteration.
type DeltaMaterializeStep struct {
	Restriction
	Loop *LoopState
}

// Run implements Step.
func (d *DeltaMaterializeStep) Run(ctx *Context) error {
	f, err := d.restrict(ctx, "delta materialize", func(cte *storage.Table) (*sqltypes.KeyTable, string) {
		return d.changedKeys(ctx, cte.Len())
	})
	// The affected keys served the filter that bound In.
	ctx.letGo(f.affected)
	if err != nil {
		return err
	}
	defer ctx.RT.Results.Drop(d.In)
	t, err := ctx.materialize(d.Plan, d.Into)
	if err != nil {
		return err
	}
	d.publish(ctx, t)
	ctx.Stats.RiFullRows += int64(f.cte.Len())
	ctx.Stats.RiInputRows += int64(f.in.Len())
	return nil
}

// changedKeys is the step's half of the per-iteration decision: the keys
// the loop's last keyed merge changed, or nil and why Ri reads the whole
// CTE — no merge has published a change set yet, or its keys
// alone are dense in a CTE of `of` rows, which the published count tells
// without building a key set. A merge that found its set dense in the
// table it produced keeps no rows (changeSet), which reads dense here
// too. The set is one of the run's spare key tables. The first call asks
// the loop's merges to publish.
func (d *DeltaMaterializeStep) changedKeys(ctx *Context, of int) (*sqltypes.KeyTable, string) {
	if d.Loop == nil {
		return nil, riFirst
	}
	c := &d.Loop.changes
	c.wanted = true
	switch {
	case !c.merged:
		return nil, riFirst
	case dense(c.keys, of) || c.rows == nil && c.keys > 0:
		return nil, riDense
	}
	keys := ctx.keyTable(1, c.keys)
	for _, r := range c.rows {
		keys.Insert(r[keyCol : keyCol+1])
	}
	return keys, ""
}

// Explain implements Step.
func (d *DeltaMaterializeStep) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Materialize %s from the changed-row frontier of %s (keys the last merge changed", d.Into, d.CTE)
	return d.explain(&b)
}
