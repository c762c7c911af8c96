package core

import (
	"fmt"
	"strings"

	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// DeltaMaterializeStep materializes the working table for one
// iteration on the merge path. On the first iteration (and whenever no
// changed-key set is available) it evaluates the full Ri plan;
// afterwards it restricts Ri's outer scan to the keys the previous
// merge changed plus their images under the propagation rules, as long
// as those are at most half the CTE (Restriction.restrict). The
// paired MergeStep carries every key the working table does not
// mention forward unchanged, which is what makes leaving them out
// sound.
type DeltaMaterializeStep struct {
	Restriction
	Delta string // delta table the paired MergeStep materializes
	Loop  *LoopState
}

// Run implements Step.
func (d *DeltaMaterializeStep) Run(ctx *Context) error {
	f, err := d.restrict(ctx, "delta materialize", func(*storage.Table) (*sqltypes.KeyTable, string) {
		if d.Loop == nil {
			return nil, riFirst
		}
		return d.Loop.changedKeys, riFirst // nil until the first merge has run
	})
	// The affected keys served the filter that bound In; the changed keys
	// stay the loop's.
	ctx.letGo(f.affected)
	if err != nil {
		return err
	}
	node, input := d.Full, f.cte
	if f.in != nil {
		defer ctx.RT.Results.Drop(d.In)
		node, input = d.Restricted, f.in
	}
	t, err := ctx.materialize(node, d.Into)
	if err != nil {
		return err
	}
	d.publish(ctx, t)
	ctx.Stats.RiFullRows += int64(f.cte.Len())
	ctx.Stats.RiInputRows += int64(input.Len())
	return nil
}

// Explain implements Step.
func (d *DeltaMaterializeStep) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Materialize %s from the changed-row frontier of %s (delta %s", d.Into, d.CTE, d.Delta)
	return d.explain(&b)
}
