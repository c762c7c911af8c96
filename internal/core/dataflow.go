package core

// Column-level dataflow consumers (OptColumnPruning). The analysis
// itself lives in internal/dataflow; this file applies its two results
// to the rewrite: projection pruning of the CTE schema family, and
// liveness-driven truncation of finished intermediate results. Both are
// re-checked independently by internal/verify (pruned-column-use,
// premature-truncate) — the optimizer is never trusted on its own
// record.

import (
	"sort"
	"strings"

	"dbspinner/internal/ast"
	"dbspinner/internal/dataflow"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// noteDataflow records one analysis result on the program for EXPLAIN.
func (r *rewriter) noteDataflow(result string, live, pruned []string) {
	r.prog.Dataflow = append(r.prog.Dataflow, DataflowEntry{Result: result, Live: live, Pruned: pruned})
}

// pruneCTEColumns runs the live-column analysis for one iterative CTE
// and, when columns are provably dead, narrows R0's plan, the CTE
// schema and the iterative statement to the live positions. Column 0
// always survives (merge key, partitioning column), and the analysis
// refuses to prune under whole-row observers (UNTIL DELTA, UNTIL n
// UPDATES), so execution is observationally identical either way.
func (r *rewriter) pruneCTEColumns(cte *ast.CTE, r0 plan.Node, schema sqltypes.Schema,
	final *ast.SelectStmt, allCTEs []*ast.CTE) (plan.Node, sqltypes.Schema, *ast.SelectStmt, []string) {

	names := make([]string, len(schema))
	for i, c := range schema {
		names[i] = c.Name
	}
	// Observers: Qf plus every sibling CTE body (a later CTE may join
	// against this one's result).
	observers := []*ast.SelectStmt{final}
	for _, other := range allCTEs {
		if other == cte {
			continue
		}
		for _, s := range []*ast.SelectStmt{other.Select, other.Init, other.Iter} {
			if s != nil {
				observers = append(observers, s)
			}
		}
	}
	live := dataflow.CTELiveColumns(cte.Name, names, cte.Iter, cte.Until, observers)
	if !live.Exact || live.LiveCount() == len(schema) {
		return r0, schema, cte.Iter, nil
	}

	// Exact analysis implies a single-core Ri with one item per column.
	core := cte.Iter.Body.(*ast.SelectCore)
	cols := r0.Columns()
	var (
		items  []ast.SelectItem
		proj   []plan.ProjItem
		kept   sqltypes.Schema
		pruned []string
	)
	for i, c := range schema {
		if !live.Live[i] {
			pruned = append(pruned, c.Name)
			continue
		}
		kept = append(kept, c)
		items = append(items, core.Items[i])
		proj = append(proj, plan.ProjItem{
			Expr: &ast.ColumnRef{Table: cols[i].Table, Name: cols[i].Name},
			Name: c.Name,
			Type: c.Type,
		})
	}
	nc := *core
	nc.Items = items
	iter := &ast.SelectStmt{Body: &nc, OrderBy: cte.Iter.OrderBy, Limit: cte.Iter.Limit, Offset: cte.Iter.Offset}
	return &plan.Project{Input: r0, Items: proj}, kept, iter, pruned
}

// planResultNames collects the intermediate-result names a plan reads.
func planResultNames(n plan.Node) []string {
	var out []string
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if n == nil {
			return
		}
		if res, ok := n.(*plan.NamedResult); ok {
			out = append(out, res.Name)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// insertTruncations runs the live-range analysis over the finished step
// list and inserts a TruncateStep right after each result's last
// possible read, so Common#k blocks, delta tables and earlier CTE
// results do not sit at full size once their loop is done. Results some
// step already drops (rename sources, the merge path's working table)
// manage their own lifetime and are skipped; so is anything the final
// query reads. An insertion can never land strictly inside a loop body:
// a read at any body step extends the result's last use to the loop
// jump itself, so the insertion point is at earliest one past the jump.
func (r *rewriter) insertTruncations() {
	steps := r.prog.Steps
	ios := make([]dataflow.StepIO, len(steps))
	display := map[string]string{}
	for i, s := range steps {
		ios[i] = stepIO(s)
		for _, w := range ios[i].Writes {
			display[strings.ToLower(w)] = w
		}
	}
	last := dataflow.LastUses(ios, planResultNames(r.prog.Final))

	managed := map[string]bool{}
	for _, io := range ios {
		for _, d := range io.Drops {
			managed[strings.ToLower(d)] = true
		}
	}

	type insertion struct {
		pos  int
		name string // lowercased
	}
	var ins []insertion
	for name, at := range last {
		if at == dataflow.FreedAtEnd || managed[name] {
			continue
		}
		ins = append(ins, insertion{pos: at + 1, name: name})
	}
	if len(ins) == 0 {
		return
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].pos != ins[j].pos {
			return ins[i].pos < ins[j].pos
		}
		return ins[i].name < ins[j].name
	})

	freedAt := map[string]int{} // 1-based new step numbering
	out := make([]Step, 0, len(steps)+len(ins))
	k := 0
	for i := 0; i <= len(steps); i++ {
		for k < len(ins) && ins[k].pos == i {
			out = append(out, &TruncateStep{Name: display[ins[k].name]})
			freedAt[ins[k].name] = len(out)
			k++
		}
		if i < len(steps) {
			out = append(out, steps[i])
		}
	}
	// Remap loop jump targets past the insertions.
	shift := func(old int) int {
		n := 0
		for _, x := range ins {
			if x.pos <= old {
				n++
			}
		}
		return old + n
	}
	for _, s := range out {
		if l, ok := s.(*LoopStep); ok {
			l.BodyStart = shift(l.BodyStart)
		}
	}
	r.prog.Steps = out

	// Fold the freed-at step into the EXPLAIN record.
	noted := map[string]bool{}
	for i := range r.prog.Dataflow {
		key := strings.ToLower(r.prog.Dataflow[i].Result)
		noted[key] = true
		r.prog.Dataflow[i].FreedAfter = freedAt[key]
	}
	for _, x := range ins {
		if !noted[x.name] {
			r.noteDataflow(display[x.name], nil, nil)
			r.prog.Dataflow[len(r.prog.Dataflow)-1].FreedAfter = freedAt[x.name]
		}
	}
}
