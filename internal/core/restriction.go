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

// Incremental evaluation (OptIncremental) is the semi-naive idea
// REX and DBSP build on, in the one form this engine can keep
// byte-identical: when the frontier license (internal/aggprop) holds,
// Ri's scan of the outer iterative reference is restricted to the
// affected keys — the keys that changed since the previous iteration
// plus their images under the license's propagation rules — and every
// other key keeps the row it had. A key whose inputs did not change
// re-derives exactly the row it produced before, so leaving it out of
// the scan changes nothing as long as that row is carried forward.
// Inner references keep reading the full table (restricting them would
// corrupt aggregates over neighbours), which is why the license demands
// every one of them be routed to the outer key.
//
// Which step does the carrying forward is decided by the shape of the
// query, the way Algorithm 1 picks rename or merge:
//
//   - Ri has a WHERE (merge path): the merge already identifies the
//     changed rows and keeps the previous row of every key the working
//     table does not mention, so DeltaMaterializeStep only restricts
//     the scan by the keys the last merge published.
//   - Ri has no WHERE but aggregates (rename path): nothing identifies
//     changes and the working table replaces the CTE wholesale, so
//     MaintainAggStep diffs the CTE against a snapshot and, for every
//     unaffected key, keeps the CTE's own row: the previous output.
//   - otherwise the full plan runs: unlicensed, switched off, or a
//     parallel run with more than one partition (measured: on the MPP
//     machine the restricted form costs more than it saves).
//
// An installed step runs one plan, Ri with its outer reference reading
// In, and still chooses per iteration, from the frontier it has just
// measured, what In holds: the CTE rows of the affected keys while those
// are at most half the CTE's, the CTE table itself otherwise (restrict,
// dense). Finding and feeding the frontier costs passes whose price
// does not shrink with it, so past that point reading the whole CTE is
// the cheaper way to the same rows. Ri over the whole CTE needs no
// certificate, so the choice needs no analysis. What either step
// carries across the back-edge — the merge's change set, the
// maintenance step's snapshot — lives on its loop's per-run state
// (loopRun), not in the result store.
//
// Results are identical on every path — row order and float
// accumulation order included.

// Restriction is what the two incremental steps share: Ri and the names
// that tie it to the CTE.
type Restriction struct {
	Into  string    // working table
	Plan  plan.Node // Ri with its outer reference reading In
	In    string    // transient input of the outer reference
	CTE   string    // main CTE result
	Props []aggprop.Prop
}

// AggClaim is the incremental-evaluation decision for one iterative
// CTE: the frontier verdict when the analysis ran, the 1-based index of
// the step it installed (0: the full plan runs), and when none was
// installed the reason in one line.
type AggClaim struct {
	CTE     string
	Step    int
	Verdict aggprop.Verdict
	Reason  string
}

// buildRestriction compiles Ri for a licensed CTE: the post-common
// iterStmt with the outer reference reading Frontier#cte. A non-empty
// reason means it could not be built and the CTE runs unlicensed.
func (r *rewriter) buildRestriction(cte *ast.CTE, schema sqltypes.Schema, iterStmt *ast.SelectStmt,
	b *plan.Builder, verdict aggprop.Verdict, workName string) (Restriction, string) {

	in := "Frontier#" + cte.Name
	r.lookup.add(in, schema)
	sub, ok := substituteOuterRef(iterStmt, cte.Name, verdict.OuterAlias, in)
	if !ok {
		return Restriction{}, "outer-reference substitution failed on the rewritten iterative part"
	}
	rp, err := b.Build(sub)
	if err != nil || len(rp.Columns()) != len(schema) {
		return Restriction{}, "restricted plan failed to compile"
	}
	rp, err = renameTo(rp, schema)
	if err != nil {
		return Restriction{}, "restricted plan failed to compile"
	}
	return Restriction{Into: workName, Plan: rp, In: in, CTE: cte.Name, Props: verdict.Props}, ""
}

// substituteOuterRef returns a copy of the iterative statement with
// the outer CTE reference reading newName instead, keeping its visible
// alias so qualified column references still resolve. Exactly one
// reference must match.
func substituteOuterRef(stmt *ast.SelectStmt, cteName, outerAlias, newName string) (*ast.SelectStmt, bool) {
	core, ok := stmt.Body.(*ast.SelectCore)
	if !ok || core.From == nil {
		return nil, false
	}
	from, n := replaceTableRef(core.From, cteName, outerAlias, newName)
	if n != 1 {
		return nil, false
	}
	nc := *core
	nc.From = from
	return &ast.SelectStmt{Body: &nc, OrderBy: stmt.OrderBy, Limit: stmt.Limit, Offset: stmt.Offset}, true
}

// replaceTableRef rebuilds the join tree along the path to the matched
// base table, leaving untouched subtrees shared with the original.
func replaceTableRef(t ast.TableRef, cteName, alias, newName string) (ast.TableRef, int) {
	switch x := t.(type) {
	case *ast.BaseTable:
		if strings.EqualFold(x.Name, cteName) && ast.AliasOf(x) == alias {
			eff := x.Alias
			if eff == "" {
				eff = x.Name
			}
			return &ast.BaseTable{Name: newName, Alias: eff}, 1
		}
		return x, 0
	case *ast.JoinRef:
		l, nl := replaceTableRef(x.Left, cteName, alias, newName)
		r, nr := replaceTableRef(x.Right, cteName, alias, newName)
		if nl+nr == 0 {
			return x, 0
		}
		return &ast.JoinRef{Type: x.Type, Left: l, Right: r, On: x.On}, nl + nr
	}
	return t, 0
}

// frontier is one iteration's restriction: the CTE table, the table
// bound under Restriction.In for Ri's outer reference to read, and,
// when the iteration restricts, the affected keys, whose CTE rows are
// what In holds (nil: In holds the CTE table itself).
type frontier struct {
	cte      *storage.Table
	in       *storage.Table
	affected *sqltypes.KeyTable
}

// What an iteration of a restricted step fed Ri, as the trace reports
// it (IterationSpan.Ri): the affected rows, or the full CTE and the one
// reason it was fed.
const (
	riRestricted  = "restricted"
	riFirst       = "full: first iteration"
	riDense       = "full: dense frontier"
	riUncertified = "full: not certified"
	riDegraded    = "full: degraded"
)

// dense is the per-iteration choice of what Ri reads: n affected keys
// of a CTE of `of` rows are too many to restrict when they are more than
// half of it. Restricting costs a filter pass over the CTE, a scan of
// each propagation table and, on the rename path, a diff and a splice,
// whatever the frontier's size — measured at 0.3-0.5 of a full Ri
// (PageRank on the benchmark graph fed 93% of the keys and ran 1.25x a
// full iteration; SSSP-VS fed 71% and ran 1.18x) — so it pays only below
// roughly half the keys, where it pays well (SSSP on dblp-small feeds a
// tenth of the rows and runs 2.5x faster). A variable only so the tests
// can seed the mutant that never answers true; nothing else assigns it.
var dense = func(n, of int) bool { return 2*n > of }

// restrict is the run-time half of a Restriction, and the one place
// what Ri reads is chosen. changed yields the keys that differ from the
// previous iteration, in a key table of the run's that restrict lets
// go, or nil and the reason the step cannot restrict (first iteration,
// uncertifiable state, a frontier already known to be dense); the
// affected set is their closure under Props, and when it is not dense
// In is bound to the CTE rows carrying an affected key (partition
// layout preserved, no rehashing). Every other outcome binds In to the
// CTE table itself, and consults nothing cached. On success the caller
// drops In once Ri has run, and lets frontier.affected go. The rule is
// applied as soon as its answer is known — the changed keys are a
// subset of the affected ones, so a dense changed set skips the
// closure, and the closure stops growing at the bound.
//
// A degraded context (the step loop's graceful-degradation ladder)
// never restricts: the volcano rung switches off everything that
// carries state across the back-edge, and Ri over the whole CTE is
// byte-identical by the license.
func (r *Restriction) restrict(ctx *Context, what string, changed func(cte *storage.Table) (*sqltypes.KeyTable, string)) (frontier, error) {
	f := frontier{cte: ctx.RT.Results.Get(r.CTE)}
	if f.cte == nil {
		return f, fmt.Errorf("%s %s: result %q not found", what, r.Into, r.CTE)
	}
	f.in = f.cte
	why := riDegraded
	if !ctx.degraded() {
		var keys *sqltypes.KeyTable
		keys, why = changed(f.cte)
		if keys != nil {
			var err error
			f.affected, err = affectedKeys(ctx, keys, r.Props, f.cte.Len(), what)
			ctx.letGo(keys)
			if err != nil {
				return f, err
			}
			why = riDense // the one reason the closure comes back nil
		}
	}
	if f.affected != nil {
		f.in = exec.FilterTableByKey(f.cte, keyCol, f.affected, r.In, ctx.RT.Memo().Chunks(), &ctx.Stats.ExecStats)
		why = riRestricted
	}
	ctx.RT.Results.Put(r.In, f.in)
	ctx.noteRi(why)
	return f, nil
}

// affectedKeys is changed ∪ propagate(changed): for each rule, base
// rows whose From column holds a changed key mark their To column's
// value affected. Over-approximation is safe; missing a key is not,
// which is what the license guarantees against. It returns nil as soon
// as the set is dense in a CTE of `of` rows: before any scan when the
// changed keys alone are, and mid-scan when the set grows past the
// bound — the rest could only add to it. what names the caller in
// errors.
func affectedKeys(ctx *Context, changed *sqltypes.KeyTable, props []aggprop.Prop, of int, what string) (*sqltypes.KeyTable, error) {
	if dense(changed.Len(), of) {
		return nil, nil
	}
	affected := ctx.keyTable(1, 2*changed.Len())
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
				ctx.Stats.RowsScanned++
				if p.From >= len(r) || p.To >= len(r) {
					continue
				}
				if changed.Find(r[p.From:p.From+1]) < 0 {
					continue
				}
				if _, added := affected.Insert(r[p.To : p.To+1]); added && dense(affected.Len(), of) {
					ctx.letGo(affected)
					return nil, nil
				}
			}
		}
	}
	return affected, nil
}

// publish binds the iteration's working table, counts it and records
// its partition sizes as the step's next size hint.
func (r *Restriction) publish(ctx *Context, out *storage.Table) {
	ctx.noteSizes(out)
	ctx.RT.Results.Put(r.Into, out)
	ctx.track(r.Into)
	ctx.Stats.MaterializedCells += int64(out.Len()) * int64(len(out.Schema))
	ctx.Stats.UpdatedRows += int64(out.Len())
}

// explain renders what both steps share after their own opening
// clause: the propagation rules and Ri.
func (r *Restriction) explain(b *strings.Builder) string {
	for _, p := range r.Props {
		fmt.Fprintf(b, "; propagate via %s[%d->%d]", p.Table, p.From, p.To)
	}
	b.WriteString("; full plan on the first iteration and on a dense frontier) with:\n")
	b.WriteString(strings.TrimRight(indent(plan.ExplainTree(r.Plan), "  "), "\n"))
	return b.String()
}
