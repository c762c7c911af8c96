package verify

// Seeded-mutant tests for the partition-property re-derivation: take a
// genuinely rewritten program whose claims and elisions verify clean,
// corrupt one record the way a buggy producer would, and require the
// independent re-derivation to fail closed on exactly that record.

import (
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/core"
	"dbspinner/internal/distprop"
)

// elisionProgram rewrites an iterative join query under a parallel
// 2-partition configuration: the loop body joins the CTE (hash(0),
// iteration-invariant through the rename) with the edges scan
// (hash(src)), so both join-side exchanges are licensed and recorded.
func elisionProgram(t *testing.T) *core.Program {
	t.Helper()
	prog, _ := elisionRewrite(t)
	return prog
}

func elisionRewrite(t *testing.T) (*core.Program, *ast.SelectStmt) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parts = 2
	opts.Parallel = true
	stmt := parseStmt(t, `WITH ITERATIVE c (k, v) AS (
		SELECT src, dst FROM edges
		ITERATE SELECT c.k, e.dst FROM c JOIN edges AS e ON c.k = e.src
		UNTIL 2 ITERATIONS) SELECT k, v FROM c`)
	prog, err := core.Rewrite(stmt, newRT(t), opts)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if len(prog.DistProps) == 0 {
		t.Fatal("rewrite recorded no distribution claims")
	}
	if len(prog.Elisions) == 0 {
		t.Fatal("rewrite licensed no elisions; the mutants below would be vacuous")
	}
	return prog, stmt
}

func requireClass(t *testing.T, diags []Diagnostic, class string) {
	t.Helper()
	for _, d := range diags {
		if d.Class == class {
			return
		}
	}
	t.Fatalf("expected a %s diagnostic, got %v", class, diags)
}

func requireClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Fatalf("expected clean verification, got %v", diags)
	}
}

// TestRecordedDistPropsReverify: the untouched rewrite output passes
// its own re-derivation (and did so already inside Rewrite, since
// Options.Verify is on).
func TestRecordedDistPropsReverify(t *testing.T) {
	prog := elisionProgram(t)
	requireClean(t, checkDistProps(prog))
}

// TestWrappedStepsVerifyClean: a step that embeds another dispatches as
// the step it embeds, so a program whose every step but the loop steps
// is wrapped passes every check, its claims and elisions included.
func TestWrappedStepsVerifyClean(t *testing.T) {
	prog, stmt := elisionRewrite(t)
	for i, s := range prog.Steps {
		if _, loop := s.(*core.LoopStep); !loop {
			prog.Steps[i] = wrappedStep{s}
		}
	}
	requireClean(t, Check(prog, stmt))
}

type wrappedStep struct{ core.Step }

// TestRejectsWidenedPropertyClaim: a producer bug that widens a claimed
// key set — hash(k) recorded as hash(k, v) — claims placement the
// machine does not guarantee.
func TestRejectsWidenedPropertyClaim(t *testing.T) {
	prog := elisionProgram(t)
	mutated := false
	for i, c := range prog.DistProps {
		if c.Prop.Kind == distprop.KindHash {
			prog.DistProps[i].Prop = distprop.Hash(append(append([]int(nil), c.Prop.Cols...), 1)...)
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no hash claim to widen")
	}
	requireClass(t, checkDistProps(prog), ClassUnsoundDistProp)
}

// TestRejectsClaimOnNonInvariantLoopSlot: the body of this query
// computes the CTE's first column (k + 1), so the seed's hash(src)
// layout does not survive the back-edge and the slot provably
// satisfies nothing at the loop head; claiming hash(0) for the body
// materialization trusts a layout the back-edge destroys.
func TestRejectsClaimOnNonInvariantLoopSlot(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Parts = 2
	opts.Parallel = true
	stmt := parseStmt(t, `WITH ITERATIVE c (k, v) AS (
		SELECT src, dst FROM edges
		ITERATE SELECT k + 1, v FROM c UNTIL 3 ITERATIONS) SELECT k FROM c`)
	prog, err := core.Rewrite(stmt, newRT(t), opts)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	requireClean(t, checkDistProps(prog))
	mutated := false
	for i, c := range prog.DistProps {
		if c.Step > 0 && c.Slot != "" && c.Prop.Kind == distprop.KindUnknown {
			if _, ok := prog.Steps[c.Step-1].(*core.MaterializeStep); ok {
				prog.DistProps[i].Prop = distprop.Hash(0)
				mutated = true
				break
			}
		}
	}
	if !mutated {
		t.Fatal("no unknown-property materialize claim to corrupt")
	}
	requireClass(t, checkDistProps(prog), ClassUnsoundDistProp)
}

// TestRejectsClaimPastFrontierExpandingMerge: a MergeStep rebuilds its
// output hash-distributed on the merge key (column 0); a claim that the
// merged table is distributed on some other column survives no
// re-derivation.
func TestRejectsClaimPastFrontierExpandingMerge(t *testing.T) {
	prog := mergeProgram()
	prog.DistProps = []core.DistClaim{
		{Step: 4, Slot: "Merge#t", Prop: distprop.Hash(1), Desc: "hash(v)"},
	}
	requireClass(t, checkDistProps(prog), ClassUnsoundDistProp)
}

// TestRejectsClaimOnUnboundStep: a claim naming a step that binds no
// result (loop bookkeeping) is structurally unsound.
func TestRejectsClaimOnUnboundStep(t *testing.T) {
	prog := elisionProgram(t)
	for i, s := range prog.Steps {
		if _, ok := s.(*core.UpdateLoopStep); ok {
			prog.DistProps = append(prog.DistProps, core.DistClaim{
				Step: i + 1, Slot: "ghost", Prop: distprop.Hash(0),
			})
			requireClass(t, checkDistProps(prog), ClassUnsoundDistProp)
			return
		}
	}
	t.Fatal("program has no loop bookkeeping step")
}

// TestRejectsElisionWithIncompatibleKeyOrder: the re-derivation
// licenses each exchange on exact routing columns in key order;
// perturbing the recorded columns — the bug a swapped or re-ordered
// key list would produce — must fail closed.
func TestRejectsElisionWithIncompatibleKeyOrder(t *testing.T) {
	prog := elisionProgram(t)
	for i := range prog.Elisions {
		cols := prog.Elisions[i].Cols
		for j := range cols {
			cols[j]++
		}
		_ = i
		break
	}
	requireClass(t, checkDistProps(prog), ClassMissingExchange)
}

// TestRejectsFabricatedElision: an elision on a node the re-derivation
// never licensed (here: the final query's CTE read, which has no
// exchange at all) is a missing exchange.
func TestRejectsFabricatedElision(t *testing.T) {
	prog := elisionProgram(t)
	prog.Elisions = append(prog.Elisions, core.ElisionRecord{
		Step: 0, Node: prog.Final, Exch: distprop.JoinLeft, Cols: []int{0},
	})
	requireClass(t, checkDistProps(prog), ClassMissingExchange)
}

// TestRejectsElisionWithoutShuffles: elisions in a program that never
// shuffles (sequential, or a single partition) license the machine to
// skip exchanges that do not exist.
func TestRejectsElisionWithoutShuffles(t *testing.T) {
	prog := elisionProgram(t)
	prog.Parallel = false
	requireClass(t, checkDistProps(prog), ClassMissingExchange)
}

// TestHandBuiltProgramsSkipDistCheck: programs that never ran the
// analysis record neither claims nor elisions and are not checked.
func TestHandBuiltProgramsSkipDistCheck(t *testing.T) {
	prog, _ := validProgram()
	requireClean(t, checkDistProps(prog))
}
