package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// StepEffects checks that core's step-IO dispatch (stepIO in
// stepinfo.go) handles every type implementing core.Step. It says which
// intermediate results a step reads, writes and frees and where a loop
// step jumps, and liveness-driven truncation places its truncate steps
// from it. A step type added to core but missing from it falls into the
// default arm and contributes no IO, so truncation cannot see what the
// step reads — the verifier's unknown-step diagnostic rejects the
// program — and the omission should be caught at lint time, not
// discovered as a failing query. The check mirrors stepswitch (which
// guards the verifier's independent dispatches) and is syntactic:
//
//   - A Step implementer is a type in the analyzed core package with a
//     Run(*Context) error method and an Explain method of no parameters
//     and one result (stepTypes).
//   - The IO dispatch is a binding type switch (`switch t :=
//     s.(type)`) in internal/core with a default clause and at least
//     two `*X` case types whose names are Step implementers. The
//     binding separates it — it reads every step's fields — from core's
//     expression- and plan-walking switches and from deliberately
//     partial kind tests like the cost estimator's, which switch
//     without binding.
//
// Unlike stepswitch, the implementers come from the files under
// analysis themselves: the dispatch lives in the same package.
var StepEffects = &Analyzer{
	Name: "stepeffects",
	Doc:  "core's step-IO dispatch must handle every core.Step implementer",
	Run:  runStepEffects,
}

func runStepEffects(pass *Pass) []Diagnostic {
	if !isCorePackage(pass) {
		return nil
	}
	var files []*ast.File
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	steps := stepTypes(files)
	if len(steps) == 0 {
		return nil
	}

	type dispatch struct {
		pos   token.Position
		cases map[string]bool
	}
	var dispatches []dispatch
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			if _, binds := sw.Assign.(*ast.AssignStmt); !binds {
				return true
			}
			cases, hasDefault := localStepCaseTypes(sw, steps)
			if len(cases) >= 2 && hasDefault {
				dispatches = append(dispatches, dispatch{pass.Fset.Position(sw.Pos()), cases})
			}
			return true
		})
	}
	if len(dispatches) == 0 {
		return []Diagnostic{{
			Pos: pass.Fset.Position(files[0].Pos()),
			Message: "no step-IO type switch found (a binding type switch over *Step types with a " +
				"default clause); truncation cannot see what any step reads, writes or frees",
		}}
	}

	var diags []Diagnostic
	for _, d := range dispatches {
		var missing []string
		for s := range steps {
			if !d.cases[s] {
				missing = append(missing, s)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			diags = append(diags, Diagnostic{
				Pos: d.pos,
				Message: "step-IO dispatch does not handle core.Step implementer(s) " +
					strings.Join(missing, ", ") + "; truncation would not see their reads, writes and frees",
			})
		}
	}
	return diags
}

// localStepCaseTypes collects the `X` of every `case *X:` clause whose
// name is a known Step implementer, and whether the switch has a
// default clause.
func localStepCaseTypes(sw *ast.TypeSwitchStmt, steps map[string]bool) (map[string]bool, bool) {
	cases := map[string]bool{}
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, t := range cc.List {
			star, ok := t.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); ok && steps[id.Name] {
				cases[id.Name] = true
			}
		}
	}
	return cases, hasDefault
}
