package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// StepEffects checks that the step registry's effect dispatch in
// internal/core handles every type implementing core.Step. The
// registry (stepinfo.go) is the single source the effect sets (and the
// checkpoint specs built from them), the dataflow analysis and EXPLAIN
// all read from; a step type added to core but missing from it falls
// into the fail-closed default arm — the program then records no effect
// sets or checkpoint specs, and the verifier's unknown-step diagnostic
// rejects it — but the omission should be caught at lint time, not
// discovered as a failing query. The check
// mirrors stepswitch (which guards the verifier's independent
// dispatches) and is syntactic:
//
//   - A Step implementer is a type in the analyzed core package with a
//     Run method of two parameters (the second named self) and two
//     results, and an Explain method of no parameters and one result.
//   - A registry dispatch is a binding type switch (`switch t :=
//     s.(type)`) in internal/core with a default clause and at least
//     two `*X` case types whose names are Step implementers. The
//     binding separates the registry — which reads every step's fields
//     — from core's expression- and plan-walking switches and from
//     deliberately partial kind tests like the cost estimator's, which
//     switch without binding.
//
// Unlike stepswitch, the implementers come from the files under
// analysis themselves: the dispatch lives in the same package.
var StepEffects = &Analyzer{
	Name: "stepeffects",
	Doc:  "the core step registry's effect dispatch must handle every core.Step implementer",
	Run:  runStepEffects,
}

func runStepEffects(pass *Pass) []Diagnostic {
	if !isCorePackage(pass) {
		return nil
	}

	steps := map[string]bool{}
	runs := map[string]bool{}
	explains := map[string]bool{}
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := receiverTypeName(fn)
			if recv == "" {
				continue
			}
			switch fn.Name.Name {
			case "Run":
				if fieldCount(fn.Type.Params) == 2 && fieldCount(fn.Type.Results) == 2 && hasSelfParam(fn) {
					runs[recv] = true
				}
			case "Explain":
				if fieldCount(fn.Type.Params) == 0 && fieldCount(fn.Type.Results) == 1 {
					explains[recv] = true
				}
			}
		}
	}
	for recv := range runs {
		if explains[recv] {
			steps[recv] = true
		}
	}
	if len(steps) == 0 {
		return nil
	}

	type dispatch struct {
		pos   token.Position
		cases map[string]bool
	}
	var dispatches []dispatch
	for _, f := range pass.Files {
		pos := pass.Fset.Position(f.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
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
		if len(pass.Files) == 0 {
			return nil
		}
		return []Diagnostic{{
			Pos: pass.Fset.Position(pass.Files[0].Pos()),
			Message: "no step-registry type switch found (a type switch over *Step types with a " +
				"default clause); effect sets cannot be derived and every program runs sequentially",
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
				Message: "step registry does not handle core.Step implementer(s) " +
					strings.Join(missing, ", ") + "; their effect sets would never be derived",
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
