package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// StepSwitch checks that the verifier's step-dispatch switch handles
// every type in internal/core that implements core.Step. The verifier
// simulates programs by switching on the concrete step type; a step
// type added to core but not to the dispatch falls into the default
// arm and every program using it is rejected as "unknown step" — or,
// worse, a partial copy of the dispatch silently skips the step's
// reads and writes. The check is syntactic, like the rest of spinlint:
//
//   - A dispatch switch is a type switch in dbspinner/internal/verify
//     with at least two `*core.X` case types and a default clause (the
//     fail-closed arm). Partial switches without a default — helpers
//     that deliberately look at a step subset — are not dispatches.
//   - A Step implementer is a type in internal/core with both a
//     Run(*Context) error method and an Explain method of no parameters
//     and one result (the Step interface, matched shape-wise because
//     spinlint does not type-check; see stepTypes).
//
// The core sources are located on disk relative to the verify files
// being analyzed; if they cannot be read the analyzer fails closed
// with a diagnostic rather than silently passing.
var StepSwitch = &Analyzer{
	Name: "stepswitch",
	Doc:  "the verifier's step-dispatch switch must handle every core.Step implementer",
	Run:  runStepSwitch,
}

func runStepSwitch(pass *Pass) []Diagnostic {
	if normImportPath(pass.ImportPath) != "dbspinner/internal/verify" {
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
			cases, hasDefault := coreCaseTypes(sw)
			if len(cases) >= 2 && hasDefault {
				dispatches = append(dispatches, dispatch{pass.Fset.Position(sw.Pos()), cases})
			}
			return true
		})
	}
	if len(dispatches) == 0 {
		// No file position to anchor to would mean no files at all;
		// anchor the finding to the first file.
		if len(pass.Files) == 0 {
			return nil
		}
		return []Diagnostic{{
			Pos: pass.Fset.Position(pass.Files[0].Pos()),
			Message: "no step-dispatch type switch found (a type switch over *core step types " +
				"with a default clause); the verifier cannot be checked for step coverage",
		}}
	}

	steps, err := coreStepImplementers(pass)
	if err != nil {
		return []Diagnostic{{
			Pos:     dispatches[0].pos,
			Message: "cannot read internal/core to enumerate step types: " + err.Error(),
		}}
	}

	var diags []Diagnostic
	for _, d := range dispatches {
		var missing []string
		for _, s := range steps {
			if !d.cases[s] {
				missing = append(missing, s)
			}
		}
		if len(missing) > 0 {
			diags = append(diags, Diagnostic{
				Pos: d.pos,
				Message: "step-dispatch switch does not handle core.Step implementer(s) " +
					strings.Join(missing, ", ") + "; their reads and writes would not be simulated",
			})
		}
	}
	return diags
}

// coreCaseTypes collects the `X` of every `case *core.X:` clause of a
// type switch, and whether the switch has a default clause.
func coreCaseTypes(sw *ast.TypeSwitchStmt) (map[string]bool, bool) {
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
			sel, ok := star.X.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" {
				cases[sel.Sel.Name] = true
			}
		}
	}
	return cases, hasDefault
}

// coreStepImplementers parses the internal/core package (located as a
// sibling of the directory holding the files under analysis) and
// returns every Step implementer, sorted.
func coreStepImplementers(pass *Pass) ([]string, error) {
	if len(pass.Files) == 0 {
		return nil, nil
	}
	verifyDir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	coreDir := filepath.Join(verifyDir, "..", "core")
	entries, err := os.ReadDir(coreDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(coreDir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var out []string
	for recv := range stepTypes(files) {
		out = append(out, recv)
	}
	sort.Strings(out)
	return out, nil
}

// stepTypes returns the receiver type names in files that implement
// core.Step: a Run method shaped Run(*Context) error — the step loop
// polls cancellation and picks the next step, so a step's Run takes
// nothing else and returns only its error — and an Explain method of no
// parameters and one result.
func stepTypes(files []*ast.File) map[string]bool {
	runs, explains := map[string]bool{}, map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := receiverTypeName(fn)
			switch {
			case recv == "":
			case fn.Name.Name == "Run" && isStepRun(fn.Type):
				runs[recv] = true
			case fn.Name.Name == "Explain" && fieldCount(fn.Type.Params) == 0 && fieldCount(fn.Type.Results) == 1:
				explains[recv] = true
			}
		}
	}
	steps := map[string]bool{}
	for recv := range runs {
		if explains[recv] {
			steps[recv] = true
		}
	}
	return steps
}

// isStepRun reports whether a Run signature is Step's: one *Context
// parameter and one error result.
func isStepRun(ft *ast.FuncType) bool {
	if fieldCount(ft.Params) != 1 || fieldCount(ft.Results) != 1 {
		return false
	}
	star, ok := ft.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	ctx, ok := star.X.(*ast.Ident)
	if !ok || ctx.Name != "Context" {
		return false
	}
	res, ok := ft.Results.List[0].Type.(*ast.Ident)
	return ok && res.Name == "error"
}

// fieldCount counts the values of a field list (a field with n names
// counts n times; an unnamed field counts once).
func fieldCount(fl *ast.FieldList) int {
	if fl == nil {
		return 0
	}
	n := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}
