package lint

import (
	"go/ast"
)

// Ctxcheck enforces the query-lifecycle contract on the MPP machine:
// cooperative cancellation only works if every long-running execution
// site actually polls the context. Every Machine method in
// internal/mpp that launches goroutines (contains a `go` statement) must
// call the machine's checkpoint method before fanning out — otherwise a
// canceled query still pays a full partition batch. (Step boundaries
// need no check: the step loop polls before every step.)
//
// The check is syntactic and fail-closed: a fan-out method with no
// reachable checkpoint call is flagged even if it "obviously" finishes
// quickly; suppress deliberate exceptions with
// //lint:ignore ctxcheck <reason>.
var Ctxcheck = &Analyzer{
	Name: "ctxcheck",
	Doc:  "mpp.Machine fan-out methods must consult the cancellation checkpoint",
	Run:  runCtxcheck,
}

func runCtxcheck(pass *Pass) []Diagnostic {
	if normImportPath(pass.ImportPath) != "dbspinner/internal/mpp" {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if receiverTypeName(fn) != "Machine" {
				continue
			}
			hasGo := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					hasGo = true
					return false
				}
				return true
			})
			if !hasGo {
				continue
			}
			if callsSelector(fn.Body, "checkpoint") {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos: pass.Fset.Position(fn.Pos()),
				Message: "(Machine)." + fn.Name.Name + " launches goroutines without calling checkpoint; " +
					"every partition fan-out must poll the cancellation context first",
			})
		}
	}
	return diags
}

// callsSelector reports whether body contains a call expression whose
// callee is a selector with the given name (x.<name>(...)), anywhere —
// including nested function literals, since checkpoints may live
// inside per-partition closures.
func callsSelector(body ast.Node, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}
