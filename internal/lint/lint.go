// Package lint implements spinlint, the repository's custom static
// analyzers, plus the minimal driver machinery needed to run them under
// `go vet -vettool=` (the unitchecker command-line protocol), without
// depending on golang.org/x/tools.
//
// The analyzers encode invariants of this codebase that ordinary vet
// cannot know:
//
//   - resultstore: the intermediate-result store (StoreRuntime.Results)
//     may only be touched by the executor layers; everything else must
//     go through plans or the engine API, or result lifetimes and the
//     verifier's model of them diverge.
//   - coreerrors: errors raised inside internal/core must carry the
//     step, CTE or table name; a bare message is undebuggable once the
//     rewrite has expanded several CTEs.
//   - ctxcheck: every mpp.Machine method that fans out goroutines must
//     consult the machine checkpoint first; cooperative cancellation is
//     only as good as its least cooperative site. (The step loop polls
//     before every step, so steps need no check.)
//   - gorecover: every goroutine spawned in the executor layers
//     (core, exec, mpp) must run its body under faultinject.Contain;
//     an uncontained panic in a worker goroutine crashes the whole
//     process instead of failing the one query that caused it.
//
// That every step and plan-node kind is handled where it must be is not
// a lint matter: core.StepCases and plan.NodeCases make each such
// dispatch total, and the compiler rejects one that misses a kind.
//
// All checks are purely syntactic (go/ast, no go/types), which keeps
// the tool dependency-free and fast; the cost is a small set of
// documented heuristics. Findings can be suppressed with
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Check)
}

// Pass describes one package being analyzed.
type Pass struct {
	Fset       *token.FileSet
	Files      []*ast.File
	ImportPath string
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// Analyzers returns every spinlint check.
func Analyzers() []*Analyzer {
	return []*Analyzer{ResultStore, CoreErrors, Ctxcheck, GoRecover}
}

// Check runs every analyzer over the pass, drops findings in _test.go
// files (tests deliberately build broken fixtures) and findings
// suppressed by //lint:ignore comments, and returns the rest sorted by
// position.
func Check(pass *Pass) []Diagnostic {
	ignores := collectIgnores(pass)
	var out []Diagnostic
	for _, a := range Analyzers() {
		for _, d := range a.Run(pass) {
			d.Check = a.Name
			if strings.HasSuffix(d.Pos.Filename, "_test.go") {
				continue
			}
			if ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, a.Name}] ||
				ignores[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, a.Name}] {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Check < out[j].Check
	})
	return out
}

type ignoreKey struct {
	file  string
	line  int
	check string
}

// collectIgnores indexes //lint:ignore <check> <reason> comments by
// (file, line, check). A directive without a reason is not honored.
func collectIgnores(pass *Pass) map[ignoreKey]bool {
	out := map[ignoreKey]bool{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(text)
				// fields: ["lint:ignore", check, reason...]
				if len(fields) < 3 {
					continue // no reason given: directive ignored
				}
				pos := pass.Fset.Position(c.Pos())
				out[ignoreKey{pos.Filename, pos.Line, fields[1]}] = true
			}
		}
	}
	return out
}

// normImportPath strips the test-variant suffix go vet uses for
// packages built with their tests ("pkg [pkg.test]").
func normImportPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}

// isCorePackage reports whether the pass is the step-program package.
func isCorePackage(pass *Pass) bool {
	return normImportPath(pass.ImportPath) == "dbspinner/internal/core"
}

func position(pass *Pass, n ast.Node) token.Position {
	return pass.Fset.Position(n.Pos())
}

func receiverTypeName(fn *ast.FuncDecl) string {
	if len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}
