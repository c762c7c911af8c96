package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc builds a Pass from in-memory sources. Keys are file names
// (so _test.go exemption and suppression positions can be exercised).
func parseSrc(t *testing.T, importPath string, files map[string]string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	pass := &Pass{Fset: fset, ImportPath: importPath}
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		pass.Files = append(pass.Files, f)
	}
	return pass
}

func checkSrc(t *testing.T, importPath, src string) []Diagnostic {
	t.Helper()
	return Check(parseSrc(t, importPath, map[string]string{"fixture.go": src}))
}

func assertFindings(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		parts := strings.SplitN(w, "|", 2)
		check, substr := parts[0], parts[1]
		if diags[i].Check != check {
			t.Errorf("finding %d: check = %q, want %q", i, diags[i].Check, check)
		}
		if !strings.Contains(diags[i].Message, substr) {
			t.Errorf("finding %d: message %q does not contain %q", i, diags[i].Message, substr)
		}
	}
}

const corePath = "dbspinner/internal/core"

func TestResultStoreFlagsOutsideAccess(t *testing.T) {
	src := `package engine

func peek(rt *Runtime) int {
	return rt.Results.Len()
}
`
	assertFindings(t, checkSrc(t, "dbspinner", src),
		"resultstore|direct access to the intermediate-result store")
}

func TestResultStoreAllowsExecutorLayers(t *testing.T) {
	src := `package exec

func get(rt *StoreRuntime, name string) any { return rt.Results.Get(name) }
`
	for _, path := range []string{
		"dbspinner/internal/exec",
		"dbspinner/internal/storage",
		"dbspinner/internal/core",
		"dbspinner/internal/mpp",
		// test-variant import path as go vet reports it
		"dbspinner/internal/exec [dbspinner/internal/exec.test]",
	} {
		assertFindings(t, checkSrc(t, path, src))
	}
}

func TestCoreErrors(t *testing.T) {
	src := `package core

import (
	"errors"
	"fmt"
)

func f(name string) error {
	if name == "" {
		return errors.New("missing name")
	}
	if name == "x" {
		return fmt.Errorf("bad input")
	}
	return fmt.Errorf("cte %s: only 100%% done", name)
}
`
	assertFindings(t, checkSrc(t, corePath, src),
		"coreerrors|errors.New message carries no step, CTE or table name",
		"coreerrors|fmt.Errorf message carries no step, CTE or table name")
}

func TestCoreErrorsOnlyAppliesToCore(t *testing.T) {
	src := `package exec

import "errors"

func f() error { return errors.New("plain") }
`
	assertFindings(t, checkSrc(t, "dbspinner/internal/exec", src))
}

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	src := `package core

import "errors"

func f() error {
	//lint:ignore coreerrors statement-level error, no CTE in scope yet
	return errors.New("no iterative CTE")
}

func g() error {
	return errors.New("still flagged") //lint:ignore coreerrors same-line reasons work
}

func h() error {
	//lint:ignore coreerrors
	return errors.New("reasonless directive is not honored")
}

func k() error {
	//lint:ignore gorecover wrong check name does not suppress
	return errors.New("flagged")
}
`
	diags := checkSrc(t, corePath, src)
	// f suppressed (line above), g suppressed (same line),
	// h and k still flagged.
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2:\n%v", len(diags), diags)
	}
	if diags[0].Pos.Line != 16 || diags[1].Pos.Line != 21 {
		t.Errorf("findings at lines %d, %d; want 16, 21", diags[0].Pos.Line, diags[1].Pos.Line)
	}
}

func TestTestFilesAreExempt(t *testing.T) {
	pass := parseSrc(t, corePath, map[string]string{
		"fixture_test.go": `package core

import "errors"

func f() error { return errors.New("fixtures may be broken") }
`,
	})
	if diags := Check(pass); len(diags) != 0 {
		t.Fatalf("findings in _test.go should be dropped, got %v", diags)
	}
}

func TestFindingsAreSorted(t *testing.T) {
	pass := parseSrc(t, corePath, map[string]string{
		"b.go": `package core

import "errors"

var errB = errors.New("b")
`,
		"a.go": `package core

import "errors"

var errA1 = errors.New("a1")
var errA2 = errors.New("a2")
`,
	})
	diags := Check(pass)
	if len(diags) != 3 {
		t.Fatalf("got %d findings, want 3", len(diags))
	}
	if diags[0].Pos.Filename != "a.go" || diags[1].Pos.Filename != "a.go" || diags[2].Pos.Filename != "b.go" {
		t.Errorf("findings not sorted by file: %v", diags)
	}
	if diags[0].Pos.Line >= diags[1].Pos.Line {
		t.Errorf("findings not sorted by line: %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "x.go", Line: 3, Column: 9},
		Check:   "gorecover",
		Message: "boom",
	}
	if got, want := d.String(), "x.go:3:9: boom (gorecover)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
