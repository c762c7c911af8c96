package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// This file is a standard-library emulation of
// golang.org/x/tools/go/analysis/analysistest: every analyzer has a
// fixture tree under testdata/src/<analyzer>/, laid out by import path,
// and expectations are `// want "regexp"` comments on the flagged
// lines. The fixtures run through the same Check pipeline as
// production code, so //lint:ignore directives and the _test.go
// exemption behave exactly as they do under `make lint`.

// runFixtures analyzes each import path under testdata/src/<a.Name>/
// and matches a's findings against the fixtures' want comments.
func runFixtures(t *testing.T, a *Analyzer, importPaths ...string) {
	t.Helper()
	root := filepath.Join("testdata", "src", a.Name)
	for _, ip := range importPaths {
		t.Run(ip, func(t *testing.T) {
			checkFixturePackage(t, a, root, ip)
		})
	}
}

type lineKey struct {
	file string
	line int
}

func checkFixturePackage(t *testing.T, a *Analyzer, root, importPath string) {
	t.Helper()
	dir := filepath.Join(root, filepath.FromSlash(importPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture package %s: %v", importPath, err)
	}
	fset := token.NewFileSet()
	pass := &Pass{Fset: fset, ImportPath: importPath}
	wants := map[lineKey][]*regexp.Regexp{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		pass.Files = append(pass.Files, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, re := range parseWants(t, path, pos.Line, c.Text) {
					k := lineKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	if len(pass.Files) == 0 {
		t.Fatalf("fixture package %s has no Go files", importPath)
	}

	got := map[lineKey][]Diagnostic{}
	for _, d := range Check(pass) {
		if d.Check != a.Name {
			continue // fixtures assert one analyzer, like analysistest
		}
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d)
	}

	for k, res := range wants {
		diags := got[k]
		if len(diags) != len(res) {
			t.Errorf("%s:%d: got %d finding(s), want %d: %v", k.file, k.line, len(diags), len(res), diags)
			continue
		}
		for i, re := range res {
			if !re.MatchString(diags[i].Message) {
				t.Errorf("%s:%d: finding %q does not match want %q", k.file, k.line, diags[i].Message, re)
			}
		}
	}
	for k, diags := range got {
		if _, ok := wants[k]; !ok {
			t.Errorf("%s:%d: unexpected finding(s): %v", k.file, k.line, diags)
		}
	}
}

// parseWants extracts the expectation regexps of one `// want ...`
// comment. Both quoted ("...") and backquoted (`...`) forms are
// accepted, several per comment, exactly like analysistest.
func parseWants(t *testing.T, file string, line int, comment string) []*regexp.Regexp {
	t.Helper()
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return nil
	}
	var out []*regexp.Regexp
	for _, tok := range wantTokenRE.FindAllString(rest, -1) {
		unq, err := strconv.Unquote(tok)
		if err != nil {
			t.Fatalf("%s:%d: cannot unquote want token %s: %v", file, line, tok, err)
		}
		re, err := regexp.Compile(unq)
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %s: %v", file, line, tok, err)
		}
		out = append(out, re)
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: want comment carries no pattern", file, line)
	}
	return out
}

var wantTokenRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func TestResultStoreFixtures(t *testing.T) {
	runFixtures(t, ResultStore, "dbspinner", "dbspinner/internal/exec")
}

func TestCoreErrorsFixtures(t *testing.T) {
	runFixtures(t, CoreErrors, "dbspinner/internal/core")
}

func TestCtxcheckFixtures(t *testing.T) {
	runFixtures(t, Ctxcheck, "dbspinner/internal/mpp")
}

func TestGoRecoverFixtures(t *testing.T) {
	runFixtures(t, GoRecover, "dbspinner/internal/mpp", "dbspinner/internal/txn")
}

// The harness itself must reject malformed fixtures rather than pass
// vacuously: a want comment with no parseable pattern is a test error.
func TestParseWants(t *testing.T) {
	re := parseWants(t, "x.go", 1, "// want `a b` \"c\\\"d\"")
	if len(re) != 2 || re[0].String() != "a b" || re[1].String() != `c"d` {
		t.Fatalf("parseWants = %v", re)
	}
	if parseWants(t, "x.go", 1, "// plain comment") != nil {
		t.Fatal("non-want comment must yield nothing")
	}
	var patterns []string
	for _, tok := range wantTokenRE.FindAllString("`x` junk \"y\"", -1) {
		patterns = append(patterns, tok)
	}
	if fmt.Sprint(patterns) != "[`x` \"y\"]" {
		t.Fatalf("tokenizer = %v", patterns)
	}
}
