package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMainVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-V=full"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	// The go command requires the "buildID=" marker to cache vet results.
	if !strings.Contains(out.String(), " version devel comments-go-here buildID=") {
		t.Errorf("unexpected -V=full output %q", out.String())
	}
}

func TestMainFlagsIsJSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-flags"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	var flags []map[string]any
	if err := json.Unmarshal(out.Bytes(), &flags); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out.String())
	}
}

// writeCfg marshals a vet config for one synthetic core package file.
func writeCfg(t *testing.T, dir string, cfg unitConfig) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

const badCoreSrc = `package core

import "errors"

func f() error { return errors.New("nope") }
`

func TestMainUnitModeReportsDiagnostics(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "core.go")
	if err := os.WriteFile(src, []byte(badCoreSrc), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "out.vetx")
	cfg := writeCfg(t, dir, unitConfig{
		ImportPath: "dbspinner/internal/core",
		GoFiles:    []string{src},
		VetxOutput: vetx,
	})

	var out, errb bytes.Buffer
	if code := Main([]string{cfg}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "core.go:5:") || !strings.Contains(errb.String(), "errors.New") ||
		!strings.HasSuffix(errb.String(), " (coreerrors)\n") {
		t.Errorf("diagnostic missing position, message or check name: %q", errb.String())
	}
	// The facts file must exist even though no facts are produced, or
	// the go command reports the tool as failed.
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

func TestMainUnitModeVetxOnlySkipsAnalysis(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "core.go")
	if err := os.WriteFile(src, []byte(badCoreSrc), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "out.vetx")
	cfg := writeCfg(t, dir, unitConfig{
		ImportPath: "dbspinner/internal/core",
		GoFiles:    []string{src},
		VetxOnly:   true,
		VetxOutput: vetx,
	})

	var out, errb bytes.Buffer
	if code := Main([]string{cfg}, &out, &errb); code != 0 {
		t.Fatalf("VetxOnly run must succeed without analyzing; exit %d, stderr %q", code, errb.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

func TestMainUnitModeCleanPackage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "core.go")
	clean := `package core

import "fmt"

func f(name string) error { return fmt.Errorf("cte %s: bad", name) }
`
	if err := os.WriteFile(src, []byte(clean), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := writeCfg(t, dir, unitConfig{
		ImportPath: "dbspinner/internal/core",
		GoFiles:    []string{src},
	})
	var out, errb bytes.Buffer
	if code := Main([]string{cfg}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
}

func TestMainUnitModeSucceedOnTypecheckFailure(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "broken.go")
	if err := os.WriteFile(src, []byte("package core\nfunc {"), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := writeCfg(t, dir, unitConfig{
		ImportPath:                "dbspinner/internal/core",
		GoFiles:                   []string{src},
		SucceedOnTypecheckFailure: true,
	})
	var out, errb bytes.Buffer
	if code := Main([]string{cfg}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with SucceedOnTypecheckFailure, stderr %q", code, errb.String())
	}
}

func TestMainWithoutUnitConfigPrintsUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"./..."}} {
		var out, errb bytes.Buffer
		if code := Main(args, &out, &errb); code != 2 || !strings.HasPrefix(errb.String(), "usage: ") {
			t.Errorf("Main(%q): exit %d, stderr %q; want 2 and the usage", args, code, errb.String())
		}
	}
}
