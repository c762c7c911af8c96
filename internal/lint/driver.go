package lint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"
)

// This file implements the command-line protocol `go vet -vettool=`
// expects of an analysis tool (the same contract as
// golang.org/x/tools/go/analysis/unitchecker, re-implemented on the
// standard library so the repository stays dependency-free):
//
//	spinlint -V=full      print a version line with a content hash,
//	                      used by the build cache
//	spinlint -flags       describe supported flags as JSON
//	spinlint unit.cfg     analyze the compilation unit described by
//	                      the JSON config the go command wrote
//
// Each finding prints as Diagnostic.String, "pos: message (check)".

// unitConfig is the subset of the go command's vet config this tool
// consumes (the file contains more fields; unknown ones are ignored).
type unitConfig struct {
	ImportPath                string
	GoFiles                   []string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the spinlint entry point. It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion(stdout, stderr)
		case args[0] == "-flags":
			// The go command parses this to split tool flags from
			// package patterns; spinlint defines no analyzer flags.
			fmt.Fprintln(stdout, `[{"Name":"V","Bool":true,"Usage":"print version and exit"},{"Name":"flags","Bool":true,"Usage":"print analyzer flags in JSON"}]`)
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runUnit(args[0], stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: go vet -vettool=<path to spinlint> [packages]")
	return 2
}

// printVersion emits the -V=full line: the executable path and a hash
// of its contents, which the go command folds into the build cache key
// so results are invalidated when the tool changes.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "spinlint:", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(stderr, "spinlint:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(stderr, "spinlint:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
	return 0
}

// runUnit analyzes one compilation unit described by a vet config file.
func runUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "spinlint:", err)
		return 1
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "spinlint: cannot decode vet config %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command expects a facts file for downstream units even
	// though these analyzers produce no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(stderr, "spinlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		// Facts-only run for a dependency: nothing to do.
		return 0
	}

	diags, err := analyzeFiles(cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "spinlint:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// analyzeFiles parses a package's files and runs every analyzer.
func analyzeFiles(importPath string, goFiles []string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return Check(&Pass{Fset: fset, Files: files, ImportPath: importPath}), nil
}
