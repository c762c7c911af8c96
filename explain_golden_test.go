package dbspinner_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain/*.golden from the engine as it stands")

// TestExplainGolden pins EXPLAIN byte for byte for the paper's five
// queries and the seven adhoc shapes, on the volcano executor over one
// and over four partitions and on the MPP machine over two: the step
// program, every analysis line — the distribution claims included,
// whether the rewrite derived them or EXPLAIN did — and the verifier's
// verdict. go test -run TestExplainGolden -update rewrites the files.
func TestExplainGolden(t *testing.T) {
	queries := []struct{ name, sql string }{
		{"PR", bench.PRQuery(10)},
		{"PR-VS", bench.PRVSQuery(10)},
		{"SSSP", bench.SSSPQuery(1, 10)},
		{"SSSP-VS", bench.SSSPVSQuery(1, 10)},
		{"FF", bench.FFQuery(10, 2)},
	}
	for i, sql := range adhocStatements(0) {
		queries = append(queries, struct{ name, sql string }{fmt.Sprintf("adhoc-%d", i+1), sql})
	}
	for _, c := range []struct {
		name string
		cfg  dbspinner.Config
	}{
		{"volcano-1", dbspinner.Config{Partitions: 1}},
		{"volcano-4", dbspinner.Config{Partitions: 4}},
		{"mpp-2", dbspinner.Config{Partitions: 2, Parallel: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := adhocEngine(t, c.cfg)
			var b strings.Builder
			for _, q := range queries {
				out, err := e.Explain(q.sql)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				fmt.Fprintf(&b, "=== %s\n%s", q.name, out)
			}
			path := filepath.Join("testdata", "explain", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("EXPLAIN differs from %s:\n%s", path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff renders the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}

// TestExplainGoldenRecursive pins EXPLAIN of a recursive CTE's step
// program byte for byte, verifier verdict included, in the same three
// configurations: the CTE it expands is r, the one that references
// itself, not seed, the regular CTE in front of it.
func TestExplainGoldenRecursive(t *testing.T) {
	const sql = `WITH RECURSIVE seed (s) AS (SELECT 2),
 r (n) AS (SELECT s FROM seed UNION ALL SELECT n * 2 FROM r WHERE n < 10)
SELECT n FROM r ORDER BY n`
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  dbspinner.Config
	}{
		{"volcano-1", dbspinner.Config{Partitions: 1}},
		{"volcano-4", dbspinner.Config{Partitions: 4}},
		{"mpp-2", dbspinner.Config{Partitions: 2, Parallel: true}},
	} {
		out, err := adhocEngine(t, c.cfg).Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "=== %s\n%s", c.name, out)
	}
	path := filepath.Join("testdata", "explain", "recursive.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("EXPLAIN differs from %s:\n%s", path, firstDiff(got, string(want)))
	}
}
