package core

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// TestVolcanoRewriteDerivesNoPartitionClaims: the rewrite runs the
// partition-property analysis only for a program that may elide an
// exchange — the machine over more than one partition with elision on.
// Every other program records no claim and no elision until EXPLAIN asks
// for the claims (DeriveDistProps), which licenses no elision either.
func TestVolcanoRewriteDerivesNoPartitionClaims(t *testing.T) {
	rt := newRT(t)
	machine := DefaultOptions()
	machine.Parts, machine.Parallel = 2, true
	volcano := DefaultOptions()
	volcano.Parts = 4
	single := machine
	single.Parts = 1
	noElision := machine
	noElision.Baseline = OptShuffleElision
	for _, c := range []struct {
		name    string
		opts    Options
		derived bool
	}{
		{"volcano", volcano, false},
		{"one partition", single, false},
		{"elision off", noElision, false},
		{"machine", machine, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Rewrite(mustParse(t, prVSQuery), rt, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := prog.DistProps != nil; got != c.derived {
				t.Errorf("DistProps recorded: %v, want %v", got, c.derived)
			}
			if got := prog.Elisions != nil; got != c.derived {
				t.Errorf("Elisions recorded: %v, want %v", got, c.derived)
			}
			claims := prog.DistProps
			prog.DeriveDistProps()
			if len(prog.DistProps) != len(prog.Steps)+1 {
				t.Fatalf("after DeriveDistProps %d claims for %d steps and Qf", len(prog.DistProps), len(prog.Steps))
			}
			if c.derived && &claims[0] != &prog.DistProps[0] {
				t.Error("DeriveDistProps replaced the claims the rewrite recorded")
			}
			if !c.derived && (prog.Elisions != nil || prog.elide != nil) {
				t.Error("DeriveDistProps licensed an elision")
			}
		})
	}
}

// TestWrappedStepsDeriveAsTheirKind: a step that embeds another, as
// watchIndexes' probedStep does, dispatches as the step it embeds, so
// wrapping every step but the loop steps changes no claim and no
// elision.
func TestWrappedStepsDeriveAsTheirKind(t *testing.T) {
	opts := DefaultOptions()
	opts.Parts, opts.Parallel = 2, true
	licensed := 0
	for _, q := range []string{prVSQuery, `WITH ITERATIVE c (k, v) AS (
		SELECT src, dst FROM edges
		ITERATE SELECT c.k, e.dst FROM c JOIN edges AS e ON c.k = e.src
		UNTIL 2 ITERATIONS) SELECT k, v FROM c`} {
		prog, err := Rewrite(mustParse(t, q), newRT(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		licensed += len(prog.Elisions)
		claims, elisions := prog.DistProps, prog.Elisions
		watchIndexes(prog)
		prog.DistProps, prog.Elisions, prog.elide = nil, nil, nil
		prog.deriveDistProps(true)
		if !reflect.DeepEqual(prog.DistProps, claims) {
			t.Errorf("wrapped claims\n%v\nwant\n%v", prog.DistProps, claims)
		}
		if !reflect.DeepEqual(prog.Elisions, elisions) {
			t.Errorf("wrapped elisions\n%v\nwant\n%v", prog.Elisions, elisions)
		}
	}
	if licensed == 0 {
		t.Error("no elision licensed; the comparison is vacuous")
	}
}

// compiling counts the distinct nodes below roots whose operators compile
// expressions: filters, projections, joins and aggregates.
func compiling(roots ...plan.Node) int {
	seen := map[plan.Node]bool{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	n := 0
	for node := range seen {
		switch node.(type) {
		case *plan.Filter, *plan.Project, *plan.Join, *plan.Aggregate:
			n++
		}
	}
	return n
}

// planRoots returns every plan a program can run: each step's, the
// termination condition's and Qf.
func planRoots(p *Program) []plan.Node {
	roots := []plan.Node{p.Final}
	for _, s := range p.Steps {
		switch t := s.(type) {
		case *MaterializeStep:
			roots = append(roots, t.Plan)
		case *InitLoopStep:
			roots = append(roots, t.Loop.CondPlan)
		}
	}
	return roots
}

// TestExpressionsCompiledOncePerRun: under the run memo a loop
// body's expressions are compiled once per run, not once per iteration,
// on either executor: Friends Forecast compiles exactly one entry per
// expression-carrying plan node, at 3 iterations and at 13 alike.
func TestExpressionsCompiledOncePerRun(t *testing.T) {
	for _, cfg := range []struct {
		name     string
		parts    int
		parallel bool
	}{
		{"volcano-4", 4, false},
		{"mpp-2", 2, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rt := graphRT(t, cfg.parts)
			opts := DefaultOptions()
			opts.Parts, opts.Parallel = cfg.parts, cfg.parallel
			var counts []int
			for _, n := range []int{3, 13} {
				prog, err := Rewrite(mustParse(t, iterating(ffQuery, n)), rt, opts)
				if err != nil {
					t.Fatal(err)
				}
				memo := exec.NewMemo(nil)
				var stats Stats
				if _, err := prog.run(context.Background(), &Run{RT: rt.WithMemo(memo)}, &stats); err != nil {
					t.Fatal(err)
				}
				if stats.Iterations != int64(n) {
					t.Fatalf("%d iterations, want %d", stats.Iterations, n)
				}
				if want := compiling(planRoots(prog)...); memo.Nodes() != want {
					t.Errorf("%d iterations compiled %d nodes, the program has %d that carry expressions", n, memo.Nodes(), want)
				}
				counts = append(counts, memo.Nodes())
			}
			if counts[0] != counts[1] {
				t.Errorf("3 iterations compiled %d nodes, 13 compiled %d", counts[0], counts[1])
			}
		})
	}
}

// TestConcurrentBuildsShareOneCompilation: two steps run one plan, each
// on the program's machine with four partitions, so four trees ask the
// memo for the same nodes' expressions concurrently; every node is
// compiled once across both steps (this test is in the -race pass), and
// the rows are a volcano run's.
func TestConcurrentBuildsShareOneCompilation(t *testing.T) {
	rt := newRT(t)
	seed := storage.NewTable("seed", sqltypes.Schema{{Name: "src", Type: sqltypes.Int}}, 4)
	seed.DistCol = 0
	for n := int64(1); n <= 3; n++ {
		seed.Insert(sqltypes.Row{sqltypes.NewInt(n)})
	}
	rt.Results.Put("seed", seed)
	defer rt.Results.Drop("seed")
	node, err := plan.NewBuilder(rt).Build(mustParse(t, `SELECT seed.src, SUM(edges.dst) AS s
		FROM seed JOIN edges ON edges.src = seed.src WHERE edges.dst > 1 GROUP BY seed.src`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(node, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{
		Options: Options{Parallel: true, Parts: 4},
		Steps: []Step{
			&MaterializeStep{Into: "a", Plan: node},
			&MaterializeStep{Into: "b", Plan: node},
		},
		Final: namedResult("b", "src", "s"),
	}
	memo := exec.NewMemo(nil)
	got, err := prog.run(context.Background(), &Run{RT: rt.WithMemo(memo)}, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sortedRows(got), sortedRows(want); g != w {
		t.Errorf("rows differ from a volcano run\n got:\n%s\nwant:\n%s", g, w)
	}
	if n, want := memo.Nodes(), compiling(node); n != want {
		t.Errorf("the memo compiled %d nodes, the plan has %d that carry expressions", n, want)
	}
}

func sortedRows(rows []sqltypes.Row) string {
	strs := rowStrs(rows)
	slices.Sort(strs)
	return strings.Join(strs, "\n")
}

// TestParanoidArmsTheElisionCrossCheck: Options.Paranoid arms the
// dynamic cross-check of shuffle elision. On the machine over two
// partitions, PR-VS elides exchanges, and a run whose elision claims are
// poisoned must fail on the re-hash.
func TestParanoidArmsTheElisionCrossCheck(t *testing.T) {
	rt := newRT(t)
	prog, err := Rewrite(mustParse(t, prVSQuery), rt, Options{Paranoid: true, Parallel: true, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Elisions) == 0 || !prog.Paranoid {
		t.Fatalf("PR-VS on the machine: %d elisions, Paranoid %v; want elisions and Paranoid", len(prog.Elisions), prog.Paranoid)
	}
	// Claiming that rows sit by no column at all puts every row in one
	// partition; rows of the other one then fail the re-hash.
	for n, el := range prog.elide {
		el.LeftCols, el.RightCols, el.InputCols = nil, nil, nil
		prog.elide[n] = el
	}
	if _, err := prog.Run(rt, nil); err == nil || !strings.Contains(err.Error(), "is unsound") {
		t.Errorf("a poisoned elision under Paranoid returned %v, want the re-hash to fail the run", err)
	}
}
