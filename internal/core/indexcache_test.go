package core

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

const ssspVSQuery = `WITH ITERATIVE sssp (Node, Distance, Delta)
AS (SELECT src, 9999999, CASE WHEN src = 150 THEN 0 ELSE 9999999 END
 FROM (SELECT src FROM edges UNION SELECT dst FROM edges)
 ITERATE
  SELECT sssp.node,
    LEAST(sssp.distance, sssp.delta),
    COALESCE(MIN(IncomingDistance.delta + IncomingEdges.weight), 9999999)
  FROM sssp
   LEFT JOIN edges AS IncomingEdges ON sssp.node = IncomingEdges.dst
   LEFT JOIN sssp AS IncomingDistance ON IncomingDistance.node = IncomingEdges.src
   JOIN vertexStatus AS avail ON avail.node = IncomingEdges.dst
  WHERE IncomingDistance.Delta != 9999999 AND avail.status != 0
  GROUP BY sssp.node, LEAST(sssp.distance, sssp.delta)
 UNTIL 5 ITERATIONS)
SELECT Node, Distance FROM sssp ORDER BY Node`

var untilIterations = regexp.MustCompile(`UNTIL \d+ ITERATIONS`)

// iterating returns the workload query q running n iterations.
func iterating(q string, n int) string {
	return untilIterations.ReplaceAllString(q, fmt.Sprintf("UNTIL %d ITERATIONS", n))
}

// graphRT is a runtime over a generated 150-node graph (edges point from
// new nodes to old ones, so paths start at node 150) with a fifth of the
// vertices unavailable.
func graphRT(t *testing.T, parts int) *exec.StoreRuntime {
	t.Helper()
	g := workload.PreferentialAttachment(150, 3, workload.WeightOutDegree, 5)
	cat := catalog.New(parts)
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	edges.InsertBatch(workload.EdgeRows(g))
	vs, err := cat.Create("vertexStatus", sqltypes.Schema{
		{Name: "node", Type: sqltypes.Int}, {Name: "status", Type: sqltypes.Int},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	vs.InsertBatch(workload.VertexStatus(g, 0.8, 99))
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// reachedRows sums, over the first n iterations of SSSP-VS, the rows of
// sssp whose Delta is not 9999999 when the iteration starts: what its
// filtered IncomingDistance build side indexes.
func reachedRows(t *testing.T, rt *exec.StoreRuntime, n int) int64 {
	t.Helper()
	sum := countRows(t, rt, "SELECT COUNT(*) FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS v WHERE v.src = 150")
	for i := 1; i < n; i++ {
		q := strings.Replace(iterating(ssspVSQuery, i), "SELECT Node, Distance FROM sssp ORDER BY Node", "SELECT COUNT(*) FROM sssp WHERE Delta != 9999999", 1)
		prog, err := Rewrite(mustParse(t, q), rt, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rows, err := prog.Run(rt, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += rows[0][0].Int()
	}
	return sum
}

// countRows runs a SELECT COUNT(*) over the base tables.
func countRows(t *testing.T, rt *exec.StoreRuntime, sql string) int64 {
	t.Helper()
	node, err := plan.NewBuilder(rt).Build(mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(node, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows[0][0].Int()
}

// TestIndexBuiltOncePerQuery: with the run's index memo, a 10-iteration
// query inserts into join hash indexes the rows of each build table its
// loop does not change once, plus the rows of each build side it does
// change once per iteration — exactly, and of a filtered build side only
// the rows that pass; and it returns, byte for byte and in order, the
// rows of a run without a memo (on the MPP machine, a memo per step),
// which indexes everything once per iteration and differs in no other
// counter except the build scans that did not happen and the cells
// freed: at least as many with the memo, and more for PageRank on the
// volcano executor, whose displaced CTE tables go back once the sweep
// drops the entries that index them.
func TestIndexBuiltOncePerQuery(t *testing.T) {
	const n = 10
	for _, cfg := range []struct {
		name     string
		parts    int
		parallel bool
	}{
		{"volcano-1", 1, false},
		{"volcano-4", 4, false},
		{"mpp-2", 2, true},
	} {
		rt := graphRT(t, cfg.parts)
		edges := countRows(t, rt, "SELECT COUNT(*) FROM edges")
		// The available vertices: Common#1's build side is vertexStatus
		// under the pushed-down status filter.
		avail := countRows(t, rt, "SELECT COUNT(*) FROM vertexStatus WHERE status != 0")
		vertices := countRows(t, rt, "SELECT COUNT(*) FROM (SELECT src FROM edges UNION SELECT dst FROM edges)")
		// Common#1: the edges into available vertices.
		common := countRows(t, rt, "SELECT COUNT(*) FROM edges JOIN vertexStatus v ON v.node = edges.dst WHERE v.status != 0")
		reached := reachedRows(t, rt, n)

		for _, q := range []struct {
			name, sql string
			// Rows indexed by a run with the memo and by one without, and
			// the build-side scans the memo saves the volcano executor.
			with, without, skipped int64
		}{
			// Build sides: edges on dst, PageRank on node. The MPP machine
			// shuffles both (edges is stored by src), and a shuffle's
			// output is new rows every iteration.
			{"PR", prQuery, edges + n*vertices, n * (edges + vertices), (n - 1) * edges},
			// Build sides: the available vertices (once, for Common#1),
			// then Common#1 on dst and the CTE on node; both exchanges
			// are elided under MPP, so both executors behave alike.
			{"PR-VS", prVSQuery, avail + common + n*vertices, avail + n*(common+vertices), (n - 1) * common},
			// The CTE's build side is filtered to the reached vertices.
			{"SSSP-VS", ssspVSQuery, avail + common + reached, avail + n*common + reached, (n - 1) * common},
		} {
			t.Run(cfg.name+"/"+q.name, func(t *testing.T) {
				if cfg.parallel && q.name == "PR" {
					// The exchange reads edges every iteration, memo or not;
					// the elided build sides are the volcano join's path.
					q.with, q.skipped = q.without, 0
				}
				opts := DefaultOptions()
				opts.Parts, opts.Parallel = cfg.parts, cfg.parallel
				prog, err := Rewrite(mustParse(t, iterating(q.sql, n)), rt, opts)
				if err != nil {
					t.Fatal(err)
				}
				var with, without Stats
				got, err := prog.RunContext(context.Background(), rt, &with)
				if err != nil {
					t.Fatal(err)
				}
				// rt carries no memo. An MPP machine always has one (its
				// own over such a runtime), so there each step runs on a
				// fresh one: nothing it indexes outlives the step.
				forgetful(prog)
				want, err := prog.run(context.Background(), &Run{RT: rt}, &without)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := strings.Join(rowStrs(got), "\n"), strings.Join(rowStrs(want), "\n"); g != w {
					t.Errorf("rows differ from the run without a memo\n got:\n%s\nwant:\n%s", g, w)
				}
				if int64(len(got)) != vertices || with.Iterations != n {
					t.Fatalf("%d rows after %d iterations, want %d after %d", len(got), with.Iterations, vertices, n)
				}
				if with.ExecStats.RowsIndexed != q.with {
					t.Errorf("RowsIndexed = %d, want %d", with.ExecStats.RowsIndexed, q.with)
				}
				if without.ExecStats.RowsIndexed != q.without {
					t.Errorf("without a memo RowsIndexed = %d, want %d", without.ExecStats.RowsIndexed, q.without)
				}
				if saved := without.ExecStats.RowsScanned - with.ExecStats.RowsScanned; saved != q.skipped {
					t.Errorf("RowsScanned %d with the memo, %d without: %d saved, want %d", with.ExecStats.RowsScanned, without.ExecStats.RowsScanned, saved, q.skipped)
				}
				// The memo's entries hold the tables they index only until the
				// sweep drops them, so PageRank's loop hands its displaced CTE
				// tables back; a run without a memo carves nothing to free.
				if with.FreedCells < without.FreedCells || (q.name == "PR" && !cfg.parallel && with.FreedCells == without.FreedCells) {
					t.Errorf("FreedCells %d with the memo, %d without", with.FreedCells, without.FreedCells)
				}
				// The work that was not removed is the same work.
				a, b := with, without
				a.ExecStats.RowsIndexed, a.ExecStats.RowsScanned, a.ExecStats.ResultCellsRead = 0, 0, 0
				b.ExecStats.RowsIndexed, b.ExecStats.RowsScanned, b.ExecStats.ResultCellsRead = 0, 0, 0
				a.FreedCells, b.FreedCells = 0, 0
				if a != b {
					t.Errorf("other counters moved:\n   with %+v\nwithout %+v", a, b)
				}
			})
		}
	}
}

// forgetfulStep runs its step with the MPP machine, if the run has one,
// on a run memo of the step's own.
type forgetfulStep struct{ Step }

func (s forgetfulStep) Run(ctx *Context) error {
	if ctx.MPP != nil {
		ctx.MPP.RT = ctx.RT.WithMemo(exec.NewMemo(nil))
	}
	return s.Step.Run(ctx)
}

// forgetful wraps every step of p but the loop steps in a forgetfulStep.
func forgetful(p *Program) {
	for i, s := range p.Steps {
		if _, loop := s.(*LoopStep); !loop {
			p.Steps[i] = forgetfulStep{s}
		}
	}
}

// indexProbe watches the index memo of the run that executes a program:
// watchIndexes wraps every step but the loop steps, and after each one
// the probe notes the memo (a run has exactly one) and the most entries
// it has held. A loop step stays bare because the step loop takes the
// back-edge only through a *LoopStep; it adds no index, and the sweep it
// runs only lowers the count.
type indexProbe struct {
	cache *exec.Memo
	peak  int
	after func(ctx *Context) // optional, called after each step
}

type probedStep struct {
	Step
	probe *indexProbe
}

func (s probedStep) Run(ctx *Context) error {
	err := s.Step.Run(ctx)
	p := s.probe
	p.cache = ctx.RT.Memo()
	p.peak = max(p.peak, p.cache.Len())
	if p.after != nil {
		p.after(ctx)
	}
	return err
}

func watchIndexes(p *Program) *indexProbe {
	probe := &indexProbe{}
	for i, s := range p.Steps {
		if _, loop := s.(*LoopStep); !loop {
			p.Steps[i] = probedStep{s, probe}
		}
	}
	return probe
}

// TestIndexCacheStaysBounded: over 200 iterations of a loop that joins a
// table it replaces every iteration, the memo never holds more than the
// invariant index and those of the last two iterations' tables.
func TestIndexCacheStaysBounded(t *testing.T) {
	rt := newRT(t)
	prog, err := Rewrite(mustParse(t, iterating(prQuery, 200)), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	probe := watchIndexes(prog)
	var stats Stats
	if _, err := prog.Run(rt, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 200 {
		t.Fatalf("%d iterations, want 200", stats.Iterations)
	}
	if probe.peak < 2 || probe.peak > 3 {
		t.Errorf("the memo held up to %d indexes over 200 iterations, want 2 or 3 (edges, PageRank of this and the previous iteration)", probe.peak)
	}
	// 4 edges once, 3 vertices per iteration.
	if want := int64(4 + 200*3); stats.ExecStats.RowsIndexed != want {
		t.Errorf("RowsIndexed = %d, want %d", stats.ExecStats.RowsIndexed, want)
	}
}

// TestIndexCacheGoneAfterStatement: however a statement ends, the memo
// its run filled is empty afterwards (and, like the intermediate
// results, nothing is left in the store).
func TestIndexCacheGoneAfterStatement(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name, sql string
		ctx       context.Context
		after     func(*Context)
		wantErr   func(error) bool
	}{
		{"completed", prQuery, context.Background(), nil, func(err error) bool { return err == nil }},
		{"failed", `WITH ITERATIVE c (k, v) AS (
			SELECT 1, 0
		 ITERATE SELECT c.k, edges.weight FROM c JOIN edges ON edges.src = c.k WHERE c.k = 1
		 UNTIL 2 ITERATIONS)
		 SELECT k FROM c`, context.Background(), nil,
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "duplicate") }},
		{"canceled", iterating(prQuery, 50), cctx,
			func(ctx *Context) {
				if ctx.Stats.Iterations == 2 {
					cancel()
				}
			},
			func(err error) bool { return errors.Is(err, ErrQueryCanceled) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := newRT(t)
			prog, err := Rewrite(mustParse(t, c.sql), rt, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			probe := watchIndexes(prog)
			probe.after = c.after
			if _, err := prog.RunContext(c.ctx, rt, nil); !c.wantErr(err) {
				t.Fatalf("unexpected outcome: %v", err)
			}
			if probe.peak == 0 {
				t.Fatal("the run never put an index in its memo; the test shows nothing")
			}
			if n := probe.cache.Len(); n != 0 {
				t.Errorf("the memo still holds %d indexes after the statement", n)
			}
			if n := rt.Results.Len(); n != 0 {
				t.Errorf("%d intermediate results left", n)
			}
			if rt.Memo() != nil {
				t.Error("the caller's runtime acquired a memo")
			}
		})
	}
}

// TestScheduledStepsShareOneIndex runs two materializations that join
// the same base table on the same column, one after the other: both
// steps reach the run's memo, so edges is indexed once and the second
// step probes the index the first built.
func TestScheduledStepsShareOneIndex(t *testing.T) {
	rt := newRT(t)
	seed := storage.NewTable("seed", sqltypes.Schema{{Name: "src", Type: sqltypes.Int}}, 1)
	for n := int64(1); n <= 3; n++ {
		seed.Insert(sqltypes.Row{sqltypes.NewInt(n)})
	}
	rt.Results.Put("seed", seed)
	defer rt.Results.Drop("seed")
	join := func() plan.Node {
		node, err := plan.NewBuilder(rt).Build(mustParse(t, "SELECT seed.src, edges.dst FROM seed JOIN edges ON edges.src = seed.src"))
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	prog := &Program{
		Options: Options{Parts: 1},
		Steps: []Step{
			&MaterializeStep{Into: "a", Plan: join()},
			&MaterializeStep{Into: "b", Plan: join()},
		},
		Final: namedResult("b", "src", "dst"),
	}
	var stats Stats
	rows, err := prog.Run(rt, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || stats.ExecStats.RowsJoined != 8 {
		t.Errorf("%d rows, %d joined; want 4 and 8", len(rows), stats.ExecStats.RowsJoined)
	}
	if stats.ExecStats.RowsIndexed != 4 {
		t.Errorf("RowsIndexed = %d: two steps joining edges on src must build one index of its 4 rows", stats.ExecStats.RowsIndexed)
	}
}

// TestFilteredInvariantIndexedOncePerRun: without common results,
// SSSP-VS joins vertexStatus under its pushed-down status filter inside
// the loop. That build side does not change, and the memo keys it on the
// filter the run compiled for its plan node, so a run indexes the
// available vertices once for the whole loop.
func TestFilteredInvariantIndexedOncePerRun(t *testing.T) {
	const n = 10
	rt := graphRT(t, 1)
	edges := countRows(t, rt, "SELECT COUNT(*) FROM edges")
	avail := countRows(t, rt, "SELECT COUNT(*) FROM vertexStatus WHERE status != 0")
	reached := reachedRows(t, rt, n)
	opts := DefaultOptions()
	opts.Baseline = OptCommonResults
	prog, err := Rewrite(mustParse(t, iterating(ssspVSQuery, n)), rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if _, err := prog.RunContext(context.Background(), rt, &stats); err != nil {
		t.Fatal(err)
	}
	// edges on dst and the available vertices once, the reached vertices
	// of sssp every iteration.
	if want := edges + avail + reached; stats.ExecStats.RowsIndexed != want {
		t.Errorf("RowsIndexed = %d, want %d (edges %d, available vertices %d, reached %d)",
			stats.ExecStats.RowsIndexed, want, edges, avail, reached)
	}
}
