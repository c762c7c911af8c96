package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// ringSize is the number of vertices on ringRT's ring.
const ringSize = 40

// ringRT is a runtime over a ring of ringSize vertices, each edge of
// weight 1 from i to i+1 and from the last back to the first, with
// chords of weight 0.5 from vertex 6 to every even vertex from 10 on,
// every vertex available. SSSP-VS from vertex 1 walks the ring one
// vertex per iteration until it reaches 6, whose chords widen the wave;
// the ring's cycle keeps the working table non-empty in every iteration,
// which a DAG's would not be once its wave has passed.
func ringRT(t *testing.T, parts int) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(parts)
	edges, err := cat.Create("edges", sqltypes.Schema{
		{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float},
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(src, dst int, w float64) {
		edges.Insert(sqltypes.Row{sqltypes.NewInt(int64(src)), sqltypes.NewInt(int64(dst)), sqltypes.NewFloat(w)})
	}
	for i := 1; i <= ringSize; i++ {
		edge(i, i%ringSize+1, 1)
	}
	for i := 10; i <= ringSize; i += 2 {
		edge(6, i, 0.5)
	}
	vs, err := cat.Create("vertexStatus", sqltypes.Schema{
		{Name: "node", Type: sqltypes.Int}, {Name: "status", Type: sqltypes.Int},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= ringSize; i++ {
		vs.Insert(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(1)})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore())
}

// ringQuery is SSSP-VS from vertex 1 over ringRT, 12 iterations: the
// distances settle in the last ones.
var ringQuery = strings.Replace(iterating(ssspVSQuery, 12), "src = 150", "src = 1", 1)

// ringArm is one executor the merge-ownership check runs ringQuery on:
// the volcano executor over parts partitions, or the MPP machine.
type ringArm struct {
	parts    int
	parallel bool
}

func (a ringArm) String() string {
	if a.parallel {
		return fmt.Sprintf("MPP, parts=%d", a.parts)
	}
	return fmt.Sprintf("volcano, parts=%d", a.parts)
}

// ringArms are the volcano executor at one and four partitions and the
// MPP machine at two and four.
var ringArms = []ringArm{{1, false}, {4, false}, {2, true}, {4, true}}

// checkMergeOwnsItsRows runs ringQuery, with arm's mutant armed (nil:
// none) and the chunks a released table hands back poisoned, on every
// ring arm: a cold run and five warm runs of one program over one run
// state must each return the rows a fresh program over a fresh runtime
// does, and the cold run's rows must still read so after the warm runs,
// which carve their tables from the chunks it handed back. Every merge's
// output owns its rows, on the machine too, so each displaced CTE table
// hands its cells back. It says what differs on each arm where something
// does.
func checkMergeOwnsItsRows(t *testing.T, arm func() func()) map[ringArm]string {
	t.Helper()
	defer sqltypes.Poison()()
	run := func(prog *Program, rt *exec.StoreRuntime, st *RunState) (string, []sqltypes.Row, Stats) {
		t.Helper()
		var stats Stats
		rows, err := prog.RunBound(context.Background(), rt, nil, st, &stats)
		if err != nil {
			return "error: " + err.Error(), nil, stats
		}
		return strings.Join(rowStrs(rows), "\n"), rows, stats
	}
	program := func(rt *exec.StoreRuntime, a ringArm) *Program {
		t.Helper()
		opts := DefaultOptions()
		opts.Parts, opts.Parallel, opts.Trace = a.parts, a.parallel, true
		prog, err := Rewrite(mustParse(t, ringQuery), rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	want := map[ringArm]string{}
	for _, a := range ringArms {
		rt := ringRT(t, a.parts)
		rows, _, st := run(program(rt, a), rt, nil)
		for _, s := range st.Trace.Spans {
			if s.Rows == 0 {
				t.Fatalf("%s: iteration %d wrote no working rows", a, s.Iteration)
			}
		}
		// Each of the 12 renames displaces a CTE of ringSize rows of 3
		// cells, which goes back once the memo lets go of its index.
		if min := int64(12 * ringSize * 3); st.FreedCells < min {
			t.Fatalf("%s: %d cells freed, want the displaced CTE tables' %d at least", a, st.FreedCells, min)
		}
		want[a] = rows
	}
	if arm != nil {
		defer arm()()
	}
	diffs := map[ringArm]string{}
	for _, a := range ringArms {
		rt := ringRT(t, a.parts)
		prog, st := program(rt, a), new(RunState)
		cold, coldRows, _ := run(prog, rt, st)
		if cold != want[a] {
			diffs[a] = "the cold run diverges from a fresh program's"
			continue
		}
		for i := 1; i <= 5; i++ {
			if warm, _, _ := run(prog, rt, st); warm != want[a] {
				diffs[a] = fmt.Sprintf("warm run %d diverges from a fresh program's", i)
				break
			}
		}
		if _, ok := diffs[a]; !ok && strings.Join(rowStrs(coldRows), "\n") != cold {
			diffs[a] = "the warm runs wrote into the rows the cold run returned"
		}
	}
	return diffs
}

// TestMergeOwnsItsRows: the keyed merge's output owns its rows — the
// working table's, which it adopts, and copies of the CTE rows no
// working row replaced — so neither input is pinned, and over a graph
// with cycles, where both halves have rows in every iteration, warm runs
// carve their tables from what earlier iterations and runs handed back
// and still return a fresh program's rows, on either executor.
func TestMergeOwnsItsRows(t *testing.T) {
	for a, d := range checkMergeOwnsItsRows(t, nil) {
		t.Errorf("%s: %s", a, d)
	}
}

// TestMergeOwnsItsRowsCatchesUncopiedSurvivor seeds the merge that keeps
// one CTE row it should copy: the CTE hands that row back once it is
// released, and the check must see the output read it on every arm, the
// machine's included.
func TestMergeOwnsItsRowsCatchesUncopiedSurvivor(t *testing.T) {
	diffs := checkMergeOwnsItsRows(t, func() func() { return seedMutant("uncopied-survivor") })
	for _, a := range ringArms {
		d, ok := diffs[a]
		if !ok {
			t.Errorf("%s: a merge that keeps a CTE row uncopied passes the check", a)
			continue
		}
		t.Logf("caught on %s: %s", a, d)
	}
}
