package core

import (
	"context"
	"fmt"
	"regexp"
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
// vertex per iteration, a sparse frontier, until it reaches 6, whose
// chords make the next frontiers dense; the ring's cycle keeps the
// working table non-empty in every iteration, which a DAG's would not
// be once its wave has passed.
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

// sparseThenDense matches the Ri decisions of ringQuery: the first
// iteration's full plan, restricted ones while the wave walks the ring,
// dense ones once 6's chords fire, then restricted ones as it settles.
var sparseThenDense = regexp.MustCompile(`^FR+D+R+$`)

// ringDecisions renders a traced run's Ri decisions one letter each.
func ringDecisions(st *Stats) string {
	letters := map[string]string{riFirst: "F", riRestricted: "R", riDense: "D"}
	var b strings.Builder
	for _, s := range st.Trace.Spans {
		l, ok := letters[s.Ri]
		if !ok {
			l = "[" + s.Ri + "]"
		}
		b.WriteString(l)
	}
	return b.String()
}

// checkMergeOwnsItsRows runs ringQuery, with arm's mutant armed (nil:
// none) and the chunks a released table hands back poisoned, over one
// and four partitions: a cold run and five warm runs of one program over
// one run state must each return the rows a fresh program over a fresh
// runtime does, and the cold run's rows must still read so after the
// warm runs, which carve their tables from the chunks it handed back.
// Every merge's output owns its rows, so each displaced CTE table hands
// its cells back. It says what differs, "" when nothing does.
func checkMergeOwnsItsRows(t *testing.T, arm func() func()) string {
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
	program := func(rt *exec.StoreRuntime, parts int) *Program {
		t.Helper()
		opts := DefaultOptions()
		opts.Parts, opts.Trace = parts, true
		prog, err := Rewrite(mustParse(t, ringQuery), rt, opts)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	want := map[int]string{}
	for _, parts := range []int{1, 4} {
		rt := ringRT(t, parts)
		rows, _, st := run(program(rt, parts), rt, nil)
		if d := ringDecisions(&st); !sparseThenDense.MatchString(d) {
			t.Fatalf("parts %d: Ri decisions %s, want sparse, then dense", parts, d)
		}
		for _, s := range st.Trace.Spans {
			if s.Rows == 0 {
				t.Fatalf("parts %d: iteration %d wrote no working rows", parts, s.Iteration)
			}
		}
		// Each of the 12 renames displaces a CTE of ringSize rows of 3
		// cells, which goes back once the memo lets go of its index.
		if min := int64(12 * ringSize * 3); st.FreedCells < min {
			t.Fatalf("parts %d: %d cells freed, want the displaced CTE tables' %d at least", parts, st.FreedCells, min)
		}
		want[parts] = rows
	}
	if arm != nil {
		defer arm()()
	}
	for _, parts := range []int{1, 4} {
		rt := ringRT(t, parts)
		prog, st := program(rt, parts), new(RunState)
		cold, coldRows, _ := run(prog, rt, st)
		if cold != want[parts] {
			return fmt.Sprintf("parts %d: the cold run diverges from a fresh program's", parts)
		}
		for i := 1; i <= 5; i++ {
			if warm, _, _ := run(prog, rt, st); warm != want[parts] {
				return fmt.Sprintf("parts %d: warm run %d diverges from a fresh program's", parts, i)
			}
		}
		if strings.Join(rowStrs(coldRows), "\n") != cold {
			return fmt.Sprintf("parts %d: the warm runs wrote into the rows the cold run returned", parts)
		}
	}
	return ""
}

// TestMergeOwnsItsRows: the keyed merge's output owns its rows — the
// working table's, which it adopts, and copies of the CTE rows no
// working row replaced — so neither input is pinned, and over a graph
// with cycles, where both halves have rows in every iteration, warm runs
// carve their tables from what earlier iterations and runs handed back
// and still return a fresh program's rows.
func TestMergeOwnsItsRows(t *testing.T) {
	if d := checkMergeOwnsItsRows(t, nil); d != "" {
		t.Error(d)
	}
}

// TestMergeOwnsItsRowsCatchesUncopiedSurvivor seeds the merge that keeps
// one CTE row it should copy: the CTE hands that row back once it is
// released, and the check must see the output read it.
func TestMergeOwnsItsRowsCatchesUncopiedSurvivor(t *testing.T) {
	d := checkMergeOwnsItsRows(t, func() func() { return seedMutant("uncopied-survivor") })
	if d == "" {
		t.Fatal("a merge that keeps a CTE row uncopied passes the check")
	}
	t.Log("caught: " + d)
}
