package dbspinner_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/graphalgo"
)

// TestWarmRingRunsMatchAFreshEngine runs SSSP-VS from vertex 1 for 12
// iterations over a ring of 40 vertices, each edge of weight 1 from i
// to i+1 and from 40 back to 1, with chords of weight 0.5 from vertex 6
// to every even vertex from 10 on. The wave walks the ring one vertex
// per iteration, so Ri reads a sparse frontier, until it reaches 6, whose
// chords make the next frontiers dense; the cycle keeps the working
// table non-empty in every iteration, so each merge adopts working rows
// and copies the CTE rows they did not replace. A fresh engine's rows
// must be the shortest distances, which 12 iterations reach; five warm
// runs of the prepared statement, which carve their tables from the
// chunks earlier iterations and runs handed back (poisoned, TestMain),
// must return them byte for byte, at one partition and at four, and on
// the MPP machine at two partitions and at four, whose merges own their
// rows too. The machine withholds the incremental steps, so its Ri is
// the full plan in every iteration.
func TestWarmRingRunsMatchAFreshEngine(t *testing.T) {
	var edges, status []string
	var graph []graphalgo.Edge
	edge := func(src, dst int64, w float64) {
		edges = append(edges, fmt.Sprintf("(%d, %d, %g)", src, dst, w))
		graph = append(graph, graphalgo.Edge{Src: src, Dst: dst, Weight: w})
	}
	for i := int64(1); i <= 40; i++ {
		edge(i, i%40+1, 1)
		status = append(status, fmt.Sprintf("(%d, 1)", i))
	}
	for i := int64(10); i <= 40; i += 2 {
		edge(6, i, 0.5)
	}
	exact := graphalgo.Dijkstra(graph, 1)
	engine := func(cfg dbspinner.Config) *dbspinner.Engine {
		e := dbspinner.New(cfg)
		execAll(t, e, []string{
			"CREATE TABLE edges (src int, dst int, weight float)",
			"CREATE TABLE vertexStatus (node int PRIMARY KEY, status int)",
			"INSERT INTO edges VALUES " + strings.Join(edges, ", "),
			"INSERT INTO vertexStatus VALUES " + strings.Join(status, ", "),
		})
		return e
	}
	sql := bench.SSSPVSQuery(1, 12)
	sparseThenDense := regexp.MustCompile(`^FR+D+R+$`)
	for _, arm := range []struct {
		parts    int
		parallel bool
	}{{1, false}, {4, false}, {2, true}, {4, true}} {
		parts, label := arm.parts, fmt.Sprintf("parts %d", arm.parts)
		if arm.parallel {
			label = "MPP, " + label
		}
		fresh := engine(dbspinner.Config{Partitions: parts, Parallel: arm.parallel, TraceIterations: true})
		res, err := fresh.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(resultRows(res))
		if got := riDecisions(fresh.Stats().Trace); !arm.parallel && !sparseThenDense.MatchString(got) {
			t.Fatalf("%s: Ri per iteration %s, want sparse, then dense", label, got)
		}
		dist := map[int64]float64{}
		for _, r := range res.Rows {
			dist[r[0].Int()] = r[1].Float()
		}
		if fmt.Sprint(dist) != fmt.Sprint(exact) || len(res.Rows) != len(exact) {
			t.Fatalf("%s: distances %v, want %v", label, dist, exact)
		}
		e := engine(dbspinner.Config{Partitions: parts, Parallel: arm.parallel})
		if cold := queryRows(t, e, sql); cold != want {
			t.Fatalf("%s: the cold run diverges from a fresh engine's", label)
		}
		for i := 1; i <= 5; i++ {
			hits := e.Stats().PreparedHits
			if warm := queryRows(t, e, sql); warm != want {
				t.Errorf("%s: warm run %d returns\n  %s\na fresh engine\n  %s", label, i, warm, want)
			}
			if e.Stats().PreparedHits != hits+1 {
				t.Fatalf("%s: warm run %d did not take the prepared program", label, i)
			}
		}
	}
}
