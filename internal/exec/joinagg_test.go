package exec

import (
	"math/rand"
	"strings"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
	"dbspinner/internal/workload"
)

// joinAggRuntime holds the stored results of the join → aggregate tests
// over n probe rows in parts partitions:
//   - p(k, a, g, y, z): k the row's INT id; a an INT, a FLOAT or NULL; g
//     = k % 10, so that probe rows share groups; y the FLOAT 1 but 0 at k
//     = 600, z the FLOAT 1 but 0 at k = 604;
//   - e(src, dst, w): three edges into every k but those with k % 5 = 4
//     (604 among them), so those probe rows match nothing; an edge with a
//     NULL dst and one with a NULL src; w an INT or a FLOAT;
//   - r(k, d): every k, k % 13 = 0 twice, and a NULL k; d a FLOAT or
//     NULL;
//   - v(node, s): every k, s = k % 3.
func joinAggRuntime(t testing.TB, n, parts int) *StoreRuntime {
	t.Helper()
	rt := NewStoreRuntime(catalog.New(1), storage.NewResultStore())
	put := func(name string, schema sqltypes.Schema, rows []sqltypes.Row) {
		tb := storage.NewTable(name, schema, parts)
		tb.DistCol = 0
		for _, r := range rows {
			tb.Insert(r)
		}
		rt.Results.Put(name, tb)
	}
	col := func(name string, typ sqltypes.Type) sqltypes.Column { return sqltypes.Column{Name: name, Type: typ} }
	var p, e, r, v []sqltypes.Row
	for i := range n {
		k := int64(i)
		a := f64(float64(i) / 3)
		switch {
		case i%7 == 0:
			a = null
		case i%3 == 0:
			a = i64(k)
		}
		y, z := f64(1), f64(1)
		if i == 600 {
			y = f64(0)
		}
		if i == 604 {
			z = f64(0)
		}
		p = append(p, sqltypes.Row{i64(k), a, i64(k % 10), y, z})
		if i%5 != 4 {
			for j := int64(1); j <= 3; j++ {
				w := f64(float64(j) / 4)
				if i%2 == 0 {
					w = i64(j)
				}
				e = append(e, sqltypes.Row{i64((k*7 + j) % int64(n)), i64(k), w})
			}
		}
		d := f64(float64(i%9) + 0.25)
		if i%11 == 0 {
			d = null
		}
		r = append(r, sqltypes.Row{i64(k), d})
		if i%13 == 0 {
			r = append(r, sqltypes.Row{i64(k), f64(-1)})
		}
		v = append(v, sqltypes.Row{i64(k), i64(k % 3)})
	}
	e = append(e, sqltypes.Row{i64(1), null, f64(1)}, sqltypes.Row{null, i64(2), f64(1)})
	r = append(r, sqltypes.Row{null, f64(5)})
	put("p", sqltypes.Schema{col("k", sqltypes.Int), col("a", sqltypes.Float), col("g", sqltypes.Int), col("y", sqltypes.Float), col("z", sqltypes.Float)}, p)
	put("e", sqltypes.Schema{col("src", sqltypes.Int), col("dst", sqltypes.Int), col("w", sqltypes.Float)}, e)
	put("r", sqltypes.Schema{col("k", sqltypes.Int), col("d", sqltypes.Float)}, r)
	put("v", sqltypes.Schema{col("node", sqltypes.Int), col("s", sqltypes.Int)}, v)
	return rt
}

// joinAggChains are the FROM clauses of the chains over p: e, then r,
// then v, each joined inner or left, one to three deep, and the
// aggregates that read a column of every level each has.
func joinAggChains() (chains []struct{ from, args string }) {
	levels := []struct{ join, arg string }{
		{"e ON p.k = e.dst", "SUM(e.w), COUNT(e.src), MIN(e.w + p.a)"},
		{"r ON r.k = e.src", "SUM(r.d * e.w), COUNT(r.d), MAX(COALESCE(r.d, -5.0) + p.g)"},
		{"v ON v.node = e.src", "SUM(v.s), COUNT(v.node + r.k)"},
	}
	for depth := 1; depth <= len(levels); depth++ {
		for kinds := 0; kinds < 1<<depth; kinds++ {
			from, args := "p", []string{"COUNT(*)"}
			for l := range depth {
				join := "JOIN"
				if kinds&(1<<l) != 0 {
					join = "LEFT JOIN"
				}
				from += " " + join + " " + levels[l].join
				args = append(args, levels[l].arg)
			}
			chains = append(chains, struct{ from, args string }{from, strings.Join(args, ", ")})
		}
	}
	return chains
}

// joinAggCases are the statements of the differential test: every chain
// grouped by p's key, by a key probe rows share and by an expression over
// p's columns, and the error cases.
func joinAggCases() []struct{ name, sql string } {
	var cases []struct{ name, sql string }
	add := func(name, sql string) { cases = append(cases, struct{ name, sql string }{name, sql}) }
	for _, c := range joinAggChains() {
		add(c.from+" by k", "SELECT p.k, "+c.args+" FROM "+c.from+" GROUP BY p.k")
		add(c.from+" by g", "SELECT p.g, "+c.args+" FROM "+c.from+" GROUP BY p.g")
		add(c.from+" by k, a + g", "SELECT p.k, p.a + p.g, "+c.args+" FROM "+c.from+" GROUP BY p.k, p.a + p.g")
	}
	for _, c := range joinAggErrorCases() {
		add(c.name, c.sql)
	}
	return cases
}

// joinAggErrorCases fail where the row path fails: an INT SUM that
// overflows in group 0 once k = 700 joins it, a division by zero in an
// argument at k = 600, a bottom probe key that divides by zero at k =
// 600, and a group key that divides by zero at k = 604, which an inner
// join drops and a left join keeps. Which of two rows the scan reaches
// first depends on the partitions.
func joinAggErrorCases() []struct{ name, sql string } {
	const chain = " FROM p JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src"
	const overflow = "SUM(CASE WHEN p.k = 700 THEN 9223372036854775807 ELSE e.src END)"
	return []struct{ name, sql string }{
		{"INT SUM overflows", "SELECT p.g, " + overflow + ", SUM(r.d)" + chain + " GROUP BY p.g"},
		{"argument divides by zero", "SELECT p.k, COUNT(*), SUM(e.w / p.y)" + chain + " GROUP BY p.k"},
		{"argument divides by zero, SUM overflows", "SELECT p.g, SUM(r.d / p.y), " + overflow + chain + " GROUP BY p.g"},
		{"probe key divides by zero, SUM overflows", "SELECT p.g, " + overflow +
			" FROM p LEFT JOIN e ON p.k / p.y = e.dst LEFT JOIN r ON r.k = e.src GROUP BY p.g"},
		{"probe key divides by zero", "SELECT p.k, SUM(r.d)" +
			" FROM p JOIN e ON p.k / p.y = e.dst JOIN r ON r.k = e.src GROUP BY p.k"},
		{"group key fails on a dropped probe row", "SELECT p.k / p.z, SUM(r.d)" + chain + " GROUP BY p.k / p.z"},
		{"group key fails on a kept probe row", "SELECT p.k / p.z, SUM(r.d)" +
			" FROM p LEFT JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src GROUP BY p.k / p.z"},
	}
}

// TestJoinAggBatchMatchesRowPath: every aggregate over a chain of one to
// three inner or left joins that the join → aggregate form runs —
// grouped by the probe's key, by a key its rows share, and by an
// expression, with aggregates reading a column of every level, NULL-
// extended ones too, over probe rows with no match and build keys that
// repeat or are NULL — materializes the same rows, bit for bit, in the
// same partitions and order, with the same counters, as the row path,
// over results of 1,023, 1,024, 1,025 and 2,100 rows at 1 to 4
// partitions; and where an argument, an aggregate, a probe key or a
// group key fails, it fails with the row path's error, with the row
// path's counters.
func TestJoinAggBatchMatchesRowPath(t *testing.T) {
	defer sqltypes.Poison()()
	cases := joinAggCases()
	for _, rows := range []int{1023, 1024, 1025, 2100} {
		for parts := 1; parts <= 4; parts++ {
			rt := joinAggRuntime(t, rows, parts)
			for _, c := range cases {
				n := planSQL(t, rt, c.sql)
				if !joinAggForm(t, rt, n) {
					t.Fatalf("%s: the join → aggregate form does not run it", c.name)
				}
				if d := materializeBoth(rt, n, parts); d != "" {
					t.Errorf("%s, %d rows, %d partitions: %s", c.name, rows, parts, d)
				}
			}
		}
	}
}

// joinAggForm reports whether the join → aggregate form runs n's
// aggregate under MaterializeContext.
func joinAggForm(t testing.TB, rt *StoreRuntime, n plan.Node) bool {
	t.Helper()
	op, err := Build(n, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := aggUnder(op)
	if a == nil {
		return false
	}
	a.batch = true
	s, ok := a.joinChain()
	if ok {
		s.release(a.run)
	}
	return ok
}

// TestJoinAggFormRuns: the form runs the paper's loop-body shape, and
// leaves to the row path an aggregate whose group key reads a build
// row, a chain with a residual, a right or full join, a join above the
// bottom one that probes with an expression, a filter on the probe side
// and a base table's scan.
func TestJoinAggFormRuns(t *testing.T) {
	rt := joinAggRuntime(t, 10, 1)
	if _, err := rt.Catalog.Create("base", sqltypes.Schema{{Name: "k", Type: sqltypes.Int}}, -1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		form bool
	}{
		{"SELECT p.k, p.a + p.g, 0.85 * SUM(r.d * e.w) FROM p LEFT JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src GROUP BY p.k, p.a + p.g", true},
		{"SELECT COUNT(*) FROM p JOIN e ON p.k = e.dst", true},
		{"SELECT e.src, COUNT(*) FROM p JOIN e ON p.k = e.dst GROUP BY e.src", false},
		{"SELECT p.k, COUNT(*) FROM p JOIN e ON p.k = e.dst AND e.w > p.a GROUP BY p.k", false},
		{"SELECT p.k, COUNT(*) FROM p RIGHT JOIN e ON p.k = e.dst GROUP BY p.k", false},
		{"SELECT p.k, COUNT(*) FROM p FULL JOIN e ON p.k = e.dst GROUP BY p.k", false},
		{"SELECT p.k, COUNT(*) FROM p JOIN e ON p.k = e.dst JOIN r ON r.k = e.src + 1 GROUP BY p.k", false},
		{"SELECT p.k, COUNT(*) FROM p JOIN e ON p.k = e.dst WHERE p.a > 1.0 GROUP BY p.k", false},
		{"SELECT base.k, COUNT(*) FROM base JOIN e ON base.k = e.dst GROUP BY base.k", false},
	} {
		if got := joinAggForm(t, rt, planSQL(t, rt, c.sql)); got != c.form {
			t.Errorf("%s: join → aggregate form %v, want %v", c.sql, got, c.form)
		}
	}
}

// TestJoinAggMutantsAreCaught seeds three faults into the form and
// requires the differential cases to see each: a group id carried
// across a probe-row boundary, into a NULL-extended first tuple; a group
// key evaluated for a probe row that has no tuple; and a batch whose
// joins run every probe row and whose aggregate adds every tuple before
// it reports the error a probe key met on an earlier row.
func TestJoinAggMutantsAreCaught(t *testing.T) {
	rt := joinAggRuntime(t, 1025, 2)
	cases := joinAggCases()
	for _, m := range []struct {
		name string
		flag *bool
	}{
		{"group id carried across a probe row", &test.carryGroupID},
		{"group key of a probe row with no tuple", &test.groupEveryProbe},
		{"joins and adds before the error", &test.eagerJoins},
	} {
		caught := func() (caught int) {
			*m.flag = true
			defer func() { *m.flag = false }()
			for _, c := range cases {
				if d := materializeBoth(rt, planSQL(t, rt, c.sql), 2); d != "" {
					caught++
				}
			}
			return caught
		}()
		if caught == 0 {
			t.Errorf("%s: the mutant passed every case", m.name)
		}
	}
}

// prRuntime holds PR's loop-body inputs over a 900-node graph whose
// edges are oriented by a coin flip, as the benchmark's graphs are:
// edges(src, dst, weight), weight 1/outdegree(src), and the CTE
// pagerank(node, rank, delta), one row per node.
func prRuntime(b testing.TB, parts int) *StoreRuntime {
	b.Helper()
	g := workload.PreferentialAttachment(900, 3, workload.WeightUnit, 55)
	rng := rand.New(rand.NewSource(55))
	out := map[int64]int{}
	for i, e := range g.Edges {
		if rng.Intn(2) == 0 {
			g.Edges[i].Src, g.Edges[i].Dst = e.Dst, e.Src
		}
		out[g.Edges[i].Src]++
	}
	rt := NewStoreRuntime(catalog.New(parts), storage.NewResultStore())
	edges, err := rt.Catalog.Create("edges", sqltypes.Schema{{Name: "src", Type: sqltypes.Int}, {Name: "dst", Type: sqltypes.Int}, {Name: "weight", Type: sqltypes.Float}}, -1)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range g.Edges {
		edges.Insert(sqltypes.Row{i64(e.Src), i64(e.Dst), f64(1 / float64(out[e.Src]))})
	}
	pr := storage.NewTable("pagerank", sqltypes.Schema{{Name: "node", Type: sqltypes.Int}, {Name: "rank", Type: sqltypes.Float}, {Name: "delta", Type: sqltypes.Float}}, parts)
	pr.DistCol = 0
	for i := 1; i <= g.NumNodes; i++ {
		pr.Insert(sqltypes.Row{i64(int64(i)), f64(float64(i%17) / 100), f64(0.15)})
	}
	rt.Results.Put("pagerank", pr)
	return rt
}

// prBodySQL is PR's loop body, Figure 2 of the paper.
const prBodySQL = `SELECT PageRank.node, PageRank.rank + PageRank.delta,
    0.85 * SUM(IncomingRank.delta * IncomingEdges.Weight)
  FROM PageRank
    LEFT JOIN edges AS IncomingEdges ON PageRank.node = IncomingEdges.dst
    LEFT JOIN PageRank AS IncomingRank ON IncomingRank.node = IncomingEdges.src
  GROUP BY PageRank.node, PageRank.rank + PageRank.delta`

// BenchmarkJoinAgg materializes PR's loop body over a 900-node graph in
// 4 partitions, as a warm run of a statement does (its memo over the
// statement's leftovers): batch, in the join → aggregate form; row, a row
// at a time.
func BenchmarkJoinAgg(b *testing.B) {
	for _, form := range []struct {
		name string
		rows bool
	}{{"batch", false}, {"row", true}} {
		b.Run(form.name, func(b *testing.B) {
			rt := prRuntime(b, 4)
			n := planSQL(b, rt, prBodySQL)
			if !joinAggForm(b, rt, n) {
				b.Fatal("PR's loop body does not take the join → aggregate form")
			}
			if form.rows {
				defer RowAtATime()()
			}
			left := new(Leftovers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := left.Begin(nil, nil)
				t, err := MaterializeContext(nil, n, rt.WithMemo(m), nil, "out", 4, nil)
				if err != nil {
					b.Fatal(err)
				}
				if t.Len() != 900 {
					b.Fatalf("%d rows, want 900", t.Len())
				}
				t.LetGo()
				left.End(m, true)
			}
		})
	}
}
