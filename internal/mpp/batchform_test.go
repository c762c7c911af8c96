package mpp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/expr"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// batchRT holds three stored results over parts partitions, each
// distributed on its first column, for the machine's batch forms:
//   - p(k, a, g, y): k the row's INT id; a a FLOAT, an INT or NULL; g =
//     k % 10; y the FLOAT 1, but 0 at k = 600, so k / y fails there;
//   - e(src, dst, w): three edges into every k but those with k % 5 = 4,
//     which match nothing, and one with a NULL dst;
//   - r(k, d): every k, k % 13 = 0 twice; d a FLOAT or NULL;
//   - v(node, s): every k, s = k % 5, as vertexStatus;
//   - q: p, but for one row in the wrong partition.
func batchRT(t testing.TB, n, parts int) *exec.StoreRuntime {
	t.Helper()
	rt := exec.NewStoreRuntime(catalog.New(parts), storage.NewResultStore())
	put := func(name string, cols []string, types []sqltypes.Type, rows []sqltypes.Row) {
		var schema sqltypes.Schema
		for i, c := range cols {
			schema = append(schema, sqltypes.Column{Name: c, Type: types[i]})
		}
		tb := storage.NewTable(name, schema, parts)
		tb.DistCol = 0
		tb.InsertBatch(rows)
		rt.Results.Put(name, tb)
	}
	i64, f64 := sqltypes.NewInt, sqltypes.NewFloat
	var p, e, r, v []sqltypes.Row
	for i := range int64(n) {
		a := f64(float64(i) / 3)
		switch {
		case i%7 == 0:
			a = sqltypes.NullValue
		case i%3 == 0:
			a = i64(i)
		}
		y := f64(1)
		if i == 600 {
			y = f64(0)
		}
		p = append(p, sqltypes.Row{i64(i), a, i64(i % 10), y})
		if i%5 != 4 {
			for j := int64(1); j <= 3; j++ {
				e = append(e, sqltypes.Row{i64((i*7 + j) % int64(n)), i64(i), f64(float64(j) / 4)})
			}
		}
		d := f64(float64(i%9) + 0.25)
		if i%11 == 0 {
			d = sqltypes.NullValue
		}
		r = append(r, sqltypes.Row{i64(i), d})
		v = append(v, sqltypes.Row{i64(i), i64(i % 5)})
		if i%13 == 0 {
			r = append(r, sqltypes.Row{i64(i), f64(-1)})
		}
	}
	e = append(e, sqltypes.Row{i64(1), sqltypes.NullValue, f64(1)})
	I, F := sqltypes.Int, sqltypes.Float
	put("p", []string{"k", "a", "g", "y"}, []sqltypes.Type{I, F, I, F}, p)
	// q is p with the row k = 5 moved to the next partition, where a claim
	// that q sits by k does not hold.
	put("q", []string{"k", "a", "g", "y"}, []sqltypes.Type{I, F, I, F}, p)
	if q := rt.Results.Get("q"); parts > 1 {
		for i, part := range q.Parts {
			for j, row := range part {
				if row[0].Int() == 5 {
					q.Parts[i] = append(part[:j:j], part[j+1:]...)
					next := (i + 1) % parts
					q.Parts[next] = append(q.Parts[next][:len(q.Parts[next]):len(q.Parts[next])], row)
				}
			}
		}
	}
	put("e", []string{"src", "dst", "w"}, []sqltypes.Type{I, I, F}, e)
	put("r", []string{"k", "d"}, []sqltypes.Type{I, F}, r)
	put("v", []string{"node", "s"}, []sqltypes.Type{I, I}, v)
	return rt
}

// machineOut is one run of a plan on a machine: its rows, by destination
// where a router routed them, its counters and its error.
type machineOut struct {
	rows  []string
	stats Stats
	exec  exec.Stats
	err   error
}

// runMachine evaluates n on a fresh machine over parts partitions whose
// elisions are el and whose context is ctx (nil: none), routing its rows
// by to where it is not nil, and returns the rows each partition holds.
func runMachine(rt *exec.StoreRuntime, n plan.Node, parts int, to func(*Machine) *router, el map[plan.Node]Elide, ctx context.Context) machineOut {
	var out machineOut
	m := New(rt, parts, &out.stats, &out.exec)
	m.Elide, m.CheckElide, m.Ctx = el, el != nil, ctx
	var rt2 *router
	if to != nil {
		rt2 = to(m)
	}
	rel, err := m.eval(n, rt2, nil)
	if out.err = err; err == nil {
		for _, part := range rel.parts {
			out.rows = append(out.rows, rowsText(part))
		}
	}
	return out
}

// machineDiff describes how the batch forms' runMachine and the row
// path's differ, "" where they do not: the error, the counters, or the
// rows of a partition; and returns the batch forms' error.
func machineDiff(rt *exec.StoreRuntime, n plan.Node, parts int, to func(*Machine) *router, el map[plan.Node]Elide, ctx func() context.Context) (string, error) {
	mk := func() context.Context {
		if ctx == nil {
			return nil
		}
		return ctx()
	}
	got := runMachine(rt, n, parts, to, el, mk())
	restore := exec.RowAtATime()
	want := runMachine(rt, n, parts, to, el, mk())
	restore()
	switch {
	case (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error():
		return fmt.Sprintf("error %v, row path %v", got.err, want.err), got.err
	case errors.Is(got.err, context.Canceled):
		return "", got.err // where a batch stops after a poll fires is not the row path's row
	case got.err != nil && parts > 1:
		// The partitions a failing one cancels stop where timing has them,
		// in either form.
		return "", got.err
	case got.stats != want.stats:
		return fmt.Sprintf("machine counters %+v, row path %+v", got.stats, want.stats), got.err
	case got.exec != want.exec:
		return fmt.Sprintf("counters %+v, row path %+v", got.exec, want.exec), got.err
	}
	for p := range want.rows {
		if got.rows[p] != want.rows[p] {
			return fmt.Sprintf("partition %d holds\n%s\nrow path\n%s", p, got.rows[p], want.rows[p]), got.err
		}
	}
	return "", got.err
}

// bottomJoin returns the join of n's left-deep chain whose left input is
// no join.
func bottomJoin(n plan.Node) *plan.Join {
	j := find[*plan.Join](n)
	for {
		l, ok := j.Left.(*plan.Join)
		if !ok {
			return j
		}
		j = l
	}
}

// keysOver compiles srcs over n's rows.
func keysOver(t *testing.T, n plan.Node, srcs ...string) []*expr.Compiled {
	t.Helper()
	env := &expr.Env{}
	for i, c := range n.Columns() {
		env.Cols = append(env.Cols, expr.Binding{Table: strings.ToLower(c.Table), Name: strings.ToLower(c.Name), Index: i, Type: c.Type})
	}
	var keys []*expr.Compiled
	for _, src := range srcs {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		k, err := expr.Compile(e, env)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

// TestMachineBatchFormsMatchRowAtATime is the machine's differential of
// the batch forms: a chain of joins at the root of a routed fragment
// (the join → exchange form) and an aggregate over what an exchange
// delivered must leave every destination the same rows in the same
// order, and the machine the same counters, as the row path
// (exec.RowAtATime), over results of 1,023, 1,024, 1,025 and 2,100 rows at
// 1 to 4 partitions; so must PageRank's loop body, both forms in one
// plan, and an aggregate over a join chain whose probe side's exchange
// the analysis elided. Where the bottom join's probe key fails, a
// CheckElide tap fails or the context is canceled, the error must be the
// row path's; sqltypes.Poison is armed, so a site the machine marked free
// and a form still read shows.
func TestMachineBatchFormsMatchRowAtATime(t *testing.T) {
	defer sqltypes.Poison()()
	for _, rows := range []int{1023, 1024, 1025, 2100} {
		for parts := 1; parts <= 4; parts++ {
			rt := batchRT(t, rows, parts)
			chain := find[*plan.Join](planOf(rt, "SELECT * FROM p LEFT JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src"))
			inner := find[*plan.Join](planOf(rt, "SELECT * FROM p JOIN e ON p.k = e.dst JOIN r ON r.k = e.src"))
			failing := find[*plan.Join](planOf(rt, "SELECT * FROM p JOIN e ON p.k / p.y = e.dst LEFT JOIN r ON r.k = e.src"))
			pageRank := planOf(rt, "SELECT p.k, p.a + p.g, 0.85 * SUM(r.d * e.w) FROM p LEFT JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src GROUP BY p.k, p.a + p.g")
			grouped := planOf(rt, "SELECT p.g, SUM(p.a * p.y), COUNT(*), MIN(p.a) FROM p GROUP BY p.g")
			overJoins := planOf(rt, "SELECT p.k, COUNT(*), SUM(e.w) FROM p JOIN e ON p.k / p.y = e.dst GROUP BY p.k")
			misplaced := planOf(rt, "SELECT q.k, q.a + q.g, 0.85 * SUM(r.d * e.w) FROM q LEFT JOIN e ON q.k = e.dst LEFT JOIN r ON r.k = e.src GROUP BY q.k, q.a + q.g")
			by := func(n plan.Node, srcs ...string) func(*Machine) *router {
				return func(m *Machine) *router { return m.shuffle(keysOver(t, n, srcs...)) }
			}
			type c struct {
				name string
				n    plan.Node
				to   func(*Machine) *router
				el   map[plan.Node]Elide
				ctx  func() context.Context
				fail bool // the run fails
			}
			cases := []c{
				{"left joins by a build column", chain, by(chain, "e.src"), nil, nil, false},
				{"left joins by a probe expression", chain, by(chain, "p.k", "p.a + p.g"), nil, nil, false},
				{"left joins by a build expression", chain, by(chain, "p.a * r.d"), nil, nil, false},
				{"left joins by columns", chain, func(m *Machine) *router { return m.shuffleCols([]int{0, 5}) }, nil, nil, false},
				{"inner joins by a build column", inner, by(inner, "r.k"), nil, nil, false},
				{"PageRank's loop body", pageRank, nil, nil, nil, false},
				{"an aggregate over an exchange", grouped, nil, nil, nil, false},
				{"a bottom probe key that fails", overJoins, nil, map[plan.Node]Elide{find[*plan.Join](overJoins): {Left: true, LeftCols: []int{0}}}, nil, true},
				{"a CheckElide tap that fails", misplaced, nil, map[plan.Node]Elide{bottomJoin(misplaced): {Left: true, LeftCols: []int{0}}}, nil, parts > 1},
				{"a CheckElide tap that holds", pageRank, nil, map[plan.Node]Elide{bottomJoin(pageRank): {Left: true, LeftCols: []int{0}}}, nil, false},
				{"a canceled context", chain, by(chain, "e.src"), nil, func() context.Context {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					return ctx
				}, true},
				{"a probe key that fails in its exchange", failing, by(failing, "p.k"), nil, nil, true},
			}
			for _, c := range cases {
				d, err := machineDiff(rt, c.n, parts, c.to, c.el, c.ctx)
				if d != "" {
					t.Errorf("%s, %d rows, %d partitions: %s", c.name, rows, parts, d)
				} else if (err != nil) != c.fail {
					t.Errorf("%s, %d rows, %d partitions: error %v", c.name, rows, parts, err)
				}
			}
		}
	}
}

// prVSBody is PR-VS's loop body over batchRT's results: p as PageRank, e
// as the edges, r as IncomingRank and v as vertexStatus.
const prVSBody = `SELECT p.k, p.a + p.y, 0.85 * SUM(r.d * e.w)
FROM p LEFT JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src JOIN v ON v.node = e.dst
WHERE v.s != 0 GROUP BY p.k, p.a + p.y`

// BenchmarkFragmentRoute materializes PR-VS's loop body over 2,100 rows
// on a 2-partition machine, as each iteration does — its joins routed
// through exchanges whose sites the machine fills again in place, its
// aggregate over the delivered rows — in the batch forms (batch) and a
// row at a time (row).
func BenchmarkFragmentRoute(b *testing.B) {
	for _, form := range []struct {
		name string
		rows bool
	}{{"batch", false}, {"row", true}} {
		b.Run(form.name, func(b *testing.B) {
			rt := batchRT(b, 2100, 2)
			n := planOf(rt, prVSBody)
			if form.rows {
				defer exec.RowAtATime()()
			}
			m := New(rt, 2, nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := m.Materialize(n, "out", nil)
				if err != nil {
					b.Fatal(err)
				}
				if t.Len() == 0 {
					b.Fatal("no rows")
				}
				m.Sweep()
			}
		})
	}
}
