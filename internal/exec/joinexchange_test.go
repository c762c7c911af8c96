package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"dbspinner/internal/expr"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// pollCtx is a context that counts its polls (Err) and reports
// context.Canceled from poll fireAt on (never where fireAt is 0).
type pollCtx struct {
	context.Context
	polls, fireAt int64
	done          chan struct{}
}

func newPollCtx(fireAt int64) *pollCtx {
	return &pollCtx{Context: context.Background(), fireAt: fireAt, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if n := atomic.AddInt64(&c.polls, 1); c.fireAt > 0 && n >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// poisonCell is what an exchange's buffer holds before a run writes it.
var poisonCell = sqltypes.NewString("<unwritten>")

// exchangeOut is what exchangeRun returns: the rows each destination got,
// in order, the counters, the rows the tap saw, the polls and the error.
type exchangeOut struct {
	tuples bool // the trees handed over their join tuples
	dests  []string
	stats  Stats
	tapped int
	polls  int64
	err    error
}

// exchangeRun drains n's trees over parts partitions, one after the
// other, as an MPP exchange drains them — each built as a lending
// fragment, drained by a Drainer opened for an exchange, polling once per
// row it takes, routed by keys (nil: by the columns cols) as the machine's
// router routes a row, and copied into its destination's buffer, whose
// cells hold poisonCell until a row is written over them — and returns
// what each destination got. A tap, where tapAt >= 0, shows it every row
// of the result p the trees read first, and fails on the row whose first
// cell is tapAt; the context fires at poll fireAt (0: never).
func exchangeRun(rt *StoreRuntime, n plan.Node, parts int, keys []*expr.Compiled, cols []int, tapAt, fireAt int64) exchangeOut {
	var out exchangeOut
	frag := &Fragment{Parts: parts}
	if tapAt >= 0 {
		probe := n
		for j, ok := probe.(*plan.Join); ok; j, ok = probe.(*plan.Join) {
			probe = j.Left
		}
		frag.Taps = map[plan.Node]Tap{probe: {
			Check: func(_ int, r sqltypes.Row) error {
				if r[0].Int() == tapAt {
					return fmt.Errorf("tap fails at %d", tapAt)
				}
				return nil
			},
			Count: func(_, n int) { out.tapped += n },
		}}
	}
	ctx := newPollCtx(fireAt)
	dests := make([][]sqltypes.Row, parts)
	cells := make([][]sqltypes.Value, parts)
	room := func(d, w int) sqltypes.Row {
		if len(cells[d]) < w {
			cells[d] = make([]sqltypes.Value, 4096)
			for i := range cells[d] {
				cells[d][i] = poisonCell
			}
		}
		row := cells[d][:w:w]
		cells[d] = cells[d][w:]
		dests[d] = append(dests[d], row)
		return row
	}
	vals := make(sqltypes.Row, len(keys))
	idCols := make([]int, len(keys))
	for i := range idCols {
		idCols[i] = i
	}
	route := func(r sqltypes.Row) (int, error) {
		if keys == nil {
			return sqltypes.PartitionOf(r, cols, parts), nil
		}
		null, err := EvalKey(keys, r, vals)
		if err != nil || null {
			return 0, err
		}
		return sqltypes.PartitionOf(vals, idCols, parts), nil
	}
	drain := func(p int) error {
		cc := NewCancelChecker(ctx)
		op, err := BuildLendingFragment(n, rt, &out.stats, cc, frag, p)
		if err != nil {
			return err
		}
		var d Drainer
		if err := d.Open(op, true); err != nil {
			return err
		}
		defer d.Close()
		ts := d.Tuples()
		out.tuples = out.tuples || ts != nil
		var rows []sqltypes.Row
		dst := make([]int32, expr.BatchRows*8)
		for {
			var ok bool
			if rows, ok, err = d.Next(rows[:0]); err != nil || !ok {
				return err
			}
			n := len(rows)
			if ts != nil {
				n = ts.Len()
			}
			if err := cc.TickN(n); err != nil {
				d.Stop(0)
				return err
			}
			if ts != nil {
				routed, err := ts.Route(keys, cols, parts, dst)
				for t := range routed {
					ts.Copy(t, room(int(dst[t]), ts.Width()))
				}
				if err != nil {
					d.Stop(routed)
					return err
				}
				continue
			}
			for i, r := range rows {
				to, err := route(r)
				if err != nil {
					d.Stop(i)
					return err
				}
				copy(room(to, len(r)), r)
			}
		}
	}
	for p := range parts {
		if out.err = drain(p); out.err != nil {
			break
		}
	}
	for _, rows := range dests {
		out.dests = append(out.dests, RowsText(rows))
	}
	out.polls = ctx.polls
	return out
}

// exchangeDiff describes how the batch forms' exchangeRun and the row
// path's differ, "" where they do not: the rows of a destination, the
// counters, the tap's rows, the polls (of a run that did not fail) or the
// error.
func exchangeDiff(rt *StoreRuntime, n plan.Node, parts int, keys []*expr.Compiled, cols []int, tapAt, fireAt int64) string {
	got := exchangeRun(rt, n, parts, keys, cols, tapAt, fireAt)
	restore := RowAtATime()
	want := exchangeRun(rt, n, parts, keys, cols, tapAt, fireAt)
	restore()
	switch {
	case !got.tuples || want.tuples:
		return fmt.Sprintf("the join → exchange form ran %v, on the row path %v", got.tuples, want.tuples)
	case (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error():
		return fmt.Sprintf("error %v, row path %v", got.err, want.err)
	case errors.Is(got.err, context.Canceled):
		return "" // where a batch stops after a poll fires is not the row path's row
	case got.stats != want.stats:
		return fmt.Sprintf("counters %+v, row path %+v", got.stats, want.stats)
	case got.tapped != want.tapped:
		return fmt.Sprintf("the tap saw %d rows, on the row path %d", got.tapped, want.tapped)
	case got.err == nil && got.polls != want.polls:
		return fmt.Sprintf("%d polls, row path %d", got.polls, want.polls)
	}
	for d := range want.dests {
		if got.dests[d] != want.dests[d] {
			return fmt.Sprintf("destination %d got\n%s\nrow path\n%s", d, got.dests[d], want.dests[d])
		}
	}
	return ""
}

// topJoin returns the join at the top of n, under projects and aliases.
func topJoin(n plan.Node) *plan.Join {
	for {
		switch t := n.(type) {
		case *plan.Join:
			return t
		case *plan.Project:
			n = t.Input
		case *plan.Alias:
			n = t.Input
		default:
			return nil
		}
	}
}

// exchangeKeys are the routings of the differential test, over a join's
// rows: key expressions, or nil and columns.
func exchangeKeys(tb testing.TB, j *plan.Join, srcs ...string) []*expr.Compiled {
	env := planEnv(j, nil)
	var keys []*expr.Compiled
	for _, src := range srcs {
		e, err := parser.ParseExpr(src)
		if err != nil {
			tb.Fatal(err)
		}
		k, err := expr.Compile(e, env)
		if err != nil {
			tb.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

// joinExchangeRoutes are the keys each chain is routed by: a probe
// column, a build column, a column of each, an expression over the probe
// row, one over a build row too, and the columns 0 and last.
var joinExchangeRoutes = [][]string{
	{"p.k"},
	{"e.src"},
	{"p.g", "e.src"},
	{"p.a + p.g", "p.k"},
	{"p.a + e.w"},
	nil,
}

// checkJoinExchange runs every chain of joinAggChains, routed every way,
// and the error cases, over results of rows rows at parts partitions,
// and reports each difference from the row path through fail.
func checkJoinExchange(t *testing.T, rows, parts int, fail func(format string, args ...any)) {
	rt := joinAggRuntime(t, rows, parts)
	for _, c := range joinAggChains() {
		j := topJoin(planSQL(t, rt, "SELECT * FROM "+c.from))
		for _, route := range joinExchangeRoutes {
			cols := []int{0, len(j.Columns()) - 1}
			if d := exchangeDiff(rt, j, parts, exchangeKeys(t, j, route...), cols, -1, 0); d != "" {
				fail("%s by %v, %d rows, %d partitions: %s", c.from, route, rows, parts, d)
			}
		}
	}
	j := topJoin(planSQL(t, rt, "SELECT * FROM p LEFT JOIN e ON p.k = e.dst LEFT JOIN r ON r.k = e.src"))
	failing := topJoin(planSQL(t, rt, "SELECT * FROM p JOIN e ON p.k / p.y = e.dst LEFT JOIN r ON r.k = e.src"))
	for _, c := range []struct {
		name          string
		n             *plan.Join
		route         []string
		tapAt, fireAt int64
	}{
		{"a bottom probe key that fails at k = 600", failing, []string{"p.k"}, -1, 0},
		{"a key that fails where g = 3", j, []string{"1 / (p.g - 3)"}, -1, 0},
		{"a key over a build row that fails where g = 3", j, []string{"r.d / (p.g - 3)"}, -1, 0},
		{"a tap", j, []string{"p.k"}, 1 << 40, 0},
		{"a tap that fails at k = 700", j, []string{"p.k"}, 700, 0},
		{"a cancellation", j, []string{"p.k"}, -1, 3},
	} {
		if d := exchangeDiff(rt, c.n, parts, exchangeKeys(t, c.n, c.route...), nil, c.tapAt, c.fireAt); d != "" {
			fail("%s, %d rows, %d partitions: %s", c.name, rows, parts, d)
		}
	}
}

// TestJoinExchangeFormMatchesRowPath: a chain of one to three inner or
// left joins at the root of a tree an exchange drains hands it the same
// rows to copy, routed to the same destinations in the same order — by a
// probe column, a build column, one of each, an expression over the probe
// row, one over a build row, or two columns — with the same counters,
// tap rows and polls as the row path's joined rows, over results of
// 1,023, 1,024, 1,025 and 2,100 rows at 1, 2 and 4 partitions; and where
// the bottom join's probe key, a routing key or a tap fails, or the
// context fires, it fails with the row path's error, having routed what
// the row path routed, with its counters.
func TestJoinExchangeFormMatchesRowPath(t *testing.T) {
	defer sqltypes.Poison()()
	sizes, counts := []int{1023, 1024, 1025, 2100}, []int{1, 2, 4}
	if raceEnabled { // the same code, a fifth of the time
		sizes, counts = []int{1025, 2100}, []int{1, 2}
	}
	for _, rows := range sizes {
		for _, parts := range counts {
			checkJoinExchange(t, rows, parts, t.Errorf)
		}
	}
}

// TestJoinExchangeMutantsAreCaught seeds three faults into the batch
// forms under an exchange — a computed key taken once per probe row
// though it reads a build row, a NULL-extended side whose cells keep what
// the exchange's buffer held, and a tap over a batch source that is not
// shown the batch — and requires the differential to see each.
func TestJoinExchangeMutantsAreCaught(t *testing.T) {
	for _, m := range []struct {
		name string
		flag *bool
	}{
		{"key per probe row", &test.keyPerProbe},
		{"kept cells", &test.keepCells},
		{"skipped tap", &test.skipTap},
	} {
		*m.flag = true
		var caught []string
		checkJoinExchange(t, 1025, 2, func(format string, args ...any) {
			caught = append(caught, strings.SplitN(fmt.Sprintf(format, args...), "\n", 2)[0])
		})
		*m.flag = false
		if len(caught) == 0 {
			t.Errorf("%s: the differential passed", m.name)
		} else {
			t.Logf("%s: %d cases failed, the first: %s", m.name, len(caught), caught[0])
		}
	}
}
