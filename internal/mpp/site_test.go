package mpp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbspinner/internal/ast"
	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// twoPassShuffle is the hash exchange as it was while it was a region of
// its own over rows somebody else had drained: every source appends the
// row headers per destination, then the locals are concatenated in
// source order. It is the reference the routed drain must reproduce —
// rows, order per destination, and both counters.
func twoPassShuffle(in [][]sqltypes.Row, parts int, newRoute router) (out [][]sqltypes.Row, shuffled, relocated int64, err error) {
	locals := make([][][]sqltypes.Row, parts)
	for p := range locals {
		locals[p] = make([][]sqltypes.Row, parts)
		route := newRoute()
		for _, r := range in[p] {
			dst, err := route(r)
			if err != nil {
				return nil, 0, 0, err
			}
			locals[p][dst] = append(locals[p][dst], r)
			shuffled++
			if dst != p {
				relocated++
			}
		}
	}
	out = make([][]sqltypes.Row, parts)
	for dst := range out {
		for src := range locals {
			out[dst] = append(out[dst], locals[src][dst]...)
		}
	}
	return out, shuffled, relocated, nil
}

// cutOver returns a fragment whose root n is a cut holding in: running
// it routes in's rows and nothing else, into the site of (n, again).
func cutOver(m *Machine, n plan.Node, in [][]sqltypes.Row) *fragment {
	f := m.newFragment()
	f.reads(n, relation{parts: in})
	return f
}

// keyOn compiles column col of a width-wide row as a shuffle key.
func keyOn(t *testing.T, col, width int) []*expr.Compiled {
	t.Helper()
	env := &expr.Env{}
	for i := 0; i < width; i++ {
		env.Cols = append(env.Cols, expr.Binding{Name: fmt.Sprintf("c%d", i), Index: i, Type: sqltypes.Int})
	}
	k, err := expr.Compile(&ast.ColumnRef{Name: fmt.Sprintf("c%d", col)}, env)
	if err != nil {
		t.Fatal(err)
	}
	return []*expr.Compiled{k}
}

// TestRoutedDrainIsTheSameExchange: the one routing loop delivers what
// the two-pass shuffle did — the same rows in the same order per
// destination, RowsShuffled and RowsRelocated alike — over random
// relations with NULL keys, at every width down to none, through both
// kinds of router, from every partition or from partition 0 alone; in
// one region per exchange, and again when the site is filled a second
// time in place.
func TestRoutedDrainIsTheSameExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, parts := range []int{1, 2, 3, 4} {
		for _, width := range []int{0, 1, 3} {
			for _, single := range []bool{false, true} {
				for _, byExpr := range []bool{false, true} {
					label := fmt.Sprintf("parts=%d/width=%d/single=%v/expr=%v", parts, width, single, byExpr)
					in := make([][]sqltypes.Row, parts)
					for p := range in {
						if single && p != 0 {
							continue
						}
						for i, n := 0, rng.Intn(700); i < n; i++ {
							r := make(sqltypes.Row, width)
							for c := range r {
								r[c] = sqltypes.NewInt(int64(rng.Intn(40)))
								if rng.Intn(6) == 0 {
									r[c] = sqltypes.NullValue
								}
							}
							in[p] = append(in[p], r)
						}
					}
					var st Stats
					m := New(nil, parts, &st, nil)
					var to router
					switch {
					case width == 0 && byExpr:
						to = m.shuffle(nil)
					case width == 0:
						to = m.shuffleCols(nil)
					case byExpr:
						to = m.shuffle(keyOn(t, width-1, width))
					default:
						to = m.shuffleCols([]int{0, width - 1})
					}
					want, shuffled, relocated, err := twoPassShuffle(in, parts, to)
					if err != nil {
						t.Fatal(err)
					}
					n := &plan.EmptyNode{}
					f := cutOver(m, n, in)
					for round := 1; round <= 2; round++ {
						st = Stats{}
						got, err := m.run(n, f, single, to)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for dst := range want {
							if g, w := rowsText(got.parts[dst]), rowsText(want[dst]); g != w || len(got.parts[dst]) != len(want[dst]) {
								t.Errorf("%s round %d: destination %d differs\n got:\n%s\nwant:\n%s", label, round, dst, g, w)
							}
							for _, r := range got.parts[dst] {
								if r == nil {
									t.Fatalf("%s: a delivered row is nil: it would end its reader's stream", label)
								}
							}
						}
						if st.RowsShuffled != shuffled || st.RowsRelocated != relocated || st.RowsRouted != shuffled {
							t.Errorf("%s round %d: RowsShuffled %d, RowsRelocated %d, RowsRouted %d, want %d, %d, %d",
								label, round, st.RowsShuffled, st.RowsRelocated, st.RowsRouted, shuffled, relocated, shuffled)
						}
						if st.Fragments != int64(parts) {
							t.Errorf("%s round %d: %d fragments for one routed exchange, want one region of %d", label, round, st.Fragments, parts)
						}
						got.from.free = true // what a reader's region would leave
					}
					if m.made != 1 {
						t.Errorf("%s: %d sites for two fills of one exchange", label, m.made)
					}
				}
			}
		}
	}
}

// TestRoutedExchangeIsOneRegion: a join with both sides exchanged runs
// three regions — each side routes its rows while it produces them — and
// counts the busiest destination of each.
func TestRoutedExchangeIsOneRegion(t *testing.T) {
	const parts = 3
	rt := parityRT(t, parts)
	var st Stats
	if _, err := New(rt, parts, &st, nil).Run(planOf(rt, "SELECT a.s, b.t FROM a JOIN b ON a.x = b.y")); err != nil {
		t.Fatal(err)
	}
	if st.Fragments != 3*parts {
		t.Errorf("Fragments = %d, want %d: one region per routed side and one for the join", st.Fragments, 3*parts)
	}
	if st.RowsRouted != st.RowsShuffled || st.RowsRouted != 23+17 {
		t.Errorf("RowsRouted = %d, RowsShuffled = %d, want both tables' %d rows", st.RowsRouted, st.RowsShuffled, 23+17)
	}
	// Every fifth key is NULL and goes to partition 0 with its share of
	// the rest, so the fullest destinations hold more than a third.
	if skew := Skew(st.RowsToBusiest, st.RowsRouted, parts); skew <= 1 || skew > parts {
		t.Errorf("exchange skew %.2f (%d of %d rows to the fullest destinations)", skew, st.RowsToBusiest, st.RowsRouted)
	}
}

// TestRoutingLoopIsCancelable: a context that fires while a fragment
// routes stops it within one tick stride, and a worker whose sibling
// fails is canceled out of its routing loop and the sibling's error
// returned.
func TestRoutingLoopIsCancelable(t *testing.T) {
	const parts, rows = 2, 50_000
	many := make([]sqltypes.Row, rows)
	for i := range many {
		many[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
	}

	t.Run("context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m := New(nil, parts, nil, nil)
		m.Ctx = ctx
		routed := 0 // only partition 0 has rows to route
		to := func() func(sqltypes.Row) (int, error) {
			return func(r sqltypes.Row) (int, error) {
				if routed++; r[0].Int() == 2000 {
					cancel()
				}
				return 0, nil
			}
		}
		n := &plan.EmptyNode{}
		f := cutOver(m, n, [][]sqltypes.Row{many, nil})
		if _, err := m.run(n, f, false, to); !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
		if routed > 2001+1024 {
			t.Errorf("%d rows routed after the context fired at row 2000: more than a tick stride", routed-2001)
		}
	})

	t.Run("sibling", func(t *testing.T) {
		errReal := errors.New("routing exploded")
		m := New(nil, parts, nil, nil)
		routed := 0 // partition 0's rows; partition 1 has the one that fails
		started, failed := make(chan struct{}), make(chan struct{})
		to := func() func(sqltypes.Row) (int, error) {
			return func(r sqltypes.Row) (int, error) {
				if r[0].Int() < 0 {
					<-started // partition 0 is inside its loop
					close(failed)
					return 0, errReal
				}
				if routed++; routed == 1 {
					close(started)
				}
				select {
				case <-failed:
					// Give the failure time to travel: without a
					// cancellation these waits add up to a second.
					for until := time.Now().Add(20 * time.Microsecond); time.Now().Before(until); {
					}
				default:
				}
				return 0, nil
			}
		}
		n := &plan.EmptyNode{}
		f := cutOver(m, n, [][]sqltypes.Row{many, {{sqltypes.NewInt(-1)}}})
		if _, err := m.run(n, f, false, to); !errors.Is(err, errReal) {
			t.Fatalf("run returned %v, want the failing sibling's error", err)
		}
		if routed == rows {
			t.Error("partition 0 routed every row: its sibling's failure did not cancel it")
		}
	})
}

// TestSweepDropsIdleSites: a site nobody filled between two sweeps is
// dropped, one that is filled every round stays — and is the same one.
func TestSweepDropsIdleSites(t *testing.T) {
	const parts = 2
	rt := parityRT(t, parts)
	m := New(rt, parts, nil, nil)
	once := planOf(rt, "SELECT a.s, b.t FROM a JOIN b ON a.x = b.y")
	loop := planOf(rt, "SELECT y, COUNT(*) FROM b GROUP BY y")
	if _, err := m.Run(once); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if _, err := m.Run(loop); err != nil {
			t.Fatal(err)
		}
		m.Sweep()
		if want := map[int]int{1: 3, 2: 1, 3: 1}[round]; len(m.sites) != want {
			t.Errorf("round %d: %d sites held after the sweep, want %d", round, len(m.sites), want)
		}
	}
	// The aggregate reads its input: the exchange in front of it is filled
	// in place from the second round on. The join's build side keeps its
	// rows, the probe side's site was simply not asked for again.
	if m.made != 3 {
		t.Errorf("%d sites made, want the join's two and the aggregate's one", m.made)
	}
	(*Machine)(nil).Sweep()
}
