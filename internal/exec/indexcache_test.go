package exec

import (
	"fmt"
	"sync"
	"testing"

	"dbspinner/internal/expr"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// keysOf compiles a join's build-side (right) key expressions.
func keysOf(t *testing.T, rt *StoreRuntime, sql string) []*expr.Compiled {
	t.Helper()
	_, rk, _, err := compileJoinKeys(joinNode(t, rt, sql), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rk
}

// TestIndexCacheIdentity: the memo answers for exactly the table, the
// partition and the key columns it was asked about before, and a copy of
// the table — the same rows at another address — is another table.
func TestIndexCacheIdentity(t *testing.T) {
	rt := testRuntime(t)
	edges := rt.Catalog.Get("edges")
	byDst := keysOf(t, rt, "SELECT * FROM vertexStatus v JOIN edges e ON v.node = e.dst")
	bySrc := keysOf(t, rt, "SELECT * FROM vertexStatus v JOIN edges e ON v.node = e.src")
	computed := keysOf(t, rt, "SELECT * FROM vertexStatus v JOIN edges e ON v.node = e.dst + 0")
	if byDst[0].Col != 1 || bySrc[0].Col != 0 || computed[0].Col != -1 {
		t.Fatalf("Col of e.dst, e.src, e.dst + 0 = %d, %d, %d; want 1, 0, -1", byDst[0].Col, bySrc[0].Col, computed[0].Col)
	}

	c := NewMemo(nil)
	ask := func(tb *storage.Table, part int, keys []*expr.Compiled) (*HashIndex, bool) {
		t.Helper()
		x, built, err := c.Index(tb, part, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		return x, built
	}
	first, built := ask(edges, allParts, byDst)
	if !built || len(first.Rows) != 4 {
		t.Fatalf("first request: built = %v over %d rows, want a build over 4", built, len(first.Rows))
	}
	if again, built := ask(edges, allParts, byDst); built || again != first {
		t.Error("the same table, partition and columns must be a hit on the same index")
	}
	for _, miss := range []struct {
		name string
		tb   *storage.Table
		part int
		keys []*expr.Compiled
	}{
		{"other key column", edges, allParts, bySrc},
		{"one partition", edges, 0, byDst},
		{"a copy of the table", edges.Clone(), allParts, byDst},
	} {
		if x, built := ask(miss.tb, miss.part, miss.keys); !built || x == first {
			t.Errorf("%s: want a new index, got built = %v, same = %v", miss.name, built, x == first)
		}
	}
	if n := c.Len(); n != 4 {
		t.Errorf("Len = %d, want 4", n)
	}
	// A computed key is built every time and never kept.
	if _, built := ask(edges, allParts, computed); !built {
		t.Error("a computed key was served from the memo")
	}
	if _, built := ask(edges, allParts, computed); !built || c.Len() != 4 {
		t.Errorf("a computed key was kept: built = %v, Len = %d", built, c.Len())
	}

	// One partition's index holds that partition's rows only.
	p1, _ := ask(edges, 1, byDst)
	if len(p1.Rows) != len(edges.Parts[1]) {
		t.Errorf("partition 1 index over %d rows, the partition has %d", len(p1.Rows), len(edges.Parts[1]))
	}

	// A nil cache builds, every time.
	var none *Memo
	a, builtA, _ := none.Index(edges, allParts, byDst, nil)
	b, builtB, _ := none.Index(edges, allParts, byDst, nil)
	if !builtA || !builtB || a == b || none.Len() != 0 {
		t.Error("a nil cache must build a fresh index per request")
	}
	none.Sweep()
	none.end(false)
}

// TestIndexCacheSweep: an entry lives as long as every sweep finds it
// used since the one before.
func TestIndexCacheSweep(t *testing.T) {
	rt := testRuntime(t)
	edges, vs := rt.Catalog.Get("edges"), rt.Catalog.Get("vertexStatus")
	byDst := keysOf(t, rt, "SELECT * FROM vertexStatus v JOIN edges e ON v.node = e.dst")
	byNode := keysOf(t, rt, "SELECT * FROM edges e JOIN vertexStatus v ON v.node = e.dst")
	c := NewMemo(nil)
	kept, _, _ := c.Index(edges, allParts, byDst, nil)
	c.Index(vs, allParts, byNode, nil)
	c.Sweep() // both were asked for
	if c.Len() != 2 {
		t.Fatalf("Len after the first sweep = %d, want 2", c.Len())
	}
	c.Index(edges, allParts, byDst, nil)
	c.Sweep() // vertexStatus was not
	if c.Len() != 1 {
		t.Fatalf("Len after the second sweep = %d, want 1", c.Len())
	}
	if x, built, _ := c.Index(edges, allParts, byDst, nil); built || x != kept {
		t.Error("the entry used every round was rebuilt")
	}
	if _, built, _ := c.Index(vs, allParts, byNode, nil); !built {
		t.Error("the swept entry was served")
	}
	c.end(false)
	if c.Len() != 0 {
		t.Errorf("Len after the run ends = %d", c.Len())
	}
}

// TestIndexCacheSharedByProbers has many goroutines ask for one index
// and probe it at once: it is built once, and probing it with a scratch
// of one's own is race-free (this test is in the -race pass).
func TestIndexCacheSharedByProbers(t *testing.T) {
	_, rt := kernelPlan(t, benchJoinSQL)
	dim := rt.Catalog.Get("dim")
	keys := keysOf(t, rt, benchJoinSQL)
	c := NewMemo(nil)
	const probers = 8
	var wg sync.WaitGroup
	var builds, found [probers]int
	for g := 0; g < probers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x, built, err := c.Index(dim, allParts, keys, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if built {
				builds[g]++
			}
			buf := make([]sqltypes.Value, len(keys))
			for _, r := range dim.Parts[0] {
				for i, err := x.First(r, keys, buf); i >= 0; i = x.Next(i) {
					if err != nil {
						t.Error(err)
						return
					}
					found[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for g := range builds {
		total += builds[g]
		if found[g] != 1000 {
			t.Errorf("prober %d found %d matches, want 1000", g, found[g])
		}
	}
	if total != 1 {
		t.Errorf("%d goroutines built the index, want exactly one", total)
	}
}

// TestJoinTakesTableIndexFromCache runs one join plan three times over a
// runtime view with a memo: only the first run indexes and scans the
// build table, every run returns the rows a runtime without a memo
// returns, and replacing the table is a miss.
func TestJoinTakesTableIndexFromCache(t *testing.T) {
	for _, c := range []struct {
		sql      string
		memoized bool
	}{
		{benchJoinSQL, true}, // dim is the build side: 1000 rows
		{"SELECT fact.v, d.w FROM fact LEFT JOIN dim AS d ON fact.k = d.k", true},
		{"SELECT fact.v, dim.w FROM dim RIGHT JOIN fact ON fact.k = dim.k", true},     // a right join builds on its left
		{"SELECT fact.v, dim.w FROM fact FULL JOIN dim ON fact.k = dim.k + 0", false}, // a computed key is never kept
	} {
		sql, memoized := c.sql, c.memoized
		node, plain := kernelPlan(t, sql)
		var ref Stats
		want, err := Run(node, plain, &ref)
		if err != nil {
			t.Fatal(err)
		}
		if ref.RowsIndexed != 1000 || ref.RowsScanned != 4000 {
			t.Fatalf("%s: without a memo RowsIndexed = %d, RowsScanned = %d; want 1000 and 4000", sql, ref.RowsIndexed, ref.RowsScanned)
		}
		rt := plain.WithMemo(NewMemo(nil))
		for run := 1; run <= 3; run++ {
			var st Stats
			got, err := Run(node, rt, &st)
			if err != nil {
				t.Fatal(err)
			}
			if RowsText(got) != RowsText(want) {
				t.Errorf("%s, run %d: rows differ from the run without a memo", sql, run)
			}
			wantIndexed, wantScanned := int64(1000), int64(4000)
			if memoized && run > 1 {
				wantIndexed, wantScanned = 0, 3000
			}
			if st.RowsIndexed != wantIndexed || st.RowsScanned != wantScanned || st.RowsJoined != ref.RowsJoined {
				t.Errorf("%s, run %d: RowsIndexed = %d, RowsScanned = %d, RowsJoined = %d; want %d, %d, %d",
					sql, run, st.RowsIndexed, st.RowsScanned, st.RowsJoined, wantIndexed, wantScanned, ref.RowsJoined)
			}
		}
		if !memoized {
			continue
		}
		// The same name, another table: one more row under key 0.
		old := rt.Catalog.Get("dim")
		if err := rt.Catalog.Drop("dim", false); err != nil {
			t.Fatal(err)
		}
		repl, err := rt.Catalog.Create("dim", old.Schema, -1)
		if err != nil {
			t.Fatal(err)
		}
		repl.InsertBatch(old.AllRows())
		repl.Insert(sqltypes.Row{i64(0), f64(-1)})
		var st Stats
		got, err := Run(node, rt, &st)
		if err != nil {
			t.Fatal(err)
		}
		if st.RowsIndexed != 1001 || len(got) != len(want)+3 {
			t.Errorf("%s: after replacing dim RowsIndexed = %d and %d rows, want 1001 and %d", sql, st.RowsIndexed, len(got), len(want)+3)
		}
	}
}

// TestJoinIndexesFilteredBuildSide: a build side that filters a table
// read is indexed from the rows of the table that pass, with no drain:
// each build scans all 1000 rows of dim and indexes the 500 with w >= 250.
// The memo keys the index on the filter it gave out itself, so under one
// memo only the first run builds; without one every run does. All return
// the rows of the plan that tests w in the join.
func TestJoinIndexesFilteredBuildSide(t *testing.T) {
	node, plain := kernelPlan(t, "SELECT fact.v, dim.w FROM fact JOIN dim ON fact.k = dim.k WHERE dim.w >= 250")
	if f, ok := firstJoin(t, node).Right.(*plan.Filter); !ok || f.Input.(*plan.Scan).Table != "dim" {
		t.Fatalf("the build side is not a filtered read of dim:\n%s", plan.ExplainTree(node))
	}
	want, err := Run(planSQL(t, plain, "SELECT fact.v, dim.w FROM fact JOIN dim ON fact.k = dim.k AND dim.w >= 250"), plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		rt       *StoreRuntime
		memoized bool
	}{
		{"no memo", plain, false},
		{"memo", plain.WithMemo(NewMemo(nil)), true},
	} {
		for run := 1; run <= 3; run++ {
			var st Stats
			got, err := Run(node, c.rt, &st)
			if err != nil {
				t.Fatal(err)
			}
			if RowsText(got) != RowsText(want) {
				t.Errorf("%s, run %d: rows differ from the join that tests w itself", c.name, run)
			}
			wantIndexed, wantScanned := int64(500), int64(4000)
			if c.memoized && run > 1 {
				wantIndexed, wantScanned = 0, 3000
			}
			if st.RowsIndexed != wantIndexed || st.RowsScanned != wantScanned || st.RowsJoined != 1500 {
				t.Errorf("%s, run %d: RowsIndexed = %d, RowsScanned = %d, RowsJoined = %d; want %d, %d, 1500",
					c.name, run, st.RowsIndexed, st.RowsScanned, st.RowsJoined, wantIndexed, wantScanned)
			}
		}
	}
}

// probeAll renders, for every probe row, the build rows x matches it with
// in chain order: what a join sees of an index.
func probeAll(t *testing.T, x *HashIndex, probe []sqltypes.Row, keys []*expr.Compiled) string {
	t.Helper()
	buf := make([]sqltypes.Value, len(keys))
	var out []sqltypes.Row
	for _, r := range probe {
		i, err := x.First(r, keys, buf)
		for ; i >= 0; i = x.Next(i) {
			out = append(out, x.Rows[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sqltypes.Row{})
	}
	return RowsText(out)
}

// TestIndexCacheTakesBackWhatItLetGo: the storage of an index Sweep drops,
// or a join's own index Recycle gets, is what the next build fills, and
// what that build then serves is what a fresh index over the same rows
// serves; an index in use is never taken back, a spare the run let go
// before its first back-edge stays through every sweep, one an iteration
// let go and no build took between two sweeps is dropped at the second,
// and the end of a run that failed drops them all.
func TestIndexCacheTakesBackWhatItLetGo(t *testing.T) {
	rt := testRuntime(t)
	edges := rt.Catalog.Get("edges")
	if len(edges.Parts) < 2 {
		t.Fatal("edges must span partitions, so that its index gathers its rows")
	}
	byDst := keysOf(t, rt, "SELECT * FROM vertexStatus v JOIN edges e ON v.node = e.dst")
	probe := append(edges.AllRows(), sqltypes.Row{i64(99), i64(99), f64(0)})
	before := RowsText(edges.AllRows())
	c := NewMemo(nil)
	first, _, _ := c.Index(edges, allParts, byDst, nil)
	c.Sweep() // used
	if c.Spares() != 0 {
		t.Fatal("an index used since the last sweep was taken back")
	}
	c.Sweep() // not used: dropped and taken back
	if c.Len() != 0 || c.Spares() != 1 {
		t.Fatalf("after a sweep that drops the entry: Len = %d, Spares = %d; want 0 and 1", c.Len(), c.Spares())
	}

	// The same rows at another address, one row more: a miss, built in
	// the storage the sweep took back.
	other := edges.Clone()
	other.Insert(sqltypes.Row{i64(7), i64(2), f64(0.5)})
	x, built, err := c.Index(other, allParts, byDst, nil)
	if err != nil || !built || x != first || c.Spares() != 0 {
		t.Fatalf("build after the sweep: built = %v, reused = %v, Spares = %d, err = %v", built, x == first, c.Spares(), err)
	}
	fresh, err := BuildHashIndex(other.AllRows(), byDst)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := probeAll(t, x, probe, byDst), probeAll(t, fresh, probe, byDst); got != want {
		t.Errorf("the refilled index serves\n%s\nwant\n%s", got, want)
	}
	if RowsText(edges.AllRows()) != before {
		t.Error("taking the index back changed the rows of the table it indexed")
	}

	// A join's own index (a computed key is never memoized) goes back
	// when the join closes, and the next run's build takes it.
	node, plain := kernelPlan(t, "SELECT fact.v, dim.w FROM fact JOIN dim ON fact.k = dim.k + 0")
	want, err := Run(node, plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	memo := plain.WithMemo(NewMemo(nil))
	for run := 1; run <= 3; run++ {
		got, err := Run(node, memo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if RowsText(got) != RowsText(want) {
			t.Errorf("run %d: rows differ from the run without a memo", run)
		}
		if n := memo.Memo().Spares(); n != 1 {
			t.Errorf("run %d: %d indexes taken back after the join closed, want 1", run, n)
		}
	}

	// A spare let go before the run's first back-edge stays through every
	// sweep; one an iteration lets go and no build takes by the next
	// back-edge goes at the one after.
	d := NewMemo(nil)
	d.Recycle(fresh)
	d.Recycle(nil)
	for sweep := range 4 {
		if sweep > 0 {
			d.Sweep()
		}
		if d.Spares() != 1 {
			t.Errorf("after %d sweeps: Spares = %d, want the one let go before the first", sweep, d.Spares())
		}
	}
	if x := d.spareIndex(0); x != fresh {
		t.Fatal("the build did not take the spare let go before the first back-edge")
	}
	d.Recycle(fresh)
	for sweep, want := range []int{1, 0} {
		d.Sweep()
		if d.Spares() != want {
			t.Errorf("%d sweeps after an iteration let the index go: Spares = %d, want %d", sweep+1, d.Spares(), want)
		}
	}
	d.Recycle(fresh)
	d.end(false)
	if d.Spares() != 0 {
		t.Errorf("Spares after a run that failed = %d", d.Spares())
	}
	var none *Memo
	none.Recycle(first) // a nil memo keeps nothing
}

// checkEntryHoldsItsTable indexes a table carved from the run's chunks
// and has the store release it, as the rename releases the CTE table a
// loop body indexed: the index must read the table's rows until the sweep
// that drops its entry, which hands them back. It says what differs, ""
// when nothing does.
func checkEntryHoldsItsTable(t *testing.T) string {
	t.Helper()
	defer sqltypes.Poison()()
	rt := testRuntime(t)
	byNode := keysOf(t, rt, "SELECT * FROM edges e JOIN vertexStatus v ON v.node = e.dst")
	var freed int64
	var left Leftovers
	m := left.Begin(nil, &freed)
	defer left.End(m, true)
	c := storage.NewTable("c", rt.Catalog.Get("vertexStatus").Schema, 1)
	var slab sqltypes.RowSlab
	slab.CarveFor(c.OwnRows(m.Chunks()))
	for i := int64(1); i <= 3; i++ {
		r := slab.Alloc(2)
		r[0], r[1] = sqltypes.NewInt(i), sqltypes.NewInt(10*i)
		c.Insert(r)
	}
	store := storage.NewResultStore()
	store.Put("c", c)
	x, _, err := m.Index(c, allParts, byNode, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := RowsText(x.Rows)
	store.Drop("c")
	m.Sweep() // the entry was asked for: it stays
	if freed != 0 || RowsText(x.Rows) != want {
		return fmt.Sprintf("%d cells freed while the entry serves the index, which reads %q", freed, RowsText(x.Rows))
	}
	m.Sweep() // it was not: it goes, and the table's rows with it
	if freed != 6 {
		return fmt.Sprintf("%d cells freed once the sweep dropped the entry, want the table's 6", freed)
	}
	return ""
}

// TestIndexEntryHoldsItsTable: a memo entry holds its table until the
// sweep drops it.
func TestIndexEntryHoldsItsTable(t *testing.T) {
	if d := checkEntryHoldsItsTable(t); d != "" {
		t.Error(d)
	}
}

// TestIndexEntryHoldsItsTableCatchesMutant seeds the entry that does not
// hold its table (SeedUnheldEntries): the check must see the release hand
// back the rows its index reads.
func TestIndexEntryHoldsItsTableCatchesMutant(t *testing.T) {
	defer SeedUnheldEntries()()
	d := checkEntryHoldsItsTable(t)
	if d == "" {
		t.Fatal("an index entry that does not hold its table passes the check")
	}
	t.Log("caught: " + d)
}
