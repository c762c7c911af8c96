package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbspinner/internal/exec"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// mergeResult is what one keyed merge leaves behind: out's partitions,
// the change set it published — its rows routed as out is (delta), the
// keys they carry in order, none when the set is dense in out, and the
// count of changed keys — the changed row count, or the error.
type mergeResult struct {
	out, delta [][]sqltypes.Row
	keys       []sqltypes.Value
	nkeys      int // the distinct keys the change set says it carries
	changed    int64
	err        string
}

// same reports the first difference between two merges' results: rows
// are compared by identity, so a row that is equal but not the one the
// other form placed there is a difference too.
func (a mergeResult) same(b mergeResult) error {
	if a.err != b.err {
		return fmt.Errorf("error %q, want %q", a.err, b.err)
	}
	if a.changed != b.changed {
		return fmt.Errorf("changed %d, want %d", a.changed, b.changed)
	}
	for _, side := range []struct {
		what string
		x, y [][]sqltypes.Row
	}{{"out", a.out, b.out}, {"delta", a.delta, b.delta}} {
		if len(side.x) != len(side.y) {
			return fmt.Errorf("%s has %d partitions, want %d", side.what, len(side.x), len(side.y))
		}
		for p := range side.x {
			if len(side.x[p]) != len(side.y[p]) {
				return fmt.Errorf("%s partition %d has %d rows, want %d", side.what, p, len(side.x[p]), len(side.y[p]))
			}
			for i, r := range side.x[p] {
				if o := side.y[p][i]; !r.Equal(o) || (len(r) > 0 && &r[0] != &o[0]) {
					return fmt.Errorf("%s partition %d row %d is %v, want %v", side.what, p, i, r, o)
				}
			}
		}
	}
	if a.nkeys != b.nkeys {
		return fmt.Errorf("%d changed keys published, want %d", a.nkeys, b.nkeys)
	}
	if len(a.keys) > 0 && len(a.keys) != a.nkeys {
		return fmt.Errorf("%d changed keys published for rows carrying %d", a.nkeys, len(a.keys))
	}
	if len(a.keys) != len(b.keys) {
		return fmt.Errorf("changed keys %v, want %v", a.keys, b.keys)
	}
	for i := range a.keys {
		if !sqltypes.KeyEqual(a.keys[i], b.keys[i]) || a.keys[i].T != b.keys[i].T {
			return fmt.Errorf("changed keys %v, want %v", a.keys, b.keys)
		}
	}
	return nil
}

// mergeInto runs the keyed merge of work into cte over loop, whose delta
// step has asked for change sets, and returns what it left and out.
func mergeInto(rt *exec.StoreRuntime, loop *LoopState, cte, work *storage.Table, parts int) (mergeResult, *storage.Table) {
	rt.Results.Put("c", cte)
	rt.Results.Put("w", work)
	rt.Results.Drop("m")
	loop.changes.wanted = true
	step := &MergeStep{CTE: "c", Work: "w", Into: "m", Loop: loop}
	if err := step.Run(&Context{RT: rt, Stats: &Stats{}, parts: parts}); err != nil {
		return mergeResult{err: err.Error()}, nil
	}
	out, set := rt.Results.Get("m"), loop.changes
	delta := storage.NewTable("d", cte.Schema, parts)
	delta.DistCol = 0
	delta.InsertBatch(set.rows)
	keys := sqltypes.NewKeyTable(1, len(set.rows))
	for _, r := range set.rows {
		keys.Insert(r[0:1])
	}
	res := mergeResult{out: out.Parts, delta: delta.Parts, nkeys: set.keys, changed: loop.lastUpdate}
	for id := 0; id < keys.Len(); id++ {
		res.keys = append(res.keys, keys.Key(id)[0])
	}
	return res, out
}

// mergeKeys are the keys the generated tables draw from, in classes of
// equal keys: small INTs, zero as INT, FLOAT and -0.0, one as INT and
// FLOAT, NaN in two payloads, NULL and a string.
var mergeKeys = [][]sqltypes.Value{
	{sqltypes.NewInt(0), sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1))},
	{sqltypes.NewInt(1), sqltypes.NewFloat(1)},
	{sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Float64frombits(0xfff8000000000001))},
	{sqltypes.NullValue}, {sqltypes.NewString("k")},
	{sqltypes.NewInt(2)}, {sqltypes.NewInt(3)}, {sqltypes.NewInt(4)}, {sqltypes.NewInt(5)},
	{sqltypes.NewInt(6)}, {sqltypes.NewInt(7)}, {sqltypes.NewInt(8)}, {sqltypes.NewInt(9)},
}

// scatter puts rows into a table of parts partitions at random, as a
// materialization not routed on the key may leave them.
func scatter(rng *rand.Rand, name string, rows []sqltypes.Row, parts int) *storage.Table {
	t := storage.NewTable(name, mergeSchema, parts)
	for _, r := range rows {
		p := rng.Intn(parts)
		t.Parts[p] = append(t.Parts[p], r)
	}
	return t
}

var mergeSchema = sqltypes.Schema{{Name: "k", Type: sqltypes.Int}, {Name: "v", Type: sqltypes.Int}}

// TestKeyedMergePatchMatchesRebuild is the merge's equivalence test. A
// loop whose key index describes the CTE patches it; a loop with no index
// merges the same tables by rebuilding. Over generated CTEs — a base term
// that repeats keys, scattered over the partitions — and rounds of
// working rows (unchanged rows, changed ones, new keys, equal keys of
// another type: NaN payloads, ±0, 1 and 1.0), both leave the same out
// and delta partitions, row for row, the same changed keys in the same
// order and the same count. A round with a short working row or a
// duplicate working key fails both with the same error, leaves the index
// trusted for no table, and the next round merges the last good table.
func TestKeyedMergePatchMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	rt := newRT(t)
	// row is a row of key class c, in one of its spellings.
	row := func(c int) sqltypes.Row {
		k := mergeKeys[c][rng.Intn(len(mergeKeys[c]))]
		return sqltypes.Row{k, sqltypes.NewInt(rng.Int63n(3))}
	}
	patched := 0
	for trial := 0; trial < 200; trial++ {
		parts := 1 + trial%4
		var base []sqltypes.Row
		for i, n := 0, rng.Intn(12); i < n; i++ {
			base = append(base, row(rng.Intn(len(mergeKeys))))
		}
		cte := scatter(rng, "c", base, parts)
		warm := &LoopState{}
		for round := 0; round < 6; round++ {
			classes := rng.Perm(len(mergeKeys))[:rng.Intn(len(mergeKeys))]
			var work []sqltypes.Row
			for _, c := range classes {
				work = append(work, row(c))
			}
			switch rng.Intn(10) {
			case 0:
				work = append(work, sqltypes.Row{})
			case 1:
				if len(classes) > 0 {
					work = append(work, row(classes[rng.Intn(len(classes))]))
				}
			}
			rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
			wt := scatter(rng, "w", work, parts)
			trusted := trusts(warm, cte)
			got, out := mergeInto(rt, warm, cte, wt, parts)
			if got.err != "" && warm.indexOf != nil {
				t.Fatalf("trial %d round %d: a failed merge left its index trusted", trial, round)
			}
			want, _ := mergeInto(rt, &LoopState{}, cte, wt, parts)
			if err := got.same(want); err != nil {
				t.Fatalf("trial %d round %d (parts %d, patched %v): %v\ncte %v\nwork %v", trial, round, parts, trusted, err, cte.Parts, wt.Parts)
			}
			if trusted {
				patched++
			}
			if out != nil {
				cte = out
			}
		}
	}
	if patched < 500 {
		t.Errorf("only %d merges patched; the test exercises the rebuild alone", patched)
	}
}

// TestKeyedMergeKeysPastExactRebuild: an INT key beyond ±2^53 equals the
// FLOAT it rounds to while two such INTs differ, so a table holding one
// is never trusted, and a working row carrying one makes a patch give
// way to a rebuild; either way the answer is the rebuild's. 2^53 itself,
// as INT or FLOAT, is exact.
func TestKeyedMergeKeysPastExactRebuild(t *testing.T) {
	rt := newRT(t)
	big, bigger, image := sqltypes.NewInt(1<<53), sqltypes.NewInt(1<<53+1), sqltypes.NewFloat(1<<53)
	r := func(k sqltypes.Value, v int64) sqltypes.Row { return sqltypes.Row{k, sqltypes.NewInt(v)} }
	cte := storage.NewTable("c", mergeSchema, 2)
	cte.InsertBatch([]sqltypes.Row{r(sqltypes.NewInt(1), 1), r(big, 1)})
	loop := &LoopState{}
	_, out := mergeInto(rt, loop, cte, storage.NewTable("w", mergeSchema, 2), 2)
	if !trusts(loop, out) {
		t.Fatal("a table of exact keys is not trusted")
	}
	for _, work := range [][]sqltypes.Row{{r(bigger, 2)}, {r(image, 3)}, {r(bigger, 4), r(image, 5)}} {
		wt := storage.NewTable("w", mergeSchema, 2)
		wt.InsertBatch(work)
		loop := &LoopState{}
		_, indexed := mergeInto(rt, loop, cte, storage.NewTable("w", mergeSchema, 2), 2)
		got, out := mergeInto(rt, loop, indexed, wt, 2)
		want, _ := mergeInto(rt, &LoopState{}, indexed, wt, 2)
		if err := got.same(want); err != nil {
			t.Fatalf("work %v: %v", work, err)
		}
		if past := work[0][0] == bigger; out != nil && trusts(loop, out) == past {
			t.Errorf("work %v: trusted %v, want %v", work, !past, past)
		}
	}
}

// TestKeyedMergeTrustsOnlyItsTable is the index's witness: handed a CTE
// other than the table its index describes — the same partition shape,
// other rows at the same positions, as a checkpoint restore or a new run
// could bind — the merge rebuilds and gives the rebuild's answer. The
// seeded mutant that trusts the index without looking at the table
// patches the wrong rows, and the test sees it.
func TestKeyedMergeTrustsOnlyItsTable(t *testing.T) {
	rt := newRT(t)
	r := func(k, v int64) sqltypes.Row { return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewInt(v)} }
	witness := func() error {
		cte := storage.NewTable("c", mergeSchema, 2)
		cte.InsertBatch([]sqltypes.Row{r(1, 10), r(2, 20), r(3, 30), r(4, 40)})
		loop := &LoopState{}
		_, indexed := mergeInto(rt, loop, cte, storage.NewTable("w", mergeSchema, 2), 2)
		// other has indexed's shape with every key moved on by 4.
		other := storage.NewTable("c", mergeSchema, 2)
		for p, part := range indexed.Parts {
			for _, row := range part {
				other.Parts[p] = append(other.Parts[p], r(row[0].Int()+4, row[1].Int()))
			}
		}
		work := storage.NewTable("w", mergeSchema, 2)
		work.InsertBatch([]sqltypes.Row{r(2, 21), r(6, 61), r(9, 90)})
		got, _ := mergeInto(rt, loop, other, work, 2)
		want, _ := mergeInto(rt, &LoopState{}, other, work, 2)
		return got.same(want)
	}
	if err := witness(); err != nil {
		t.Fatal(err)
	}
	real := trusts
	defer func() { trusts = real }()
	trusts = func(l *LoopState, _ *storage.Table) bool { return l.index != nil }
	if witness() == nil {
		t.Error("the mutant that trusts the index for any table passed the witness")
	}
}

// ssspVSLoop rewrites SSSP-VS over rt and returns the program and its
// loop state.
func ssspVSLoop(t *testing.T, rt *exec.StoreRuntime) (*Program, *LoopState) {
	t.Helper()
	prog, err := Rewrite(mustParse(t, ssspVSQuery), rt, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prog.Steps {
		if init, ok := s.(*InitLoopStep); ok {
			return prog, init.Loop
		}
	}
	t.Fatal("SSSP-VS has no loop")
	return nil, nil
}

// TestSSSPVSBuildsTheMergeIndexOnce: in a run of SSSP-VS every merge but
// the first patches the table the one before it produced, so the run
// builds the key index once: the index it gives back to the statement's
// state has been patched by the four merges after the first (gen counts
// the patches since the index was last emptied). The next run's first
// merge rebuilds it over that storage.
func TestSSSPVSBuildsTheMergeIndexOnce(t *testing.T) {
	for _, parts := range []int{1, 4} {
		rt := graphRT(t, parts)
		prog, loop := ssspVSLoop(t, rt)
		prog.Parts = parts
		st := new(RunState)
		var given *keyIndex
		for run := 1; run <= 2; run++ {
			stats := &Stats{}
			if _, err := prog.RunBound(context.Background(), rt, nil, st, stats); err != nil {
				t.Fatal(err)
			}
			if stats.Iterations != 5 {
				t.Fatalf("%d iterations, want 5", stats.Iterations)
			}
			if loop.index != nil || loop.indexOf != nil {
				t.Errorf("parts %d run %d: the loop kept its key index past the run", parts, run)
			}
			x := st.merges.Take()
			if x == nil || len(x.at) == 0 {
				t.Fatalf("parts %d run %d: the run gave no key index back", parts, run)
			}
			if x.gen != 4 {
				t.Errorf("parts %d run %d: %d merges patched after the index was last built, want 4 of 5", parts, run, x.gen)
			}
			if run == 2 && x != given {
				t.Errorf("parts %d: the second run did not rebuild over the storage the first gave back", parts)
			}
			given = x
			st.merges.Give(x)
		}
	}
}

// TestFailedRunGivesBackNoMergeIndex: a run that fails after its merges
// have built and patched the key index leaves none of it in the
// statement's state.
func TestFailedRunGivesBackNoMergeIndex(t *testing.T) {
	rt := graphRT(t, 1)
	prog, loop := ssspVSLoop(t, rt)
	st := new(RunState)
	if _, err := prog.RunBound(context.Background(), rt, nil, st, nil); err != nil {
		t.Fatal(err)
	}
	loop.Cap = 3 // the fourth iteration fails with the cap error
	defer func() { loop.Cap = 0 }()
	if _, err := prog.RunBound(context.Background(), rt, nil, st, nil); err == nil {
		t.Fatal("the capped run did not fail")
	}
	if x := st.merges.Take(); x != nil {
		t.Error("a failed run gave its key index back")
	}
}
