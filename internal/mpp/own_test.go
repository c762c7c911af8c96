package mpp

import (
	"fmt"
	"testing"

	"dbspinner/internal/exec"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
)

// TestMaterializeOwnsTheRowsItCarves: a root fragment that builds every
// row it emits — a project, over a filter or over a single-partition
// input — carves them, one arena per partition, into chunks the table
// owns (exec.CarveRows, as exec.MaterializeContext does): the rows are
// volcano's, the table recycles, and once the store releases it, it
// hands them back and reads empty. A root that passes on rows it did not
// build, an aggregate's, owns nothing and keeps its rows.
func TestMaterializeOwnsTheRowsItCarves(t *testing.T) {
	defer sqltypes.Poison()()
	for _, parts := range []int{1, 2, 3, 4} {
		rt := parityRT(t, parts).WithMemo(exec.NewMemo(nil))
		for _, c := range []struct {
			name string
			node plan.Node
			owns bool
		}{
			{"project", planOf(rt, "SELECT x + 1, s FROM a"), true},
			{"project over a filter", planOf(rt, "SELECT x + 1 AS y, s FROM a WHERE x > 2"), true},
			{"project over one row", planOf(rt, "SELECT 1 + 1, 'one'"), true},
			{"aggregate", find[*plan.Aggregate](planOf(rt, "SELECT x, COUNT(*), MIN(s) FROM a GROUP BY x")), false},
		} {
			label := fmt.Sprintf("parts=%d, %s", parts, c.name)
			volcano, err := exec.Run(c.node, rt, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := New(rt, parts, nil, nil)
			tb, err := m.Materialize(c.node, "t", nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canon(tb.AllRows(), false), canon(volcano, false); got != want || len(volcano) == 0 {
				t.Fatalf("%s: rows\n%s\nwant:\n%s", label, got, want)
			}
			if tb.Recycles() != c.owns {
				t.Errorf("%s: the table owns its rows = %v, want %v", label, tb.Recycles(), c.owns)
			}
			rt.Results.Put("t", tb)
			rt.Results.Drop("t")
			if handedBack := tb.Len() == 0; handedBack != c.owns {
				t.Errorf("%s: the released table handed its rows back = %v, want %v", label, handedBack, c.owns)
			}
		}
	}
}

// TestFailedMaterializeHandsItsChunksBack: when a partition fails, no
// table takes the rows the others carved, and nobody can read them: their
// chunks go back to the run's free list at once, and the next
// materialization carves from them.
func TestFailedMaterializeHandsItsChunksBack(t *testing.T) {
	defer sqltypes.Poison()()
	for _, parts := range []int{2, 3} {
		rt := parityRT(t, parts).WithMemo(exec.NewMemo(nil))
		pool := rt.Memo().Chunks()
		m := New(rt, parts, nil, nil)
		if tb, err := m.Materialize(planOf(rt, "SELECT x, 10 / (x - 3) FROM a"), "t", nil); err == nil {
			t.Fatalf("parts=%d: dividing by zero materialized %d rows", parts, tb.Len())
		}
		back := pool.Bytes()
		if back == 0 {
			t.Fatalf("parts=%d: the failed materialization handed no chunk back", parts)
		}
		if _, err := m.Materialize(planOf(rt, "SELECT x, 10 / (x + 30) FROM a"), "t", nil); err != nil {
			t.Fatal(err)
		}
		if pool.Bytes() >= back {
			t.Errorf("parts=%d: the next materialization took none of the %d bytes handed back", parts, back)
		}
	}
}
