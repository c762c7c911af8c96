package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/mpp"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// keeperRT is a runtime with a run memo, whose free list the machine
// carves from, over a(x, s): 23 rows stored by x over parts partitions.
func keeperRT(t *testing.T, parts int) *exec.StoreRuntime {
	t.Helper()
	cat := catalog.New(parts)
	a, err := cat.Create("a", sqltypes.Schema{{Name: "x", Type: sqltypes.Int}, {Name: "s", Type: sqltypes.String}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		a.Insert(sqltypes.Row{sqltypes.NewInt(int64(i % 7)), sqltypes.NewString(fmt.Sprintf("s%02d", i))})
	}
	return exec.NewStoreRuntime(cat, storage.NewResultStore()).WithMemo(exec.NewMemo(nil))
}

func planOn(t *testing.T, rt *exec.StoreRuntime, sql string) plan.Node {
	t.Helper()
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.NewBuilder(rt).Build(stmt.(*ast.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// keeperShapes are plans whose fragment on the MPP machine keeps rows of
// the result r as they are: a forwarder over r's scan, or r's scan
// alone, at the root of a Materialize, and r's scan as the gathered cut
// of a sort, a top-N and a limit. materialize says the machine makes a
// table of the plan instead of returning its rows.
func keeperShapes(t *testing.T, rt *exec.StoreRuntime) []struct {
	name        string
	node        plan.Node
	materialize bool
} {
	res := planOn(t, rt, "SELECT * FROM r").(*plan.Project).Input
	filter := planOn(t, rt, "SELECT x, s FROM r WHERE x > 1").(*plan.Project).Input
	bys := []plan.SortKey{{Col: 1, Desc: true}}
	return []struct {
		name        string
		node        plan.Node
		materialize bool
	}{
		{"materialized filter", filter, true},
		{"materialized scan", res, true},
		{"sort", &plan.Sort{Input: res, Keys: bys}, false},
		{"top-N", &plan.TopN{Input: res, Keys: bys, Counts: plan.Counts{N: 5}}, false},
		{"limit", &plan.Limit{Input: res, Counts: plan.Counts{N: 7}}, false},
	}
}

// checkFragmentKeepersPin runs every keeper shape on the machine at two
// and three partitions, each over a fresh result r whose rows the
// machine carved into chunks r owns, and then lets the store release r
// with the chunks it hands back poisoned (sqltypes.Poison). The rows the
// shape kept must read afterwards what they read before: the scan that
// kept them pinned r. It returns the shapes whose rows changed.
func checkFragmentKeepersPin(t *testing.T) []string {
	t.Helper()
	defer sqltypes.Poison()()
	var changed []string
	for _, parts := range []int{2, 3} {
		rt := keeperRT(t, parts)
		m := mpp.New(rt, parts, nil, nil)
		source := planOn(t, rt, "SELECT x + 0 AS x, s FROM a")
		r, err := m.Materialize(source, "r", nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.Results.Put("r", r)
		for i, c := range keeperShapes(t, rt) {
			if i > 0 {
				if r, err = m.Materialize(source, "r", nil); err != nil {
					t.Fatal(err)
				}
				rt.Results.Put("r", r)
			}
			if !r.Recycles() {
				t.Fatalf("parts %d: r does not own its rows, so nothing is handed back and the check tests nothing", parts)
			}
			var rows []sqltypes.Row
			if c.materialize {
				kept, err := m.Materialize(c.node, "kept", nil)
				if err != nil {
					t.Fatal(err)
				}
				rows = kept.AllRows()
			} else if rows, err = m.Run(c.node); err != nil {
				t.Fatal(err)
			}
			before := exec.RowsText(rows)
			if len(rows) == 0 || strings.Contains(before, sqltypes.Poisoned.String()) {
				t.Fatalf("parts %d, %s: rows before the release\n%s", parts, c.name, before)
			}
			rt.Results.Drop("r")
			if after := exec.RowsText(rows); after != before {
				changed = append(changed, fmt.Sprintf("parts %d, %s", parts, c.name))
			}
		}
	}
	return changed
}

// TestFragmentKeepersPinTheirResult: on the MPP machine a fragment scan
// pins the result it reads exactly when its consumer keeps rows, so a
// result the machine carved, and whose chunks its release hands back,
// still backs every row a keeper took of it.
func TestFragmentKeepersPinTheirResult(t *testing.T) {
	if changed := checkFragmentKeepersPin(t); len(changed) > 0 {
		t.Errorf("rows a keeper took changed once the result was released: %s", strings.Join(changed, "; "))
	}
}

// TestFragmentKeepersPinTheirResultCatchesMutant seeds the fragment scan
// that does not pin under a keeper: every shape must see its rows
// poisoned.
func TestFragmentKeepersPinTheirResultCatchesMutant(t *testing.T) {
	defer exec.SeedUnpinnedFragmentKeeper()()
	changed := checkFragmentKeepersPin(t)
	if want := 2 * 5; len(changed) != want {
		t.Fatalf("with fragment keepers unpinned %d of %d shapes read released rows: %v", len(changed), want, changed)
	}
	t.Log("caught: " + strings.Join(changed, "; "))
}
