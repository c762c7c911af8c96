package plan_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbspinner/internal/ast"
	"dbspinner/internal/catalog"
	"dbspinner/internal/exec"
	"dbspinner/internal/parser"
	"dbspinner/internal/plan"
	"dbspinner/internal/sqltypes"
	"dbspinner/internal/storage"
)

// placePool holds the values the tables draw from: NULL, NaN, both zeros,
// both infinities and a few numbers. Keys come from its first part, so
// joins meet duplicate keys, NULL and NaN keys, and -0.0 against 0.0.
var placePool = []sqltypes.Value{
	sqltypes.NullValue, sqltypes.NewFloat(math.NaN()),
	sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1)),
	sqltypes.NewFloat(1), sqltypes.NewFloat(math.Inf(1)),
	sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(-1), sqltypes.NewFloat(1.5), sqltypes.NewFloat(2),
}

const placeKeys = 6 // keys are placePool[:placeKeys]

var (
	// strictConjuncts never hold when a column they read is NULL;
	// nonStrictConjuncts can. T and U stand for two tables of the chain.
	strictConjuncts = []string{
		"T.v > 0", "T.k = T.v", "T.v + 1 < 2", "-T.v <= 0", "T.v = U.v", "T.k != U.v",
	}
	nonStrictConjuncts = []string{
		"T.v IS NULL", "T.k IS NOT NULL", "COALESCE(T.v, 0) = 0", "LEAST(T.v, 1) < 2",
		"T.v > 0 OR T.k IS NULL", "CASE WHEN T.v IS NULL THEN 1 ELSE T.v END > 0",
		"COALESCE(T.v, U.v) > 0", "1 = 1",
	}
	joinKinds = []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN", "CROSS JOIN"}
)

// placeCase is one generated query over tables a, b and maybe c.
type placeCase struct {
	sql  string
	rows map[string][]sqltypes.Row
}

func genPlaceCase(rng *rand.Rand) placeCase {
	tables := []string{"a", "b", "c"}[:2+rng.Intn(2)]
	c := placeCase{rows: map[string][]sqltypes.Row{}}
	for _, t := range tables {
		for i := rng.Intn(5); i > 0; i-- {
			c.rows[t] = append(c.rows[t], sqltypes.Row{placePool[rng.Intn(placeKeys)], placePool[rng.Intn(len(placePool))]})
		}
	}
	pick := func() string { return tables[rng.Intn(len(tables))] }
	var b strings.Builder
	b.WriteString("SELECT * FROM a")
	for i, t := range tables[1:] {
		kind := joinKinds[rng.Intn(len(joinKinds))]
		fmt.Fprintf(&b, " %s %s", kind, t)
		if kind == "CROSS JOIN" {
			continue
		}
		other := tables[rng.Intn(i+1)]
		fmt.Fprintf(&b, " ON %s.k = %s.%s", t, other, []string{"k", "v"}[rng.Intn(2)])
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, " AND %s.v < %s.v", t, other)
		}
	}
	var conjs []string
	for n := 1 + rng.Intn(3); n > 0; n-- {
		pool := strictConjuncts
		if rng.Intn(2) == 0 {
			pool = nonStrictConjuncts
		}
		conj := strings.ReplaceAll(pool[rng.Intn(len(pool))], "T.", pick()+".")
		conjs = append(conjs, strings.ReplaceAll(conj, "U.", pick()+"."))
	}
	c.sql = b.String() + " WHERE " + strings.Join(conjs, " AND ")
	return c
}

// run plans c's FROM and WHERE both ways — the WHERE as one Filter over
// the FROM tree, and placed — executes both, and returns their rows and
// the placed plan, and whether placement changed the plan.
func (c placeCase) run(t *testing.T) (top, placed string, placedPlan plan.Node, moved bool) {
	t.Helper()
	cat := catalog.New(1)
	for _, name := range []string{"a", "b", "c"} {
		tb, err := cat.Create(name, sqltypes.Schema{{Name: "k", Type: sqltypes.Float}, {Name: "v", Type: sqltypes.Float}}, -1)
		if err != nil {
			t.Fatal(err)
		}
		tb.InsertBatch(c.rows[name])
	}
	rt := exec.NewStoreRuntime(cat, storage.NewResultStore())
	stmt, err := parser.Parse(c.sql)
	if err != nil {
		t.Fatal(err)
	}
	core := stmt.(*ast.SelectStmt).Body.(*ast.SelectCore)
	from, err := plan.NewBuilder(rt).BuildFrom(core.From)
	if err != nil {
		t.Fatal(err)
	}
	where := plan.FoldConstants(core.Where)
	topPlan := &plan.Filter{Input: from, Cond: where}
	placedPlan = plan.PlaceWhere(from, where)
	rowsOf := func(n plan.Node) string {
		rows, err := exec.Run(n, rt, nil)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.sql, err, plan.ExplainTree(n))
		}
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "%#v\n", r)
		}
		return b.String()
	}
	moved = plan.ExplainTree(topPlan) != plan.ExplainTree(placedPlan)
	return rowsOf(topPlan), rowsOf(placedPlan), placedPlan, moved
}

const placeCases = 600

// TestPlacementDifferential: over generated join chains of two or three
// tiny tables under every join kind, with strict and non-strict WHERE
// conjuncts over each table and over pairs of them, the placed plan
// returns exactly the rows, in order, of the plan that filters once on
// top. Enough of the cases move a conjunct or make a join inner for the
// comparison to mean something.
func TestPlacementDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	moved := 0
	for i := 0; i < placeCases; i++ {
		c := genPlaceCase(rng)
		top, placed, p, changed := c.run(t)
		if top != placed {
			t.Fatalf("%s\nrows differ from the plan that filters on top\n top:\n%s\nplaced:\n%s\nplan:\n%s", c.sql, top, placed, plan.ExplainTree(p))
		}
		if changed {
			moved++
		}
	}
	if moved < placeCases/3 {
		t.Errorf("only %d of %d cases placed anything", moved, placeCases)
	}
}

// TestPlacementMutantsFail seeds the two wrong rules placement must not
// follow; on the same cases, each must make some placed plan return
// other rows than the plan that filters on top.
func TestPlacementMutantsFail(t *testing.T) {
	for _, mutant := range []string{plan.NonStrictIntoNullable, plan.IntoFull} {
		t.Run(mutant, func(t *testing.T) {
			restore := plan.SeedPlacementMutant(mutant)
			defer restore()
			rng := rand.New(rand.NewSource(28))
			for i := 0; i < placeCases; i++ {
				if top, placed, _, _ := genPlaceCase(rng).run(t); top != placed {
					return
				}
			}
			t.Errorf("the mutant returned the same rows on all %d cases: the differential test cannot see it", placeCases)
		})
	}
}
