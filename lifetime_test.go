package dbspinner_test

import (
	"os"
	"testing"

	"dbspinner"
	"dbspinner/internal/bench"
	"dbspinner/internal/sqltypes"
)

// TestMain runs every test of the package with the row chunks a released
// result hands back poisoned at once (sqltypes.Poison): a reader that
// kept rows of a result the store released — the oracle matrices'
// answers, preparedParity's re-check of the rows earlier runs returned,
// the mid-loop retry cells' restored checkpoints — reads <reused>
// instead of the value a later table happened not to overwrite yet.
func TestMain(m *testing.M) {
	disarm := sqltypes.Poison()
	code := m.Run()
	disarm()
	os.Exit(code)
}

// TestLifetimeForecastFreesDisplacedTables: a warm FF run over the
// benchmark graph hands back exactly the rows of the tables it
// displaces. forecast holds one row of three columns per source vertex
// with an even id, 2,000 of them; its ten renames each displace such a
// table — step 1's, then iterations 1 to 9's — and the run's end drops
// iteration 10's, which Qf read through a projection and did not keep:
// 11 × 2,000 × 3 = 66,000 cells.
func TestLifetimeForecastFreesDisplacedTables(t *testing.T) {
	e := newBenchEngine(t, benchConfig, dbspinner.Config{})
	sql := bench.FFQuery(benchConfig.Iterations, 2)
	if _, err := e.Query(sql); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().FreedCells
	if _, err := e.Query(sql); err != nil {
		t.Fatal(err)
	}
	const want = 11 * 2_000 * 3
	if got := e.Stats().FreedCells - before; got != want {
		t.Errorf("a warm FF run freed %d cells, want %d", got, want)
	}
}
