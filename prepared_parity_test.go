package dbspinner_test

import (
	"fmt"
	"strings"
	"testing"

	"dbspinner"
)

// boundVariant is sql with one literal changed that the prepared program
// binds rather than consumes: the SSSP source, the FF modulus,
// PageRank's initial delta, the seed of the aggregate-maintenance
// queries, the base term of a recursive one (RecursiveQueries) or the
// filter of a plain SELECT (storedRowFinals).
func boundVariant(t *testing.T, sql string) string {
	t.Helper()
	for _, c := range []struct{ from, to string }{
		{"CASE WHEN src = 1 THEN", "CASE WHEN src = 2 THEN"},
		{"MOD(node, 2)", "MOD(node, 3)"},
		{"SELECT src, 0, 0.15", "SELECT src, 0, 0.25"},
		{"SELECT src, src % 7", "SELECT src, src % 5"},
		{"SELECT 25 UNION", "SELECT 26 UNION"},
		{"SELECT 1, 0.5 UNION", "SELECT 1, 0.25 UNION"},
		{"WHERE src > 3", "WHERE src > 9"},
	} {
		if strings.Contains(sql, c.from) {
			return strings.Replace(sql, c.from, c.to, 1)
		}
	}
	t.Fatalf("no bound literal to change in %s", sql)
	return ""
}

// preparedParity is an oracle-matrix cell's check of the statement
// cache. e has just run sql, the first text of its shape e ran, and
// returned cold; fresh makes an engine like e before it ran anything.
// Running sql again on e must take the prepared program and return
// cold's rows byte for byte. Running boundVariant(sql) on e must return
// what a cold run of it on fresh() does — through the prepared program
// with the variant's value bound, unless the program cites source
// offsets (an unproved termination), which keys it on its whole text.
// The rows a run returned are the caller's: the runs after it, which
// fill again the storage it let go, must not write into them, so cold
// and the warm run's rows must read as they did when returned after
// every later run. It says what differs, "" when nothing does.
func preparedParity(t *testing.T, e *dbspinner.Engine, fresh func() *dbspinner.Engine, sql string, cold *dbspinner.Result) string {
	t.Helper()
	coldRows := fmt.Sprint(resultRows(cold))
	hits := e.Stats().PreparedHits
	warm, err := e.Query(sql)
	if err != nil {
		return fmt.Sprintf("warm run: %v", err)
	}
	warmRows := fmt.Sprint(resultRows(warm))
	if warmRows != coldRows {
		return "the warm run diverges from the cold one"
	}
	if fmt.Sprint(resultRows(cold)) != coldRows {
		return "the warm run wrote into the rows the cold run returned"
	}
	if e.Stats().PreparedHits != hits+1 {
		return "the warm run did not take the prepared program"
	}
	variant := boundVariant(t, sql)
	got, err := e.Query(variant)
	if err != nil {
		return fmt.Sprintf("warm run with a changed bound literal: %v", err)
	}
	want, err := fresh().Query(variant)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resultRows(got)) != fmt.Sprint(resultRows(want)) {
		return "the warm run with a changed bound literal diverges from a cold run of it"
	}
	if fmt.Sprint(resultRows(cold)) != coldRows || fmt.Sprint(resultRows(warm)) != warmRows {
		return "the run with a changed bound literal wrote into the rows an earlier run returned"
	}
	return ""
}

// TestPreparedParityCatchesUnboundRuns seeds the mutant that runs every
// prepared program with the literals it was prepared from: the matrices'
// check must see the run with a changed bound literal diverge.
func TestPreparedParityCatchesUnboundRuns(t *testing.T) {
	sql := workloadQueries()["SSSP"]
	fresh := func() *dbspinner.Engine { return newVerdictEngine(t, dbspinner.Config{Partitions: 2}) }
	e := fresh()
	dbspinner.SeedUnboundRuns(e)
	cold, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if preparedParity(t, e, fresh, sql, cold) == "" {
		t.Error("runs with nothing bound pass the prepared-statement check")
	}
}
