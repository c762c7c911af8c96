package dbspinner

import (
	"fmt"
	"strings"
	"testing"
)

// preparedTable is an engine with t(a int, b int, x float) holding rows
// whose orders by a and by b differ.
func preparedTable(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Partitions: 2})
	mustExec(t, e, "CREATE TABLE t (a int, b int, x float)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 30, 1.23456), (2, 10, 2.34567), (3, 20, 3.45678), (1, 40, 4.56789)")
	return e
}

// outcome renders what a query returned, its columns and rows, or its
// error.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return res.String()
}

// secondText runs a and then b on a fresh engine from mk, with mutate
// applied to its statement cache first, and returns what b returned and
// what b returns on an engine that never ran a.
func secondText(t *testing.T, mk func(*testing.T) *Engine, mutate func(*stmtCache), a, b string) (warm, cold string) {
	t.Helper()
	e := mk(t)
	mutate(&e.stmts)
	_, _ = e.Query(a) // a prepares the program; what it returns is not compared
	warm = outcome(e.Query(b))
	return warm, outcome(mk(t).Query(b))
}

// TestConsumedLiteralsKeyTheCache pairs, for each reader that decides the
// program from a literal's value while building it, a text A with a text
// B of A's shape that differs in that literal. B must return what it
// returns on an engine that never ran A — it must not run A's program.
// Each pair also runs under the seeded mutant that leaves that literal
// out of the key, which must make B run A's program and differ.
func TestConsumedLiteralsKeyTheCache(t *testing.T) {
	for _, c := range []struct {
		reader, a, b string
		slot         int // the literal's slot, for the mutant
	}{
		{"UNTIL n ITERATIONS",
			"WITH ITERATIVE c (k, i) AS (SELECT 1, 0 ITERATE SELECT k, i + 1 FROM c UNTIL 3 ITERATIONS) SELECT i FROM c",
			"WITH ITERATIVE c (k, i) AS (SELECT 1, 0 ITERATE SELECT k, i + 1 FROM c UNTIL 5 ITERATIONS) SELECT i FROM c", 4},
		{"ORDER BY position", "SELECT a, b FROM t ORDER BY 1", "SELECT a, b FROM t ORDER BY 2", 1},
		{"constant folding", "SELECT a FROM t WHERE 1 = 1", "SELECT a FROM t WHERE 1 = 0", 2},
		{"unary minus", "SELECT a FROM t WHERE -b > -15", "SELECT a FROM t WHERE -b > -25", 1},
		{"expression key", "SELECT a + 1 FROM t GROUP BY a + 1", "SELECT a + 2 FROM t GROUP BY a + 1", 1},
	} {
		t.Run(c.reader, func(t *testing.T) {
			warm, cold := secondText(t, preparedTable, func(*stmtCache) {}, c.a, c.b)
			if warm != cold {
				t.Errorf("B ran A's program:\n got: %s\nwant: %s", warm, cold)
			}
			warm, cold = secondText(t, preparedTable, func(s *stmtCache) { s.test.dropSlot = c.slot }, c.a, c.b)
			if warm == cold {
				t.Errorf("with slot %d out of the key B still returns its own answer; the pair does not test the reader", c.slot)
			}
		})
	}
}

// TestBoundLiteralsReachTheRun pairs texts that differ only in literals
// the program reads through their slots when it runs: B must take A's
// program and return its own answer, on the volcano executor and on the
// MPP machine. Under the seeded mutant that runs every program with the
// values it was prepared from, B must return A's.
func TestBoundLiteralsReachTheRun(t *testing.T) {
	for _, c := range []struct{ what, a, b string }{
		// ROUND binds its digits when the run compiles it.
		{"ROUND digits", "SELECT ROUND(x, 2) FROM t ORDER BY a, b", "SELECT ROUND(x, 3) FROM t ORDER BY a, b"},
		{"LIMIT and OFFSET", "SELECT a, b FROM t ORDER BY b LIMIT 1 OFFSET 0", "SELECT a, b FROM t ORDER BY b LIMIT 2 OFFSET 1"},
		{"filter constant", "SELECT a, b FROM t WHERE b > 15 ORDER BY b", "SELECT a, b FROM t WHERE b > 35 ORDER BY b"},
		{"string", "SELECT a || 'x' FROM t ORDER BY b", "SELECT a || 'it''s' FROM t ORDER BY b"},
		{"iterative seed",
			"WITH ITERATIVE c (k, i) AS (SELECT a, b FROM t WHERE b > 15 ITERATE SELECT k, i + 1 FROM c UNTIL 2 ITERATIONS) SELECT k, i FROM c ORDER BY i",
			"WITH ITERATIVE c (k, i) AS (SELECT a, b FROM t WHERE b > 25 ITERATE SELECT k, i + 1 FROM c UNTIL 2 ITERATIONS) SELECT k, i FROM c ORDER BY i"},
		// A failing step's error prints its plan with B's literal.
		{"step error",
			"WITH ITERATIVE c (k, i) AS (SELECT a, b FROM t ITERATE SELECT k, i / 1 FROM c UNTIL 2 ITERATIONS) SELECT k, i FROM c ORDER BY i",
			"WITH ITERATIVE c (k, i) AS (SELECT a, b FROM t ITERATE SELECT k, i / 0 FROM c UNTIL 2 ITERATIONS) SELECT k, i FROM c ORDER BY i"},
		{"recursive start",
			"WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r WHERE n < 4) SELECT n FROM r ORDER BY n",
			"WITH RECURSIVE r (n) AS (SELECT 2 UNION SELECT n + 1 FROM r WHERE n < 7) SELECT n FROM r ORDER BY n"},
	} {
		for _, parallel := range []bool{false, true} {
			mk := func(t *testing.T) *Engine {
				e := preparedTable(t)
				e.cfg.Parallel = parallel
				return e
			}
			t.Run(fmt.Sprintf("%s/parallel=%v", c.what, parallel), func(t *testing.T) {
				e := mk(t)
				mustQuery(t, e, c.a)
				hits := e.Stats().PreparedHits
				warm := outcome(e.Query(c.b))
				if cold := outcome(mk(t).Query(c.b)); warm != cold {
					t.Errorf("B with A's program:\n got: %s\nwant: %s", warm, cold)
				}
				if e.Stats().PreparedHits != hits+1 {
					t.Error("B did not run A's program")
				}
				warm, _ = secondText(t, mk, func(s *stmtCache) { s.test.noBind = true }, c.a, c.b)
				if a := outcome(mk(t).Query(c.a)); warm != a {
					t.Errorf("under the mutant B should return A's answer:\n got: %s\nwant: %s", warm, a)
				}
			})
		}
	}
}

// TestDDLEmptiesTheStatementCache drops a table and creates one of the
// same name with another schema: the text prepared against the old one
// must be prepared again, not served the old program. Under the seeded
// mutant that keeps the cache across DDL it is.
func TestDDLEmptiesTheStatementCache(t *testing.T) {
	const q = "SELECT * FROM s WHERE a > 0"
	run := func(t *testing.T, mutate func(*stmtCache)) (warm, cold string) {
		mk := func(t *testing.T) *Engine {
			e := New(Config{Partitions: 2})
			mutate(&e.stmts)
			mustExec(t, e, "CREATE TABLE s (a int, b int)")
			mustExec(t, e, "INSERT INTO s VALUES (1, 10), (2, 20)")
			return e
		}
		recreate := func(e *Engine) {
			mustExec(t, e, "DROP TABLE s")
			mustExec(t, e, "CREATE TABLE s (b varchar, a int)")
			mustExec(t, e, "INSERT INTO s VALUES ('x', 3)")
		}
		e := mk(t)
		mustQuery(t, e, q)
		recreate(e)
		misses := e.Stats().PreparedMisses
		warm = outcome(e.Query(q))
		if e.Stats().PreparedMisses != misses+1 {
			warm += " (served from the cache)"
		}
		fresh := mk(t)
		recreate(fresh)
		return warm, outcome(fresh.Query(q))
	}
	if warm, cold := run(t, func(*stmtCache) {}); warm != cold {
		t.Errorf("after DROP and CREATE:\n got: %s\nwant: %s", warm, cold)
	}
	if warm, cold := run(t, func(s *stmtCache) { s.test.keepOnDDL = true }); warm == cold {
		t.Error("with the cache kept across DDL the text still gets the new table's answer; the test does not see the old program")
	}
}

// oscillatingAbove is an iterative query that never meets its condition,
// so it fails at the iteration cap. Its argument is a literal of the
// non-iterative part, in front of the loop, whose length moves every
// token after it.
const oscillatingAbove = `WITH ITERATIVE osc (node, val) AS (
	SELECT node, val FROM vals WHERE node < %d
 ITERATE
	SELECT p.b, 1.0 - o.val FROM osc AS o JOIN pairs AS p ON p.a = o.node
 UNTIL DELTA < 1)
SELECT node, val FROM osc`

// TestCachedCapErrorMatchesColdRun: a prepared query that fails at the
// iteration cap, run for a text whose tokens sit elsewhere, must fail
// with the error a cold run of that text returns.
func TestCachedCapErrorMatchesColdRun(t *testing.T) {
	mk := func(t *testing.T) *Engine {
		e := New(Config{Partitions: 2, MaxIterations: 5})
		mustExec(t, e, "CREATE TABLE vals (node int, val float)")
		mustExec(t, e, "INSERT INTO vals VALUES (1, 0.0), (2, 0.3)")
		mustExec(t, e, "CREATE TABLE pairs (a int, b int)")
		mustExec(t, e, "INSERT INTO pairs VALUES (1, 2), (2, 1)")
		return e
	}
	a, b := fmt.Sprintf(oscillatingAbove, 1000), fmt.Sprintf(oscillatingAbove, 10000)
	warm, cold := secondText(t, mk, func(*stmtCache) {}, a, b)
	if !strings.Contains(cold, "exceeded the 5-iteration safety cap") {
		t.Fatalf("the query no longer fails at the cap: %s", cold)
	}
	if warm != cold {
		t.Errorf("the cached program fails otherwise than a cold run:\n got: %s\nwant: %s", warm, cold)
	}
}

// TestStatementCacheKeepsTheRecentlyUsed fills the cache past its cap
// with texts of distinct shapes while one text keeps running: the cache
// holds stmtCacheCap programs, the busy one among them, and the oldest
// idle one is gone.
func TestStatementCacheKeepsTheRecentlyUsed(t *testing.T) {
	e := preparedTable(t)
	text := func(i int) string { return fmt.Sprintf("SELECT a AS c%d FROM t", i) }
	const busy = "SELECT b FROM t WHERE a = 1"
	for i := 0; i < stmtCacheCap+8; i++ {
		mustQuery(t, e, busy)
		mustQuery(t, e, text(i))
	}
	if e.stmts.n != stmtCacheCap {
		t.Errorf("the cache holds %d programs, cap %d", e.stmts.n, stmtCacheCap)
	}
	e.ResetStats()
	mustQuery(t, e, busy)
	mustQuery(t, e, text(0))
	if st := e.Stats(); st.PreparedHits != 1 || st.PreparedMisses != 1 {
		t.Errorf("busy text and first idle text: %d hits, %d misses; want the busy one kept and the idle one evicted",
			st.PreparedHits, st.PreparedMisses)
	}
}
