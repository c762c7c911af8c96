// Regression test for the truth of a value in a boolean context. A
// condition used to read the INT payload of any non-NULL value, and a
// FLOAT or a VARCHAR keeps 0 there: WHERE 1.0 kept no row, NOT 1.0 kept
// every one, WHERE f dropped f = 0.5 while CAST(f AS BOOLEAN) was true,
// and WHERE 'true' was silently FALSE. A value is now TRUE or FALSE as
// CAST(v AS BOOLEAN) makes it in every boolean context (WHERE, ON,
// HAVING, AND, OR, NOT, CASE WHEN, constant folding), and a VARCHAR
// condition is an error: at compile time where its type says so, when
// it is evaluated otherwise.
package dbspinner_test

import (
	"strings"
	"testing"

	"dbspinner"
)

func TestConditionTruthIsTheBooleanCast(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		mk := func(t *testing.T) *dbspinner.Engine {
			e := dbspinner.New(dbspinner.Config{Partitions: 2, Parallel: parallel})
			for _, sql := range []string{
				"CREATE TABLE t (k int, f float, s varchar)",
				"INSERT INTO t VALUES (1, 0.5, 'x'), (2, 0.0, ''), (3, NULL, 'y')",
			} {
				if _, err := e.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			return e
		}
		e := mk(t)
		for _, c := range []struct{ sql, want string }{
			{"SELECT k FROM t WHERE 1.0 ORDER BY k", "1 | 2 | 3"},
			{"SELECT k FROM t WHERE NOT 1.0 ORDER BY k", ""},
			{"SELECT k FROM t WHERE CAST(1.0 AS BOOLEAN) ORDER BY k", "1 | 2 | 3"},
			{"SELECT k FROM t WHERE 0.0 ORDER BY k", ""},
			{"SELECT k FROM t WHERE f ORDER BY k", "1"},
			{"SELECT k FROM t WHERE NOT f ORDER BY k", "2"},
			{"SELECT k FROM t WHERE f OR k = 3 ORDER BY k", "1 | 3"},
			{"SELECT k FROM t WHERE k > 0 AND f ORDER BY k", "1"},
			{"SELECT k, CASE WHEN f THEN 1 ELSE 0 END, CAST(f AS BOOLEAN) FROM t ORDER BY k", "1, 1, true | 2, 0, false | 3, 0, NULL"},
			{"SELECT a.k FROM t AS a JOIN t AS b ON a.k = b.k AND b.f ORDER BY a.k", "1"},
			{"SELECT k FROM t GROUP BY k HAVING MAX(f) ORDER BY k", "1"},
		} {
			res, err := e.Query(c.sql)
			if err != nil {
				t.Errorf("parallel=%v: %s: %v", parallel, c.sql, err)
				continue
			}
			rows := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				rows[i] = r.String()
			}
			if got := strings.Join(rows, " | "); got != c.want {
				t.Errorf("parallel=%v: %s\n got %s\nwant %s", parallel, c.sql, got, c.want)
			}
		}
		for _, c := range []struct{ sql, want string }{
			{"SELECT k FROM t WHERE 'true'", "argument of WHERE must be BOOLEAN, not VARCHAR"},
			{"SELECT k FROM t WHERE s", "argument of WHERE must be BOOLEAN, not VARCHAR"},
			{"SELECT k FROM t WHERE NOT s", "argument of NOT must be BOOLEAN, not VARCHAR"},
			{"SELECT k FROM t WHERE f AND s", "argument of AND must be BOOLEAN, not VARCHAR"},
			{"SELECT CASE WHEN s THEN 1 END FROM t", "argument of CASE WHEN must be BOOLEAN, not VARCHAR"},
			{"SELECT a.k FROM t AS a JOIN t AS b ON a.s", "argument of ON must be BOOLEAN, not VARCHAR"},
			// Typed BOOLEAN, the CASE yields k = 2's VARCHAR when it runs.
			{"SELECT k FROM t WHERE CASE WHEN k != 2 THEN true ELSE s END", `argument of a condition must be BOOLEAN, not VARCHAR ""`},
		} {
			if _, err := e.Query(c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parallel=%v: %s: got error %v, want %q", parallel, c.sql, err, c.want)
			}
		}
		for _, c := range []struct {
			sql, err string
			n        int64
		}{
			{sql: "UPDATE t SET k = k WHERE f", n: 1},
			{sql: "DELETE FROM t WHERE NOT f", n: 1},
			{sql: "DELETE FROM t WHERE s", err: "argument of WHERE must be BOOLEAN, not VARCHAR"},
		} {
			n, err := mk(t).Exec(c.sql)
			switch {
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Errorf("parallel=%v: %s: got error %v, want %q", parallel, c.sql, err, c.err)
			case c.err == "" && (err != nil || n != c.n):
				t.Errorf("parallel=%v: %s: %d rows, %v; want %d", parallel, c.sql, n, err, c.n)
			}
		}
	}
}
