// Regression test for NaN ordering. NaN used to compare equal to every
// number, so the answer depended on the plan: a filter x = NaN kept
// every row, a join on f(a.x) = b.y matched NaN only with NaN as a hash
// join (KeyTable's equality) but with everything as the equivalent
// <= AND >= nested loop, and sort had a non-transitive comparator. NaN
// now equals NaN and sorts above every other number (PostgreSQL's order),
// which is what KeyTable always said.
package dbspinner_test

import (
	"sort"
	"strings"
	"testing"

	"dbspinner"
)

func TestNaNOrderAgreesAcrossPlans(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		for _, parts := range []int{1, 2, 4} {
			e := dbspinner.New(dbspinner.Config{Partitions: parts, Parallel: parallel})
			for _, sql := range []string{
				"CREATE TABLE a (k int, x float)",
				"INSERT INTO a VALUES (1, 1.0), (2, SQRT(-1.0)), (3, 4.0), (4, SQRT(-4.0)), (5, NULL)",
				"CREATE TABLE withnan (y float)",
				"INSERT INTO withnan VALUES (SQRT(-1.0)), (1.0), (2.0)",
				"CREATE TABLE nonan (y float)",
				"INSERT INTO nonan VALUES (1.0), (2.0)",
			} {
				if _, err := e.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			rows := func(sql string, sorted bool) string {
				t.Helper()
				res, err := e.Query(sql)
				if err != nil {
					t.Fatalf("parallel=%v parts=%d: %s: %v", parallel, parts, sql, err)
				}
				out := make([]string, len(res.Rows))
				for i, r := range res.Rows {
					out[i] = r.String()
				}
				if sorted {
					sort.Strings(out)
				}
				return strings.Join(out, " | ")
			}
			for _, c := range []struct {
				sql, want string
				sorted    bool // the plan fixes no order
			}{
				{"SELECT k, x FROM a WHERE x = SQRT(-1.0)", "2, NaN | 4, NaN", true},
				{"SELECT k FROM a WHERE x > 4.0", "2 | 4", true},
				// Hash join and nested loop: NaN meets NaN, and only NaN.
				{"SELECT a.k, b.y FROM a JOIN withnan AS b ON SQRT(-1.0 * a.x) = b.y", "1, NaN | 2, NaN | 3, NaN | 4, NaN", true},
				{"SELECT a.k, b.y FROM a JOIN withnan AS b ON SQRT(-1.0 * a.x) <= b.y AND SQRT(-1.0 * a.x) >= b.y", "1, NaN | 2, NaN | 3, NaN | 4, NaN", true},
				{"SELECT a.k, b.y FROM a JOIN nonan AS b ON SQRT(-1.0 * a.x) = b.y", "", true},
				{"SELECT a.k, b.y FROM a JOIN nonan AS b ON SQRT(-1.0 * a.x) <= b.y AND SQRT(-1.0 * a.x) >= b.y", "", true},
				// NULL first, NaN last; the top-N agrees with the sort.
				{"SELECT x FROM a ORDER BY x", "NULL | 1 | 4 | NaN | NaN", false},
				{"SELECT x FROM a ORDER BY x DESC", "NaN | NaN | 4 | 1 | NULL", false},
				{"SELECT x FROM a ORDER BY x DESC LIMIT 1", "NaN", false},
				{"SELECT x FROM a ORDER BY x LIMIT 3", "NULL | 1 | 4", false},
				// NaN is the largest value.
				{"SELECT MIN(x), MAX(x) FROM a", "1, NaN", false},
				{"SELECT k, LEAST(x, 3.0), GREATEST(x, 3.0) FROM a ORDER BY k", "1, 1, 3 | 2, 3, NaN | 3, 3, 4 | 4, 3, NaN | 5, 3, 3", false},
			} {
				if got := rows(c.sql, c.sorted); got != c.want {
					t.Errorf("parallel=%v parts=%d: %s\n got %s\nwant %s", parallel, parts, c.sql, got, c.want)
				}
			}
		}
	}
}
