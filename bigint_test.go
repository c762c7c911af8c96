package dbspinner

import (
	"fmt"
	"strings"
	"testing"
)

// TestBigIntegerKeysStayDistinct: 2^53 and 2^53+1 share a float64 image,
// so hashing on it alone (as the join, grouping and distinct maps once
// did) collapsed them, while the same predicate evaluated as a filter
// told them apart. Every keyed path must agree with the filter.
func TestBigIntegerKeysStayDistinct(t *testing.T) {
	const lo, hi = "9007199254740992", "9007199254740993"
	for _, parts := range []int{1, 4} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("partitions=%d/parallel=%v", parts, parallel), func(t *testing.T) {
				e := New(Config{Partitions: parts, Parallel: parallel})
				mustExec(t, e, "CREATE TABLE a (id int, v int)")
				mustExec(t, e, "CREATE TABLE b (id int, w int)")
				mustExec(t, e, "INSERT INTO a VALUES ("+lo+", 1), ("+hi+", 2)")
				mustExec(t, e, "INSERT INTO b VALUES ("+hi+", 7)")

				check := func(sql string, want ...string) {
					t.Helper()
					got := resultStrings(mustQuery(t, e, sql))
					if strings.Join(got, "|") != strings.Join(want, "|") {
						t.Errorf("%s\n got: %q\nwant: %q", sql, got, want)
					}
				}
				check("SELECT a.id, b.w FROM a, b WHERE a.id = b.id ORDER BY a.id", hi+", 7") // the filter: always right
				check("SELECT a.id, b.w FROM a JOIN b ON a.id = b.id ORDER BY a.id", hi+", 7")
				check("SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id", lo+", NULL", hi+", 7")
				check("SELECT id, COUNT(*) FROM a GROUP BY id ORDER BY id", lo+", 1", hi+", 1")
				check("SELECT DISTINCT id FROM a ORDER BY id", lo, hi)
				check("SELECT COUNT(DISTINCT id) FROM a", "2")

				if n := mustExec(t, e, "UPDATE a SET v = b.w FROM b WHERE a.id = b.id"); n != 1 {
					t.Errorf("UPDATE ... FROM touched %d rows, want 1", n)
				}
				check("SELECT id, v FROM a ORDER BY id", lo+", 1", hi+", 7")
			})
		}
	}
}
