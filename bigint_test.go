package dbspinner

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dbspinner/internal/sqltypes"
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

// TestIntegerOverflowFails: INT arithmetic used to wrap around silently
// (9223372036854775807 + 1 was -9223372036854775808, SUM of four
// MaxInt64 was -4, ABS of MinInt64 was MinInt64, CAST(9.3e18 AS int) was
// MinInt64). Every such result must fail with "integer out of range" —
// a constant one at run time, as 1/0 does, not while it is planned — and
// MinInt64 itself must parse.
func TestIntegerOverflowFails(t *testing.T) {
	e := New(Config{Partitions: 2})
	mustExec(t, e, "CREATE TABLE big (v int)")
	mustExec(t, e, "INSERT INTO big VALUES (9223372036854775807), (9223372036854775807), (9223372036854775807), (9223372036854775807)")
	for _, sql := range []string{
		"SELECT 9223372036854775807 + 1",
		"SELECT -9223372036854775808 - 1",
		"SELECT 2 * 9223372036854775807",
		"SELECT -1 * -9223372036854775808",
		"SELECT -9223372036854775808 / -1",
		"SELECT -(-9223372036854775808)",
		"SELECT ABS(-9223372036854775808)",
		"SELECT CAST(9.3e18 AS int)",
		"SELECT CAST(CAST('NaN' AS float) AS int)",
		"SELECT CAST(CAST('-Inf' AS float) AS int)",
		"SELECT SUM(v) FROM big",
		"SELECT v + v FROM big",
	} {
		_, err := e.Query(sql)
		if !errors.Is(err, sqltypes.ErrIntegerOutOfRange) {
			t.Errorf("%s: got %v, want integer out of range", sql, err)
		}
	}
	// A constant filter that would overflow is not evaluated while the
	// statement is planned: with no row to filter, nothing fails.
	if got := resultStrings(mustQuery(t, e, "SELECT v FROM big WHERE v < 0 AND 9223372036854775807 + 1 > 0")); len(got) != 0 {
		t.Errorf("filter over no qualifying row returned %q", got)
	}
	for sql, want := range map[string]string{
		"SELECT -9223372036854775808":                       "-9223372036854775808",
		"SELECT -9223372036854775808 + 9223372036854775807": "-1",
		"SELECT 9223372036854775807 - 1":                    "9223372036854775806",
		"SELECT CAST(-9.223372036854775808e18 AS int)":      "-9223372036854775808",
		"SELECT ABS(-9223372036854775807)":                  "9223372036854775807",
	} {
		if got := resultStrings(mustQuery(t, e, sql)); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %q, want %s", sql, got, want)
		}
	}
}
